//! `mbind` system service vs ATMem's multi-stage multi-threaded migration.
//!
//! Reproduces the Table 4 comparison in miniature: migrate the same region
//! with both mechanisms and report migration time plus the TLB misses a
//! following scan suffers (the `mbind` splintering effect).
//!
//! Run with: `cargo run -p atmem-bench --release --example migration_comparison`

use atmem::migrate::plan::{MigrationPlan, PlannedRegion};
use atmem::migrate::staged::execute_plan;
use atmem::MigrationConfig;
use atmem_hms::{Machine, Placement, Platform, TierId, VirtRange};

const REGION_BYTES: usize = 16 * 1024 * 1024;

/// Scans the region once and returns the TLB misses of the scan.
fn scan_tlb_misses(m: &mut Machine, range: VirtRange) -> u64 {
    m.flush_tlb_and_llc();
    let before = m.stats().tlb_misses;
    let words = range.len as u64 / 8;
    for i in (0..words).step_by(512) {
        let _ = m.read::<u64>(range.start.add(i * 8)).expect("mapped");
    }
    m.stats().tlb_misses - before
}

fn setup() -> (Machine, VirtRange) {
    let mut m = Machine::new(Platform::nvm_dram());
    let r = m.alloc(REGION_BYTES, Placement::Slow).expect("alloc");
    for i in 0..(REGION_BYTES / 8) as u64 {
        m.poke::<u64>(r.start.add(i * 8), i).expect("mapped");
    }
    (m, VirtRange::new(r.start, REGION_BYTES))
}

fn main() -> atmem::Result<()> {
    println!(
        "migrating {} MiB from NVM to DRAM\n",
        REGION_BYTES / (1 << 20)
    );

    // System service.
    let (mut m1, range1) = setup();
    let report = m1.migrate_mbind(range1, TierId::FAST)?;
    let mbind_tlb = scan_tlb_misses(&mut m1, range1);
    println!(
        "mbind : {:>10}   mappings after: {:>5}   scan TLB misses: {}",
        report.time, report.mappings_after, mbind_tlb
    );

    // ATMem staged migration.
    let (mut m2, range2) = setup();
    let plan = MigrationPlan {
        regions: vec![PlannedRegion {
            object: atmem::ObjectId::from_index(0),
            range: range2,
            priority: 1.0,
            dst: None,
        }],
        total_bytes: REGION_BYTES,
        dropped_bytes: 0,
    };
    let config = MigrationConfig {
        max_region_bytes: REGION_BYTES,
        ..MigrationConfig::default()
    };
    let outcome = execute_plan(&mut m2, &plan, &config, TierId::FAST)?;
    let atmem_tlb = scan_tlb_misses(&mut m2, range2);
    let mappings = m2.mappings_in(range2).len();
    println!(
        "atmem : {:>10}   mappings after: {:>5}   scan TLB misses: {}",
        outcome.time, mappings, atmem_tlb
    );

    println!(
        "\nspeedup {:.2}x, TLB miss reduction {:.2}x",
        report.time.as_ns() / outcome.time.as_ns(),
        mbind_tlb as f64 / atmem_tlb.max(1) as f64
    );

    // Both mechanisms must preserve every byte.
    for i in (0..(REGION_BYTES / 8) as u64).step_by(4097) {
        assert_eq!(m1.peek::<u64>(range1.start.add(i * 8))?, i);
        assert_eq!(m2.peek::<u64>(range2.start.add(i * 8))?, i);
    }
    println!("data verified identical under both mechanisms");
    Ok(())
}
