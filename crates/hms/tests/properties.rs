//! Property-based tests of the memory-system invariants.

use atmem_hms::addr::PAGE_SIZE;
use atmem_hms::{
    FrameAllocator, FrameRun, Machine, Placement, Platform, TierId, TrackedVec, VirtAddr, VirtRange,
};
use atmem_prop::prelude::*;

proptest! {
    /// The frame allocator never double-allocates, never loses frames, and
    /// frees restore capacity exactly.
    #[test]
    fn frame_allocator_conserves_frames(
        ops in prop::collection::vec((1usize..32, any::<bool>()), 1..60),
    ) {
        let total = 512;
        let mut alloc = FrameAllocator::new(total);
        let mut live: Vec<FrameRun> = Vec::new();
        let mut occupied: Vec<bool> = vec![false; total];
        for (count, free_one) in ops {
            if free_one && !live.is_empty() {
                let run = live.swap_remove(0);
                for i in run.start..run.start + run.count {
                    prop_assert!(occupied[i as usize]);
                    occupied[i as usize] = false;
                }
                alloc.free_run(run);
            } else if let Some(run) = alloc.alloc_run(count) {
                prop_assert_eq!(run.count as usize, count);
                for i in run.start..run.start + run.count {
                    prop_assert!(!occupied[i as usize], "double allocation of {i}");
                    occupied[i as usize] = true;
                }
                live.push(run);
            }
            let used: usize = occupied.iter().filter(|&&b| b).count();
            prop_assert_eq!(alloc.used_frames(), used);
            prop_assert_eq!(alloc.free_frames(), total - used);
        }
    }

    /// Aligned allocations are aligned, whatever came before them.
    #[test]
    fn aligned_runs_are_aligned(
        noise in prop::collection::vec(1usize..7, 0..10),
        align_pow in 1u32..7,
        count_units in 1usize..4,
    ) {
        let align = 1usize << align_pow;
        let mut alloc = FrameAllocator::new(1024);
        for n in noise {
            let _ = alloc.alloc_run(n);
        }
        if let Some(run) = alloc.alloc_run_aligned(count_units * align, align) {
            prop_assert_eq!(run.start as usize % align, 0);
        }
    }

    /// Every byte written through the accounted path reads back through
    /// both the accounted and unaccounted paths, across arbitrary
    /// allocation sizes and placements.
    #[test]
    fn read_your_writes(
        sizes in prop::collection::vec(1usize..64, 1..6),
        fast in any::<bool>(),
        probe in 0usize..32,
    ) {
        let mut machine = Machine::new(Platform::testing());
        let placement = if fast { Placement::Fast } else { Placement::Slow };
        let mut regions = Vec::new();
        for pages in &sizes {
            regions.push(machine.alloc(pages * PAGE_SIZE, placement).unwrap());
        }
        for (ri, r) in regions.iter().enumerate() {
            let words = r.len / 8;
            let idx = probe % words;
            let va = r.start.add((idx * 8) as u64);
            let value = (ri as u64) << 32 | idx as u64;
            machine.write::<u64>(va, value).unwrap();
            prop_assert_eq!(machine.read::<u64>(va).unwrap(), value);
            prop_assert_eq!(machine.peek::<u64>(va).unwrap(), value);
        }
        // Free everything; all reads must fail afterwards.
        for r in &regions {
            machine.free(*r).unwrap();
        }
        for r in &regions {
            prop_assert!(machine.read::<u64>(r.start).is_err());
        }
    }

    /// Translation is stable: repeated reads of untouched data return the
    /// same value regardless of interleaved migrations of other regions.
    #[test]
    fn migration_does_not_disturb_neighbours(
        pages_a in 1usize..32,
        pages_b in 1usize..32,
        migrate_to_fast in any::<bool>(),
    ) {
        let mut machine = Machine::new(Platform::testing());
        let a = machine.alloc(pages_a * PAGE_SIZE, Placement::Slow).unwrap();
        let b = machine.alloc(pages_b * PAGE_SIZE, Placement::Slow).unwrap();
        machine.poke::<u64>(a.start, 0xAAAA).unwrap();
        machine.poke::<u64>(b.start, 0xBBBB).unwrap();
        let dst = if migrate_to_fast { TierId::FAST } else { TierId::SLOW };
        let full_a = atmem_hms::VirtRange::new(a.start, pages_a * PAGE_SIZE);
        machine.migrate_mbind(full_a, dst).unwrap();
        prop_assert_eq!(machine.peek::<u64>(a.start).unwrap(), 0xAAAA);
        prop_assert_eq!(machine.peek::<u64>(b.start).unwrap(), 0xBBBB);
    }

    /// The batched window engine (`gather` / `scatter` / `gather_update`)
    /// leaves all simulated state — counters, clock, PEBS and trace streams
    /// — bit-identical to the per-element loop, for arbitrary index windows
    /// (duplicates, runs and random jumps included) over an array that
    /// spills across the tier boundary, across a mid-run `mbind` remap of
    /// part of the array (which splinters its mappings, moves pages between
    /// tiers and shoots down TLB entries between two windows).
    #[test]
    fn window_engine_matches_scalar_loop_on_random_windows(
        raw in prop::collection::vec((0u32..5_000, 1usize..5), 1..120),
        ops in prop::collection::vec(0u32..3, 1..6),
        period in 2u64..9,
        remap in (0usize..6, 0usize..10, 1usize..5, any::<bool>()),
    ) {
        // Expand (start, run) pairs into a window with natural line runs.
        let n = 5_000usize; // u64 array: 40 000 B, spills a 16 KiB fast tier.
        let window: Vec<u32> = raw
            .iter()
            .flat_map(|&(start, run)| (0..run).map(move |k| (start + k as u32) % n as u32))
            .collect();
        let platform = || Platform::testing().with_capacities(16 * 1024, 4 * 1024 * 1024);
        let mut bulk = Machine::new(platform());
        let mut scalar = Machine::new(platform());
        for m in [&mut bulk, &mut scalar] {
            m.pebs_enable(period, period / 2);
            m.trace_enable();
        }
        let vb = TrackedVec::<u64>::new(&mut bulk, n, Placement::Preferred(TierId::FAST)).unwrap();
        let vs =
            TrackedVec::<u64>::new(&mut scalar, n, Placement::Preferred(TierId::FAST)).unwrap();
        // The remap runs before op `remap_at`: pages [page, page + pages)
        // of the array's 10 pages go to the fast or the slow tier. A
        // promotion into the full fast tier fails part-way on both machines
        // alike (pages moved so far stay moved).
        let (remap_at, page, pages, to_fast) = remap;
        let remap_at = remap_at % ops.len();
        let pages = pages.min(10 - page);
        let dst = if to_fast { TierId::FAST } else { TierId::SLOW };
        for (k, op) in ops.into_iter().enumerate() {
            if k == remap_at {
                let range = |v: &TrackedVec<u64>| {
                    let start = v.range().start.add((page * PAGE_SIZE) as u64);
                    VirtRange::new(start, pages * PAGE_SIZE)
                };
                let rb = bulk.migrate_mbind(range(&vb), dst);
                let rs = scalar.migrate_mbind(range(&vs), dst);
                prop_assert_eq!(rb, rs);
            }
            match op {
                0 => {
                    let mut out = vec![0u64; window.len()];
                    vb.gather(&mut bulk, &window, &mut out);
                    for (&i, &got) in window.iter().zip(&out) {
                        prop_assert_eq!(vs.get(&mut scalar, i as usize), got);
                    }
                }
                1 => {
                    let vals: Vec<u64> = (0..window.len() as u64).collect();
                    vb.scatter(&mut bulk, &window, &vals);
                    for (&i, &x) in window.iter().zip(&vals) {
                        vs.set(&mut scalar, i as usize, x);
                    }
                }
                _ => {
                    let mut olds = Vec::with_capacity(window.len());
                    vb.gather_update(&mut bulk, &window, |k, x| {
                        olds.push(x);
                        x.wrapping_add(k as u64)
                    });
                    for (k, &i) in window.iter().enumerate() {
                        let old = vs.update(&mut scalar, i as usize, |x| {
                            x.wrapping_add(k as u64)
                        });
                        prop_assert_eq!(olds[k], old);
                    }
                }
            }
            prop_assert_eq!(bulk.stats(), scalar.stats());
            prop_assert_eq!(bulk.now(), scalar.now());
        }
        prop_assert_eq!(bulk.pebs_drain(), scalar.pebs_drain());
        prop_assert_eq!(bulk.trace_drain(), scalar.trace_drain());
        prop_assert_eq!(vb.to_vec(&mut bulk), vs.to_vec(&mut scalar));
    }

    /// Simulated time is monotone under any access sequence.
    #[test]
    fn clock_is_monotone_under_accesses(
        offsets in prop::collection::vec(0u64..(16 * PAGE_SIZE as u64 / 8), 1..200),
        writes in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut machine = Machine::new(Platform::testing());
        let r = machine.alloc(16 * PAGE_SIZE, Placement::Slow).unwrap();
        let mut last = machine.now().as_ns();
        for (off, w) in offsets.iter().zip(writes.iter().cycle()) {
            let va = VirtAddr::new(r.start.raw() + off * 8);
            if *w {
                machine.write::<u64>(va, *off).unwrap();
            } else {
                let _ = machine.read::<u64>(va).unwrap();
            }
            let now = machine.now().as_ns();
            prop_assert!(now > last, "time must strictly advance per access");
            last = now;
        }
    }
}
