//! # atmem-hms — heterogeneous memory system simulator
//!
//! This crate is the hardware substrate for the ATMem reproduction (CGO'20,
//! "ATMem: Adaptive Data Placement in Graph Applications on Heterogeneous
//! Memories"). It simulates, from scratch, everything the paper's runtime
//! needs from the machine:
//!
//! * an **ordered set of memory tiers** (hottest first) with distinct
//!   capacity, latency, and read/write bandwidth ([`TierSpec`], two- to
//!   four-tier presets in [`Platform`], per-pair link bandwidth caps);
//! * a **virtual memory system**: 4 KiB frames, 2 MiB huge mappings, a frame
//!   allocator, a mapping table, and an LRU **TLB** ([`Tlb`]);
//! * a set-associative, physically-indexed **last-level cache** ([`Cache`]);
//! * a **cost model** translating every access into simulated nanoseconds
//!   ([`CostModel`], [`SimClock`]);
//! * **PEBS-like precise address sampling** of LLC read misses ([`Pebs`]);
//! * an `mbind`-style **system migration service** baseline
//!   ([`Machine::migrate_mbind`]) plus the low-level primitives the ATMem
//!   optimizer composes into its multi-stage multi-threaded migration
//!   ([`Machine::alloc_frames`], [`Machine::copy_region_to_frames`],
//!   [`Machine::remap_region`], [`Machine::copy_frames_to_region`]).
//!
//! Data written through the simulator actually lives in the tier buffers, so
//! migrations really move bytes and correctness is externally checkable.
//!
//! ## Example
//!
//! ```
//! use atmem_hms::{Machine, Placement, Platform, TierId, TrackedVec};
//!
//! # fn main() -> atmem_hms::Result<()> {
//! let mut machine = Machine::new(Platform::nvm_dram());
//! let v = TrackedVec::<u64>::new(&mut machine, 1024, Placement::Slow)?;
//! v.set(&mut machine, 3, 42);
//! assert_eq!(v.get(&mut machine, 3), 42);
//!
//! // Migrate the array to the fast tier with the system service.
//! let report = machine.migrate_mbind(
//!     atmem_hms::addr::VirtRange::new(v.range().start, v.range().len.next_multiple_of(4096)),
//!     TierId::FAST,
//! )?;
//! assert!(report.time.as_ns() > 0.0);
//! assert_eq!(v.get(&mut machine, 3), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod cost;
pub mod error;
pub mod fault;
pub mod frame;
pub mod machine;
pub mod mapping;
mod mbind;
pub mod pebs;
pub mod platform;
pub mod shard;
pub mod stats;
pub mod tier;
pub mod tlb;
pub mod trace;
pub mod tracked;

pub use addr::{Frame, PhysAddr, VirtAddr, VirtRange};
pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use cost::{CostModel, SimClock, SimDuration};
pub use error::{HmsError, Result};
pub use fault::{FaultPlan, FaultSite, FAULT_SITES};
pub use frame::{FrameAllocator, FrameRun};
pub use machine::{AllocationInfo, Machine, MigrationReport, Placement, Scalar};
pub use mapping::{Mapping, MappingTable, PageKind};
pub use pebs::{Pebs, SampleRecord};
pub use platform::Platform;
pub use shard::{merge_owner_queues, CoreCtx, CoreHandle, MemPort, OwnerQueues, MAX_TIERS};
pub use stats::MachineStats;
pub use tier::{TierId, TierSpec, TierStorage};
pub use tlb::Tlb;
pub use trace::{AccessKind, TraceRecord, Tracer};
pub use tracked::TrackedVec;
