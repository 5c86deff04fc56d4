//! Sharded parallel simulation: per-core state and the core access engine.
//!
//! The simulated machine is split into **shared read-mostly state** (tiers
//! and their byte storage, the frame allocators, the mapping table, the
//! allocation registry, the platform description) and **per-core state**
//! ([`CoreCtx`]: private TLB, private LLC, local clock, local counters,
//! local PEBS sampler, local trace ring). A [`CoreHandle`] bundles one
//! core's mutable context with shared borrows of everything else and owns
//! the *entire* accounted access engine — the scalar path, the batched
//! window engine and the bulk block engine. [`Machine`](crate::Machine)
//! itself keeps one resident `CoreCtx` and routes every access through a
//! handle over it, so the single-core simulator is the n=1 special case of
//! the sharded one by construction.
//!
//! ## The deterministic reduction contract
//!
//! [`Machine::run_cores`](crate::Machine::run_cores) forks `n` cold
//! [`CoreCtx`]s, runs one closure per core under [`std::thread::scope`],
//! and merges in **core order** regardless of OS scheduling:
//!
//! * access counters and TLB/LLC hit/miss totals are **summed**;
//! * per-core PEBS streams are **concatenated in core order** (each core
//!   has an independent jitter RNG derived from the machine seed and its
//!   core id, so the merged stream is a pure function of seed, core count
//!   and partition);
//! * per-core traces are concatenated in core order, bounded by the parent
//!   tracer's capacity;
//! * the machine clock advances by the **maximum** per-core elapsed time
//!   plus one modeled phase-barrier cost
//!   ([`CostModel::barrier_cost`](crate::cost::CostModel::barrier_cost)).
//!
//! With `n = 1`, `run_cores` does not fork at all: the closure runs against
//! the machine's own resident core, no barrier is charged, and every piece
//! of simulated state ends bit-identical to calling the machine's access
//! methods directly. This is how every kernel runs on one core: kernels
//! have a single body, written against `run_cores`.
//!
//! ## The partition contract
//!
//! Shared tier storage is handed to cores as a `TiersView` of raw
//! pointers. Cores may *read* any mapped byte concurrently; a byte
//! **written** by one core during a phase must not be read or written by
//! any other core in the same phase (kernels partition their output ranges
//! to guarantee this, merging cross-core contributions at phase barriers).
//! Violating the contract is a data race on simulated memory — the same
//! bug it would be on real hardware.

use std::marker::PhantomData;

use crate::addr::{
    PhysAddr, VirtAddr, VirtRange, HUGE_PAGE_FRAMES, LINE_SIZE, PAGE_SHIFT, PAGE_SIZE,
};
use crate::cache::Cache;
use crate::cost::{SimClock, SimDuration};
use crate::error::{HmsError, Result};
use crate::machine::Scalar;
use crate::mapping::{Mapping, MappingTable, PageKind};
use crate::pebs::Pebs;
use crate::platform::Platform;
use crate::tier::{Tier, TierId, TierSpec};
use crate::tlb::Tlb;
use crate::trace::{AccessKind, Tracer};

/// Maximum number of tiers a machine (and the window engine's cost table,
/// the residency caches, and a `TiersView`) can carry. Platform presets
/// range from two (the paper testbeds) to four (HBM-DRAM-CXL-NVM).
pub const MAX_TIERS: usize = 8;

/// What each element of a batched index window does, for
/// [`CoreHandle::access_window`]. Passed as a const generic so each op's
/// loop monomorphizes branch-free. `OP_RMW` is simulated as a read followed
/// by a guaranteed-hit write of the same line, exactly like
/// [`CoreHandle::read_modify_write`].
const OP_READ: u8 = 0;
/// Write each element (see [`OP_READ`]).
const OP_WRITE: u8 = 1;
/// Read-modify-write each element (see [`OP_READ`]).
const OP_RMW: u8 = 2;

/// Access totals local to one simulated core.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) accesses: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) bytes_migrated: u64,
}

/// One physically contiguous piece of a bulk access: `len` bytes starting
/// at byte `offset` of `tier`'s storage. Produced by
/// [`CoreHandle::access_block`]; consumed by the `TrackedVec` slice APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockSegment {
    /// Tier whose storage backs this piece.
    pub(crate) tier: TierId,
    /// Byte offset into the tier storage.
    pub(crate) offset: usize,
    /// Length in bytes.
    pub(crate) len: usize,
}

/// The private state of one simulated core.
///
/// Everything that the access path mutates lives here; everything it only
/// reads (mappings, tier specs, tier storage geometry) stays on the
/// machine and is shared. Forked cores start with **cold** TLB and LLC —
/// real cores do not inherit another core's private cache contents — so
/// multi-core cache state is intentionally not bit-identical to the scalar
/// engine (see the module docs); counters, streams and the clock still
/// merge deterministically.
#[derive(Debug)]
pub struct CoreCtx {
    pub(crate) tlb: Tlb,
    pub(crate) llc: Cache,
    pub(crate) clock: SimClock,
    pub(crate) pebs: Pebs,
    pub(crate) tracer: Tracer,
    pub(crate) counters: Counters,
    /// One-entry memo over the shared mapping table: the only mapping
    /// memo in the simulator. Every lookup goes through
    /// [`CoreCtx::lookup`]; every mapping-table mutation on the machine
    /// resets the resident core's memo, and forked cores start without one.
    pub(crate) map_memo: Option<Mapping>,
}

impl CoreCtx {
    /// Builds the machine's resident core: cold TLB/LLC sized from the
    /// platform, clock at zero, a PEBS sampler with the given seed.
    pub(crate) fn resident(platform: &Platform, pebs_seed: u64, trace_capacity: usize) -> Self {
        CoreCtx {
            tlb: Tlb::new(platform.tlb_entries),
            llc: Cache::new(platform.llc),
            clock: SimClock::new(),
            pebs: Pebs::new(pebs_seed),
            tracer: Tracer::new(trace_capacity),
            counters: Counters::default(),
            map_memo: None,
        }
    }

    /// Forks the per-core context for simulated core `core_id`: cold
    /// TLB/LLC, clock at zero (it will measure this core's phase-local
    /// elapsed time), a PEBS sampler with an independent deterministic
    /// stream, and an empty trace ring.
    pub(crate) fn fork(&self, platform: &Platform, core_id: usize) -> CoreCtx {
        CoreCtx {
            tlb: Tlb::new(platform.tlb_entries),
            llc: Cache::new(platform.llc),
            clock: SimClock::new(),
            pebs: self.pebs.fork(core_id),
            tracer: self.tracer.fork(),
            counters: Counters::default(),
            map_memo: None,
        }
    }

    /// This core's phase-local elapsed simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now()
    }

    /// Finds the mapping containing `va` through the one-entry memo,
    /// falling back to the shared table.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if no mapping contains `va`.
    #[inline]
    pub(crate) fn lookup(&mut self, mappings: &MappingTable, va: VirtAddr) -> Result<Mapping> {
        let vpage = va.page_index();
        if let Some(m) = self.map_memo {
            // Same form as `Mapping::translate`'s hard check, so a memo hit
            // can share it after inlining: with a two-compare form here, that
            // check cost about 5% of `protocol-1core` host time (2-vCPU host).
            if vpage.wrapping_sub(m.vpage_start) < m.pages as u64 {
                return Ok(m);
            }
        }
        let m = mappings.lookup(va)?;
        self.map_memo = Some(m);
        Ok(m)
    }
}

/// A raw-pointer view of one tier's spec and backing storage.
#[derive(Debug, Clone, Copy)]
struct TierView {
    spec: *const TierSpec,
    base: *mut u8,
    cap: usize,
}

/// A `Copy`, thread-shareable view of the tier array: specs and raw
/// storage pointers, no frame allocators (cores never allocate).
///
/// # Safety
///
/// The view borrows the tiers mutably for `'a`, so no other code can touch
/// tier storage while any copy of the view is live. Concurrent use across
/// cores is governed by the partition contract (module docs): concurrent
/// reads of any byte are fine; bytes written by one core in a phase must
/// not be accessed by another. `bytes`/`bytes_mut` materialise references
/// only over the exact requested range, so disjoint accesses never create
/// aliasing references. Every tier index and byte range is checked in
/// every profile before a pointer is dereferenced: slots past the tier
/// count hold null pointers.
///
/// # Why the `unsafe` stays
///
/// The view exists so [`Machine::run_cores`](crate::Machine::run_cores)
/// can run its simulated cores on real threads. Running them one after
/// another on the calling thread would give bit-identical results (the
/// reduction contract makes them independent of scheduling) and would
/// need no raw pointers, but it is slower: on a 2-vCPU host the
/// `protocol-2core` benchmark workload took 851 and 764 yardsticks with
/// sequential cores against 652 and 641 with threaded ones (10 s runs,
/// seeds 1 and 2, identical simulated results), 19–30% more host time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TiersView<'a> {
    views: [TierView; MAX_TIERS],
    count: usize,
    _marker: PhantomData<&'a mut [Tier]>,
}

// SAFETY: see the struct docs — the underlying storage outlives 'a and all
// cross-thread access is restricted by the partition contract.
unsafe impl Send for TiersView<'_> {}
unsafe impl Sync for TiersView<'_> {}

impl<'a> TiersView<'a> {
    pub(crate) fn new(tiers: &'a mut [Tier]) -> Self {
        assert!(tiers.len() <= MAX_TIERS, "more tiers than the view holds");
        let mut views = [TierView {
            spec: std::ptr::null(),
            base: std::ptr::null_mut(),
            cap: 0,
        }; MAX_TIERS];
        let count = tiers.len();
        for (v, t) in views.iter_mut().zip(tiers.iter_mut()) {
            v.spec = &t.spec;
            v.cap = t.storage.capacity();
            v.base = t.storage.base_ptr();
        }
        TiersView {
            views,
            count,
            _marker: PhantomData,
        }
    }

    /// Number of tiers.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The spec of `tier`.
    #[inline]
    fn spec(&self, tier: TierId) -> &TierSpec {
        self.spec_at(tier.index())
    }

    /// The raw view of the tier at `index`.
    ///
    /// # Panics
    ///
    /// Panics in every profile if `index` is not a tier of this machine:
    /// the slots past the tier count hold null pointers.
    #[inline]
    fn view(&self, index: usize) -> &TierView {
        assert!(index < self.count, "tier index {index} out of range");
        &self.views[index]
    }

    /// The spec of the tier at `index`.
    #[inline]
    fn spec_at(&self, index: usize) -> &TierSpec {
        let spec = self.view(index).spec;
        // SAFETY: the index is a live tier (checked), the pointer was taken
        // from a tier borrowed for 'a, and the spec is never mutated while
        // mapped (tiers are read-mostly shared state).
        unsafe { &*spec }
    }

    /// Borrows `len` bytes of `tier`'s storage starting at `offset`.
    #[inline]
    fn bytes(&self, tier: TierId, offset: usize, len: usize) -> &[u8] {
        let v = self.view(tier.index());
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= v.cap),
            "tier storage slice out of bounds"
        );
        // SAFETY: in bounds (checked), storage outlives 'a, and the
        // partition contract forbids concurrent writes to these bytes.
        unsafe { std::slice::from_raw_parts(v.base.add(offset), len) }
    }

    /// Mutably borrows `len` bytes of `tier`'s storage starting at
    /// `offset`.
    #[allow(clippy::mut_from_ref)] // the view is a shared window over storage owned elsewhere
    #[inline]
    fn bytes_mut(&self, tier: TierId, offset: usize, len: usize) -> &mut [u8] {
        let v = self.view(tier.index());
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= v.cap),
            "tier storage slice out of bounds"
        );
        // SAFETY: in bounds (checked), storage outlives 'a, and the
        // partition contract guarantees no other core touches bytes this
        // core writes during a phase; the reference covers only the
        // requested range, so disjoint ranges never alias.
        unsafe { std::slice::from_raw_parts_mut(v.base.add(offset), len) }
    }
}

/// Rejects a scalar access of `len` bytes at `va` that would cross a page
/// boundary. The page after `va`'s may live in another frame or tier, so
/// the bytes past the boundary would silently land in (or come from)
/// whatever storage follows `va`'s frame. A hard check in every profile,
/// made before any counter or clock moves.
///
/// # Errors
///
/// [`HmsError::InvalidRange`] if the access straddles a page boundary.
#[inline]
pub(crate) fn check_within_page(va: VirtAddr, len: usize) -> Result<()> {
    if va.page_offset() + len > PAGE_SIZE {
        return Err(HmsError::InvalidRange { start: va, len });
    }
    Ok(())
}

/// Runs `f(core_id, handle)` for every forked core in `ctxs`, one scoped
/// OS thread per core, all sharing `tiers`, and returns the results in
/// core order. The caller merges the cores afterwards.
///
/// # Panics
///
/// Panics if any core's closure panics.
pub(crate) fn run_on_threads<R, F>(
    ctxs: &mut [CoreCtx],
    mappings: &MappingTable,
    platform: &Platform,
    tiers: TiersView<'_>,
    f: &F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut CoreHandle<'_>) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs
            .iter_mut()
            .enumerate()
            .map(|(id, core)| {
                scope.spawn(move || {
                    let mut h = CoreHandle::new(core, mappings, platform, tiers);
                    f(id, &mut h)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulated core panicked"))
            .collect()
    })
}

/// One simulated core's access engine: a mutable borrow of that core's
/// [`CoreCtx`] plus shared borrows of the machine's read-mostly state.
///
/// Obtained from [`Machine::run_cores`](crate::Machine::run_cores) (one per
/// core, on its own OS thread) — or implicitly: every access method on
/// [`Machine`](crate::Machine) routes through a handle over the machine's
/// resident core.
#[derive(Debug)]
pub struct CoreHandle<'a> {
    core: &'a mut CoreCtx,
    mappings: &'a MappingTable,
    platform: &'a Platform,
    tiers: TiersView<'a>,
}

impl<'a> CoreHandle<'a> {
    pub(crate) fn new(
        core: &'a mut CoreCtx,
        mappings: &'a MappingTable,
        platform: &'a Platform,
        tiers: TiersView<'a>,
    ) -> Self {
        CoreHandle {
            core,
            mappings,
            platform,
            tiers,
        }
    }

    /// The platform the machine was built from.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// This core's phase-local elapsed simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.core.clock.now()
    }

    /// Performs an accounted access of `len` bytes at `va` and returns the
    /// (tier, storage offset) servicing it. The access must not cross a
    /// page boundary (guaranteed for naturally aligned scalars).
    #[inline]
    fn access(&mut self, va: VirtAddr, len: usize, write: bool) -> Result<(TierId, usize)> {
        check_within_page(va, len)?;
        let mapping = self.core.lookup(self.mappings, va)?;
        self.core.counters.accesses += 1;
        if write {
            self.core.counters.writes += 1;
        } else {
            self.core.counters.reads += 1;
        }

        let mut cost = SimDuration::ZERO;
        if !self
            .core
            .tlb
            .access(mapping.tlb_key(va, self.platform.tlb_coalesce))
        {
            cost += self.platform.cost.walk_cost();
        }
        let (frame, offset) = mapping.translate(va);
        let pa = frame.phys_addr(offset).line_aligned();
        let hit = self.core.llc.access(pa, write).is_hit();
        if hit {
            cost += self.platform.cost.hit_cost();
        } else {
            let spec = self.tiers.spec(frame.tier);
            cost += self.platform.cost.miss_cost(spec, write);
            if !write && self.core.pebs.on_read_miss(va) {
                cost += self.platform.cost.sample_cost();
            }
        }
        if self.core.tracer.is_enabled() {
            let kind = match (write, hit) {
                (false, true) => AccessKind::ReadHit,
                (false, false) => AccessKind::ReadMiss,
                (true, true) => AccessKind::WriteHit,
                (true, false) => AccessKind::WriteMiss,
            };
            self.core.tracer.record(va, kind);
        }
        self.core.clock.advance(cost);
        Ok((frame.tier, frame.byte_offset() + offset))
    }

    /// Reads a little-endian scalar through the full accounted path (see
    /// [`Machine::read`](crate::Machine::read)).
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    #[inline]
    pub fn read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        let (tier, off) = self.access(va, T::SIZE, false)?;
        let bytes = self.tiers.bytes(tier, off, T::SIZE);
        Ok(T::from_le_slice(bytes))
    }

    /// Writes a little-endian scalar through the full accounted path (see
    /// [`Machine::write`](crate::Machine::write)).
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    #[inline]
    pub fn write<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        let (tier, off) = self.access(va, T::SIZE, true)?;
        let bytes = self.tiers.bytes_mut(tier, off, T::SIZE);
        value.write_le_slice(bytes);
        Ok(())
    }

    /// Accounted read-modify-write of one scalar: simulated exactly as a
    /// [`read`](CoreHandle::read) followed by a [`write`](CoreHandle::write)
    /// of the same address, but with one address translation and one
    /// storage round-trip on the host. Returns the *old* value.
    ///
    /// The write half is a guaranteed TLB and LLC hit (the read just
    /// touched both), so all counters, the PEBS stream and the clock end
    /// bit-identical to the two-call sequence. This is the fast path for
    /// scatter updates like `next[u] += share`.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    #[inline]
    pub fn read_modify_write<T: Scalar>(
        &mut self,
        va: VirtAddr,
        f: impl FnOnce(T) -> T,
    ) -> Result<T> {
        check_within_page(va, T::SIZE)?;
        let mapping = self.core.lookup(self.mappings, va)?;
        self.core.counters.accesses += 2;
        self.core.counters.reads += 1;
        self.core.counters.writes += 1;
        let (frame, offset) = mapping.translate(va);
        let pa = frame.phys_addr(offset).line_aligned();

        // Read half: composed exactly as `access(va, _, false)`. The write
        // half's TLB lookup is folded into the run.
        let mut cost = SimDuration::ZERO;
        if !self
            .core
            .tlb
            .access_run(mapping.tlb_key(va, self.platform.tlb_coalesce), 2)
        {
            cost += self.platform.cost.walk_cost();
        }
        let (outcome, slot) = self.core.llc.access_slot(pa, false);
        let hit = outcome.is_hit();
        if hit {
            cost += self.platform.cost.hit_cost();
        } else {
            let spec = self.tiers.spec(frame.tier);
            cost += self.platform.cost.miss_cost(spec, false);
            if self.core.pebs.on_read_miss(va) {
                cost += self.platform.cost.sample_cost();
            }
        }
        self.core.clock.advance(cost);

        // Write half: a guaranteed hit on the just-filled line, so the tag
        // scan is skipped.
        self.core.llc.rehit(slot, true);
        let mut wcost = SimDuration::ZERO;
        wcost += self.platform.cost.hit_cost();
        self.core.clock.advance(wcost);

        if self.core.tracer.is_enabled() {
            self.core.tracer.record(
                va,
                if hit {
                    AccessKind::ReadHit
                } else {
                    AccessKind::ReadMiss
                },
            );
            self.core.tracer.record(va, AccessKind::WriteHit);
        }

        let bytes = self
            .tiers
            .bytes_mut(frame.tier, frame.byte_offset() + offset, T::SIZE);
        let old = T::from_le_slice(bytes);
        f(old).write_le_slice(bytes);
        Ok(old)
    }

    /// Reads a scalar without advancing the clock or touching TLB/cache
    /// (see [`Machine::peek`](crate::Machine::peek)).
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    pub fn peek<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        check_within_page(va, T::SIZE)?;
        let mapping = self.core.lookup(self.mappings, va)?;
        let (frame, offset) = mapping.translate(va);
        let bytes = self
            .tiers
            .bytes(frame.tier, frame.byte_offset() + offset, T::SIZE);
        Ok(T::from_le_slice(bytes))
    }

    /// Writes a scalar without advancing the clock or touching TLB/cache
    /// (see [`Machine::poke`](crate::Machine::poke)).
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    pub fn poke<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        check_within_page(va, T::SIZE)?;
        let mapping = self.core.lookup(self.mappings, va)?;
        let (frame, offset) = mapping.translate(va);
        let bytes = self
            .tiers
            .bytes_mut(frame.tier, frame.byte_offset() + offset, T::SIZE);
        value.write_le_slice(bytes);
        Ok(())
    }

    /// Accounted indexed gather: reads element `indices[k]` of an array of
    /// `elem_count` `T`s based at `base` into `out[k]`, for every `k`.
    ///
    /// Runs on the batched window engine
    /// ([`access_window`](CoreHandle::access_window)), so simulated state
    /// ends **bit-identical** to the equivalent [`read`](CoreHandle::read)
    /// loop, on the error path as well.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any accessed address is unmapped. Elements
    /// before the failing one have been charged exactly as the scalar loop
    /// would have charged them; the failing element has not.
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `out` differ in length, or on an index out of
    /// bounds (`>= elem_count`).
    pub(crate) fn read_gather<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        out: &mut [T],
    ) -> Result<()> {
        assert_eq!(indices.len(), out.len(), "index/output length mismatch");
        self.access_window::<T, OP_READ>(base, elem_count, indices, |k, bytes| {
            out[k] = T::from_le_slice(bytes);
        })
    }

    /// Accounted indexed scatter: writes `values[k]` into element
    /// `indices[k]` of an array of `elem_count` `T`s based at `base`, for
    /// every `k`, in index order. Simulated state ends **bit-identical** to
    /// the equivalent [`write`](CoreHandle::write) loop.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any accessed address is unmapped; partial
    /// state matches the scalar loop.
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `values` differ in length, or on an
    /// out-of-bounds index.
    pub(crate) fn write_scatter<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        values: &[T],
    ) -> Result<()> {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        self.access_window::<T, OP_WRITE>(base, elem_count, indices, |k, bytes| {
            values[k].write_le_slice(bytes);
        })
    }

    /// Accounted indexed read-modify-write window: for every `k` in index
    /// order, replaces element `indices[k]` with `f(k, old)`. Duplicate
    /// indices observe earlier updates from the same window. Simulated state
    /// ends **bit-identical** to the equivalent
    /// [`read_modify_write`](CoreHandle::read_modify_write) loop.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any accessed address is unmapped; partial
    /// state matches the scalar loop.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds index.
    pub(crate) fn gather_update<T: Scalar>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        mut f: impl FnMut(usize, T) -> T,
    ) -> Result<()> {
        self.access_window::<T, OP_RMW>(base, elem_count, indices, |k, bytes| {
            let old = T::from_le_slice(bytes);
            f(k, old).write_le_slice(bytes);
        })
    }

    /// The batched random-access window engine behind
    /// [`read_gather`](CoreHandle::read_gather),
    /// [`write_scatter`](CoreHandle::write_scatter) and
    /// [`gather_update`](CoreHandle::gather_update).
    ///
    /// Processes `indices` **in window order** (never sorted — reordering
    /// would change LLC replacement decisions and the PEBS stream) and
    /// coalesces maximal *consecutive* runs of elements that land on the
    /// same cache line. Because a line sits inside one page, which sits
    /// inside one TLB translation unit, which sits inside one mapping, a
    /// same-line element is a guaranteed TLB hit and a guaranteed LLC hit
    /// in the scalar loop; the engine therefore defers those bumps (counts
    /// per structure) and settles them — via [`Tlb::access_run`] and
    /// [`Cache::rehit_run`] — immediately before the next *real* probe
    /// of that structure, before returning an error, and at window end.
    /// Between settle points no other TLB/LLC operation happens, so the
    /// deferred bumps commute with nothing and every replacement / sampling
    /// decision is made on exactly the state the scalar loop would have
    /// had. The TLB run additionally extends across lines while the
    /// translation key is unchanged (keys are location-unique); key
    /// changes probe with [`Tlb::access_run`] and line changes with
    /// [`Cache::access_slot`], the calls the scalar path makes. Clock,
    /// counters, PEBS and trace records are still charged per element, in
    /// order, with the identical f64 cost composition — so all simulated
    /// state ends bit-identical to the scalar loop.
    ///
    /// `data` is invoked once per element, in order, on the element's
    /// backing storage bytes (after accounting).
    fn access_window<T: Scalar, const OP: u8>(
        &mut self,
        base: VirtAddr,
        elem_count: usize,
        indices: &[u32],
        mut data: impl FnMut(usize, &mut [u8]),
    ) -> Result<()> {
        // Elements are addressed through `&[u32]`, so a vec beyond 2^32
        // elements would silently truncate indices on the billion-edge path;
        // such sweeps must go through the range-based block path
        // (`access_block`) instead.
        assert!(
            elem_count <= u32::MAX as usize + 1,
            "window over {elem_count} elements exceeds u32 index range; \
             use the range-based block path for large sweeps"
        );
        let coalesce = self.platform.tlb_coalesce;
        let walk_cost = self.platform.cost.walk_cost();
        let hit_cost = self.platform.cost.hit_cost();
        let sample_cost = self.platform.cost.sample_cost();
        let write_probe = OP == OP_WRITE;
        // TLB touches per element: the RMW write half folds its lookup into
        // the read's run, exactly like `read_modify_write`.
        let tlb_per_elem = if OP == OP_RMW { 2 } else { 1 };
        // Per-tier miss costs, computed once: `miss_cost` divides by the
        // tier bandwidth, which is too expensive for the per-miss loop. A
        // stack array, not a Vec — small windows are frequent enough that a
        // per-call heap allocation would dominate them.
        let mut tier_miss = [SimDuration::ZERO; MAX_TIERS];
        for (i, slot) in tier_miss.iter_mut().enumerate().take(self.tiers.len()) {
            *slot = self
                .platform
                .cost
                .miss_cost(self.tiers.spec_at(i), write_probe);
        }
        let tracing = self.core.tracer.is_enabled();
        // Guaranteed-hit element cost, composed once exactly as the scalar
        // loop composes it per element (`ZERO + hit_cost`).
        let mut rest_cost = SimDuration::ZERO;
        rest_cost += hit_cost;

        // Current TLB run: deferred guaranteed-hit touches of `run_key`.
        let mut run_key = 0u64;
        let mut run_key_valid = false;
        let mut tlb_pending = 0usize;
        // Current line run: deferred guaranteed-hit touches of `cur_slot`,
        // and where the line's bytes live (tier, storage offset of its
        // first byte).
        let mut cur_vline = 0u64;
        let mut line_valid = false;
        let mut cur_slot = 0usize;
        let mut line_tier = TierId::FAST;
        let mut line_base = 0usize;
        let mut pending_reads = 0u64;
        let mut pending_writes = 0u64;

        for (k, &i) in indices.iter().enumerate() {
            let i = i as usize;
            // Hard check, not debug_assert: in release builds an out-of-range
            // index would silently alias a neighboring element of the same
            // mapping (the window engine trusts `i` for address arithmetic).
            assert!(
                i < elem_count,
                "window index {i} out of bounds ({elem_count})"
            );
            let va = VirtAddr::new(base.raw() + (i * T::SIZE) as u64);
            let vline = va.raw() / LINE_SIZE as u64;

            if line_valid && vline == cur_vline {
                // Hot path: the element continues the current line run. Same
                // line means same page, same translation unit, same mapping,
                // so the scalar loop's TLB access and LLC access are both
                // guaranteed hits — defer their bumps and charge everything
                // else exactly as the scalar loop would.
                match OP {
                    OP_READ => {
                        self.core.counters.accesses += 1;
                        self.core.counters.reads += 1;
                        tlb_pending += 1;
                        pending_reads += 1;
                        if tracing {
                            self.core.tracer.record(va, AccessKind::ReadHit);
                        }
                        self.core.clock.advance(rest_cost);
                    }
                    OP_WRITE => {
                        self.core.counters.accesses += 1;
                        self.core.counters.writes += 1;
                        tlb_pending += 1;
                        pending_writes += 1;
                        if tracing {
                            self.core.tracer.record(va, AccessKind::WriteHit);
                        }
                        self.core.clock.advance(rest_cost);
                    }
                    _ => {
                        self.core.counters.accesses += 2;
                        self.core.counters.reads += 1;
                        self.core.counters.writes += 1;
                        tlb_pending += 2;
                        pending_reads += 1;
                        pending_writes += 1;
                        self.core.clock.advance(rest_cost);
                        self.core.clock.advance(rest_cost);
                        if tracing {
                            self.core.tracer.record(va, AccessKind::ReadHit);
                            self.core.tracer.record(va, AccessKind::WriteHit);
                        }
                    }
                }
                let in_line = va.raw() as usize % LINE_SIZE;
                let bytes = self
                    .tiers
                    .bytes_mut(line_tier, line_base + in_line, T::SIZE);
                data(k, bytes);
                continue;
            }

            // New line: resolve the mapping through the core's memo, in
            // scalar order — lookup precedes the counter charge, so an
            // unmapped element leaves totals exactly where the scalar loop
            // would.
            let mapping = match self.core.lookup(self.mappings, va) {
                Ok(m) => m,
                Err(e) => {
                    // Settle deferred bumps so partial state matches the
                    // scalar loop's at the failing element.
                    if tlb_pending > 0 {
                        self.core.tlb.access_run(run_key, tlb_pending);
                    }
                    if pending_reads + pending_writes > 0 {
                        self.core
                            .llc
                            .rehit_run(cur_slot, pending_reads, pending_writes);
                    }
                    return Err(e);
                }
            };
            match OP {
                OP_READ => {
                    self.core.counters.accesses += 1;
                    self.core.counters.reads += 1;
                }
                OP_WRITE => {
                    self.core.counters.accesses += 1;
                    self.core.counters.writes += 1;
                }
                _ => {
                    self.core.counters.accesses += 2;
                    self.core.counters.reads += 1;
                    self.core.counters.writes += 1;
                }
            }

            // TLB: extend the key run (guaranteed hit on the just-touched
            // entry, no hash lookup) or settle the pending touches and probe.
            let key = mapping.tlb_key(va, coalesce);
            let pay_walk = if run_key_valid && key == run_key {
                tlb_pending += tlb_per_elem;
                false
            } else {
                if tlb_pending > 0 {
                    self.core.tlb.access_run(run_key, tlb_pending);
                    tlb_pending = 0;
                }
                let tlb_hit = self.core.tlb.access_run(key, tlb_per_elem);
                run_key = key;
                run_key_valid = true;
                !tlb_hit
            };

            // LLC: settle the deferred same-line touches, then probe the
            // new line on exactly the state the scalar loop would have had.
            if pending_reads + pending_writes > 0 {
                self.core
                    .llc
                    .rehit_run(cur_slot, pending_reads, pending_writes);
                pending_reads = 0;
                pending_writes = 0;
            }
            let (frame, offset) = mapping.translate(va);
            let pa = frame.phys_addr(offset).line_aligned();
            let (outcome, slot) = self.core.llc.access_slot(pa, write_probe);
            let hit = outcome.is_hit();
            cur_slot = slot;
            cur_vline = vline;
            line_valid = true;
            line_tier = frame.tier;
            line_base = frame.byte_offset() + offset - va.raw() as usize % LINE_SIZE;

            // Cost composition identical to the scalar path.
            let mut cost = SimDuration::ZERO;
            if pay_walk {
                cost += walk_cost;
            }
            if hit {
                cost += hit_cost;
            } else {
                cost += tier_miss[frame.tier.index()];
                if !write_probe && self.core.pebs.on_read_miss(va) {
                    cost += sample_cost;
                }
            }
            self.core.clock.advance(cost);
            match OP {
                OP_READ => {
                    if tracing {
                        self.core.tracer.record(
                            va,
                            if hit {
                                AccessKind::ReadHit
                            } else {
                                AccessKind::ReadMiss
                            },
                        );
                    }
                }
                OP_WRITE => {
                    if tracing {
                        self.core.tracer.record(
                            va,
                            if hit {
                                AccessKind::WriteHit
                            } else {
                                AccessKind::WriteMiss
                            },
                        );
                    }
                }
                _ => {
                    // Write half: a guaranteed rehit of the just-probed
                    // line — deferred like any other same-line touch.
                    pending_writes += 1;
                    self.core.clock.advance(rest_cost);
                    if tracing {
                        self.core.tracer.record(
                            va,
                            if hit {
                                AccessKind::ReadHit
                            } else {
                                AccessKind::ReadMiss
                            },
                        );
                        self.core.tracer.record(va, AccessKind::WriteHit);
                    }
                }
            }
            let bytes = self
                .tiers
                .bytes_mut(frame.tier, frame.byte_offset() + offset, T::SIZE);
            data(k, bytes);
        }

        // Window end: settle whatever is still deferred.
        if tlb_pending > 0 {
            self.core.tlb.access_run(run_key, tlb_pending);
        }
        if pending_reads + pending_writes > 0 {
            self.core
                .llc
                .rehit_run(cur_slot, pending_reads, pending_writes);
        }
        Ok(())
    }

    /// Performs an accounted bulk access over `range`, simulated as
    /// `range.len / elem` consecutive scalar accesses of `elem` bytes each,
    /// and returns the physically contiguous storage segments backing the
    /// range in address order.
    ///
    /// The fast path behind the `TrackedVec` slice APIs: the mapping table
    /// is consulted once per mapping chunk, the TLB once per translation
    /// unit and the LLC once per cache line. Within a sequential run only
    /// the *first* access to a unit or line can miss, so simulated state
    /// still ends **bit-identical** to the per-element
    /// [`read`](CoreHandle::read) / [`write`](CoreHandle::write) loop.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if any byte of `range` is unmapped. Chunks
    /// before the first unmapped page have already been charged, exactly
    /// as the per-element loop would have charged them before erroring.
    ///
    /// # Panics
    ///
    /// Panics if `elem` does not divide [`LINE_SIZE`] or `range` is not
    /// `elem`-aligned.
    pub(crate) fn access_block(
        &mut self,
        range: VirtRange,
        elem: usize,
        write: bool,
    ) -> Result<Vec<BlockSegment>> {
        assert!(
            elem > 0 && LINE_SIZE.is_multiple_of(elem),
            "element size must divide a cache line"
        );
        assert!(
            range.start.raw().is_multiple_of(elem as u64) && range.len.is_multiple_of(elem),
            "bulk range must be element-aligned"
        );
        let mut segments = Vec::new();
        if range.len == 0 {
            return Ok(segments);
        }

        let coalesce = self.platform.tlb_coalesce;
        let walk_cost = self.platform.cost.walk_cost();
        let hit_cost = self.platform.cost.hit_cost();
        let sample_cost = self.platform.cost.sample_cost();
        let tracing = self.core.tracer.is_enabled();
        // Non-first elements of a line run each cost exactly one LLC hit;
        // composed once here, identically to the scalar loop's
        // `ZERO + hit_cost` per element.
        let mut rest_cost = SimDuration::ZERO;
        rest_cost += hit_cost;

        let mut va = range.start;
        let end = range.end();
        while va < end {
            let mapping = self.core.lookup(self.mappings, va)?;
            let chunk_end = mapping.vrange().end().min(end);
            let chunk_len = chunk_end.offset_from(va) as usize;
            let chunk_elems = (chunk_len / elem) as u64;
            self.core.counters.accesses += chunk_elems;
            if write {
                self.core.counters.writes += chunk_elems;
            } else {
                self.core.counters.reads += chunk_elems;
            }

            // Frames are contiguous within a mapping, so both the physical
            // address and the tier-storage offset advance linearly with the
            // virtual address for the rest of the chunk.
            let (frame, offset) = mapping.translate(va);
            let pa_base = frame.phys_addr(offset).raw();
            segments.push(BlockSegment {
                tier: frame.tier,
                offset: frame.byte_offset() + offset,
                len: chunk_len,
            });
            let miss_cost = self
                .platform
                .cost
                .miss_cost(self.tiers.spec(frame.tier), write);

            let mut unit_va = va;
            while unit_va < chunk_end {
                let unit_end = tlb_unit_end(&mapping, unit_va, coalesce).min(chunk_end);
                let unit_elems = unit_end.offset_from(unit_va) as usize / elem;
                let tlb_hit = self
                    .core
                    .tlb
                    .access_run(mapping.tlb_key(unit_va, coalesce), unit_elems);

                let mut line_va = unit_va;
                // Lines advance in lockstep with the virtual address inside
                // a chunk, so the aligned physical address just steps by
                // LINE_SIZE after the first line of the unit.
                let mut pa = PhysAddr::new(pa_base + line_va.offset_from(va)).line_aligned();
                while line_va < unit_end {
                    let line_end = VirtAddr::new(line_va.line_aligned().raw() + LINE_SIZE as u64)
                        .min(unit_end);
                    let count = line_end.offset_from(line_va) as usize / elem;
                    let hit = self.core.llc.access_run(pa, write, count).is_hit();

                    // The first element of the run replicates the scalar
                    // cost composition: only it can pay the walk, the fill
                    // and the PEBS sample.
                    let mut first_cost = SimDuration::ZERO;
                    if line_va == unit_va && !tlb_hit {
                        first_cost += walk_cost;
                    }
                    if hit {
                        first_cost += hit_cost;
                    } else {
                        first_cost += miss_cost;
                        if !write && self.core.pebs.on_read_miss(line_va) {
                            first_cost += sample_cost;
                        }
                    }
                    self.core.clock.advance(first_cost);
                    // The remaining elements are guaranteed hits with a warm
                    // TLB entry: one clock advance each, exactly as the
                    // scalar loop performs them.
                    for _ in 1..count {
                        self.core.clock.advance(rest_cost);
                    }

                    if tracing {
                        let first_kind = match (write, hit) {
                            (false, true) => AccessKind::ReadHit,
                            (false, false) => AccessKind::ReadMiss,
                            (true, true) => AccessKind::WriteHit,
                            (true, false) => AccessKind::WriteMiss,
                        };
                        self.core.tracer.record(line_va, first_kind);
                        let rest_kind = if write {
                            AccessKind::WriteHit
                        } else {
                            AccessKind::ReadHit
                        };
                        for i in 1..count {
                            self.core
                                .tracer
                                .record(line_va.add((i * elem) as u64), rest_kind);
                        }
                    }
                    line_va = line_end;
                    pa = PhysAddr::new(pa.raw() + LINE_SIZE as u64);
                }
                unit_va = unit_end;
            }
            va = chunk_end;
        }
        Ok(segments)
    }

    /// Borrows `len` bytes of `tier`'s backing storage. Bulk data path
    /// only: accounting must already have happened via
    /// [`access_block`](CoreHandle::access_block).
    pub(crate) fn storage_slice(&self, tier: TierId, offset: usize, len: usize) -> &[u8] {
        self.tiers.bytes(tier, offset, len)
    }

    /// Mutably borrows `len` bytes of `tier`'s backing storage. Bulk data
    /// path only: accounting must already have happened via
    /// [`access_block`](CoreHandle::access_block).
    pub(crate) fn storage_slice_mut(
        &mut self,
        tier: TierId,
        offset: usize,
        len: usize,
    ) -> &mut [u8] {
        self.tiers.bytes_mut(tier, offset, len)
    }
}

/// End of the TLB translation unit containing `va` under `mapping`: the
/// address at which [`Mapping::tlb_key`] first changes. Huge mappings share
/// one key per huge unit; base pages in a fully covered coalescing group
/// share one key per group; everything else is per-page. Mirrors the key
/// logic exactly so `access_block` batches precisely the accesses the
/// per-element loop would send to the same TLB entry.
fn tlb_unit_end(mapping: &Mapping, va: VirtAddr, coalesce: usize) -> VirtAddr {
    let vpage = va.page_index();
    let end_page = match mapping.kind {
        PageKind::Huge2M => (vpage / HUGE_PAGE_FRAMES as u64 + 1) * HUGE_PAGE_FRAMES as u64,
        PageKind::Base4K => {
            if coalesce > 1 {
                let group = vpage / coalesce as u64;
                let group_start = group * coalesce as u64;
                let group_end = group_start + coalesce as u64;
                if mapping.vpage_start <= group_start
                    && group_end <= mapping.vpage_start + mapping.pages as u64
                {
                    group_end
                } else {
                    vpage + 1
                }
            } else {
                vpage + 1
            }
        }
    };
    VirtAddr::new(end_page << PAGE_SHIFT)
}

/// The accounted memory-access surface shared by
/// [`Machine`](crate::Machine) (the resident single core) and
/// [`CoreHandle`] (one forked core of a sharded phase). Kernel-side code —
/// `TrackedVec`, `MemCtx`, the graph kernels — is generic over this trait,
/// so the same kernel body runs unchanged on the scalar engine and inside
/// a core partition.
///
/// The surface is five scalar calls plus [`with_core`](MemPort::with_core).
/// A scalar access is too small to pay for a [`CoreHandle`] per element;
/// the batched block and window engines run on one handle per call,
/// obtained through `with_core`.
pub trait MemPort {
    /// Reads a little-endian scalar through the full accounted path.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    fn read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T>;

    /// Writes a little-endian scalar through the full accounted path.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    fn write<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()>;

    /// Accounted read-modify-write of one scalar, returning the old value.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    fn read_modify_write<T: Scalar>(&mut self, va: VirtAddr, f: impl FnOnce(T) -> T) -> Result<T>;

    /// Unaccounted scalar read (setup/verification only).
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    fn peek<T: Scalar>(&mut self, va: VirtAddr) -> Result<T>;

    /// Unaccounted scalar write (setup/verification only).
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    fn poke<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()>;

    /// Runs `f` on this port's core access engine: the handle itself on a
    /// [`CoreHandle`], a handle over the resident core on a
    /// [`Machine`](crate::Machine).
    fn with_core<R>(&mut self, f: impl FnOnce(&mut CoreHandle<'_>) -> R) -> R;
}

impl MemPort for CoreHandle<'_> {
    fn read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        CoreHandle::read(self, va)
    }

    fn write<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        CoreHandle::write(self, va, value)
    }

    fn read_modify_write<T: Scalar>(&mut self, va: VirtAddr, f: impl FnOnce(T) -> T) -> Result<T> {
        CoreHandle::read_modify_write(self, va, f)
    }

    fn peek<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        CoreHandle::peek(self, va)
    }

    fn poke<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        CoreHandle::poke(self, va, value)
    }

    fn with_core<R>(&mut self, f: impl FnOnce(&mut CoreHandle<'_>) -> R) -> R {
        f(self)
    }
}

/// Per-owner routing buckets for owner-routed fan-out phases.
///
/// A sharded expansion phase discovers work items (frontier vertices,
/// relaxation candidates, rank contributions) that belong to other cores'
/// partitions. Each core pushes every item it discovers into its own
/// `OwnerQueues`, keyed by the owning core; items land in **emission
/// order**, which for a core streaming its owned range sequentially is the
/// global traversal order restricted to that range.
///
/// [`merge_owner_queues`] then folds the per-core queues into one queue
/// per owner, concatenating in `(core, emission)` order. Because each
/// core's emissions are a deterministic function of its owned input slice,
/// the merged per-owner queues are deterministic too — the receiving
/// phase can replay them single-writer without any cross-core ordering
/// hazard.
#[derive(Debug)]
pub struct OwnerQueues<T> {
    queues: Vec<Vec<T>>,
}

impl<T> OwnerQueues<T> {
    /// Creates empty queues for `owners` receiving cores.
    pub fn new(owners: usize) -> Self {
        Self {
            queues: (0..owners).map(|_| Vec::new()).collect(),
        }
    }

    /// Appends `item` to the queue bound for `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is out of range — a misrouted item would be
    /// replayed by the wrong core and silently corrupt the merge.
    pub fn push(&mut self, owner: usize, item: T) {
        self.queues[owner].push(item);
    }

    /// The number of receiving cores.
    pub fn owners(&self) -> usize {
        self.queues.len()
    }

    /// Total items across all queues.
    pub fn len(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Whether no items have been routed.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(Vec::is_empty)
    }

    /// Consumes the queues, yielding one `Vec` per owner.
    pub fn into_queues(self) -> Vec<Vec<T>> {
        self.queues
    }
}

/// Merges per-core [`OwnerQueues`] into one queue per owner, folding in
/// `(core, emission)` order: owner `o` receives core 0's items for `o`
/// first (in the order core 0 emitted them), then core 1's, and so on.
///
/// The order is a pure function of each core's emissions, so as long as
/// the emitting phase partitions its input deterministically the merged
/// queues are identical run to run.
///
/// # Panics
///
/// Panics if the per-core queue sets disagree on the owner count.
pub fn merge_owner_queues<T>(per_core: Vec<OwnerQueues<T>>) -> Vec<Vec<T>> {
    let owners = per_core.first().map_or(0, OwnerQueues::owners);
    let mut merged: Vec<Vec<T>> = (0..owners).map(|_| Vec::new()).collect();
    for core_queues in per_core {
        assert_eq!(
            core_queues.owners(),
            owners,
            "per-core queue sets must agree on the owner count"
        );
        for (owner, mut queue) in core_queues.into_queues().into_iter().enumerate() {
            merged[owner].append(&mut queue);
        }
    }
    merged
}

#[cfg(test)]
mod owner_queue_tests {
    use super::*;

    #[test]
    fn merge_folds_in_core_then_emission_order() {
        let mut core0 = OwnerQueues::new(2);
        core0.push(0, "c0a");
        core0.push(1, "c0b");
        core0.push(0, "c0c");
        let mut core1 = OwnerQueues::new(2);
        core1.push(1, "c1a");
        core1.push(0, "c1b");
        let merged = merge_owner_queues(vec![core0, core1]);
        assert_eq!(merged[0], vec!["c0a", "c0c", "c1b"]);
        assert_eq!(merged[1], vec!["c0b", "c1a"]);
    }

    #[test]
    fn merge_of_empty_queues_yields_empty_owners() {
        let queues: Vec<OwnerQueues<u32>> = vec![OwnerQueues::new(3), OwnerQueues::new(3)];
        assert!(queues.iter().all(OwnerQueues::is_empty));
        let merged = merge_owner_queues(queues);
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().all(Vec::is_empty));
    }

    #[test]
    fn len_counts_across_owners() {
        let mut q = OwnerQueues::new(4);
        assert!(q.is_empty());
        q.push(0, 1u32);
        q.push(3, 2);
        q.push(3, 3);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic]
    fn push_to_unknown_owner_panics() {
        let mut q = OwnerQueues::new(2);
        q.push(2, 0u32);
    }

    #[test]
    #[should_panic(expected = "owner count")]
    fn merge_rejects_mismatched_owner_counts() {
        let _ = merge_owner_queues(vec![OwnerQueues::<u32>::new(2), OwnerQueues::new(3)]);
    }
}

#[cfg(test)]
mod tiers_view_tests {
    use super::*;

    /// Slots past the tier count hold null pointers, so naming a tier the
    /// machine does not have must panic before any dereference, in every
    /// profile (also run under `--release` by ci.sh). A zero-length range
    /// passes the capacity check, so only the tier-index check stops it.
    #[test]
    #[should_panic(expected = "tier index 2 out of range")]
    fn tiers_view_rejects_tiers_past_the_count() {
        let mut tiers: Vec<Tier> = Platform::testing()
            .tiers
            .into_iter()
            .map(Tier::new)
            .collect();
        let view = TiersView::new(&mut tiers);
        assert_eq!(view.len(), 2);
        let _ = view.bytes(TierId::new(2), 0, 0);
    }
}
