//! The simulated heterogeneous-memory machine.
//!
//! [`Machine`] is the single entry point applications use: allocate regions
//! with a [`Placement`] policy, read and write scalars through the full
//! virtual-memory + TLB + LLC + cost-model path, and migrate regions between
//! tiers. Mutable access state (clock, counters, PEBS buffer) lives in the
//! machine's resident [`CoreCtx`]; the access engine itself lives in
//! [`shard`](crate::shard) and can also run one instance per simulated core
//! ([`Machine::run_cores`]).

use std::collections::BTreeMap;

use crate::addr::{Frame, VirtAddr, VirtRange, HUGE_PAGE_FRAMES, PAGE_SHIFT, PAGE_SIZE};
use crate::cost::SimDuration;
use crate::error::{HmsError, Result};
use crate::fault::{FaultPlan, FaultSite};
use crate::frame::FrameRun;
use crate::mapping::{huge_eligible, Mapping, MappingTable, PageKind};
use crate::pebs::{Pebs, SampleRecord};
use crate::platform::Platform;
use crate::shard::{
    check_within_page, run_on_threads, CoreCtx, CoreHandle, MemPort, TiersView, MAX_TIERS,
};
use crate::stats::MachineStats;
use crate::tier::{Tier, TierId};
use crate::trace::{TraceRecord, Tracer};

/// Where an allocation's physical frames should come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All frames on the hottest tier (`tiers[0]`); fails if it does not
    /// fit.
    Fast,
    /// All frames on the coldest tier (the last one); fails if it does not
    /// fit.
    Slow,
    /// All frames on the given tier; fails if it does not fit. The N-tier
    /// generalization of [`Placement::Fast`]/[`Placement::Slow`].
    Tier(TierId),
    /// Fill the given tier first, spill the remainder to the other tiers
    /// in tier order (hottest first), the coldest tier absorbing whatever
    /// is left. This models `numactl --preferred` (the paper's `MCDRAM-p`
    /// reference).
    Preferred(TierId),
}

/// Bookkeeping for one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationInfo {
    /// The allocated virtual range (byte-exact, as requested).
    pub range: VirtRange,
    /// Pages reserved for the allocation (rounded up).
    pub pages: usize,
    /// Owner tag stamped at allocation time (the ambient
    /// [`Machine::set_alloc_tag`] value; a multi-tenant scheduler sets one
    /// tag per tenant so residency accounting never rescans the world).
    pub tag: u32,
    /// Cached bytes of `range` resident per tier (indexed by
    /// [`TierId::index`]; entries past the machine's tier count stay zero),
    /// maintained incrementally on every map, remap and free, and checked
    /// against a full mapping rescan by [`Machine::audit`] (invariant 8).
    /// Always byte-exact: equal to [`Machine::resident_bytes`] over
    /// `range`.
    pub resident: [usize; MAX_TIERS],
}

/// Result of a migration operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationReport {
    /// Bytes moved between tiers.
    pub bytes: usize,
    /// 4 KiB pages moved.
    pub pages: usize,
    /// Simulated time the migration took.
    pub time: SimDuration,
    /// Mappings present for the moved range afterwards (1 per huge unit for
    /// a remap, 1 per page for an `mbind` splinter).
    pub mappings_after: usize,
}

/// The simulated machine. See the [crate docs](crate) for an overview.
///
/// Simulated state is split in two: **shared read-mostly state** (platform,
/// tiers, mapping table, allocation registry) lives directly on the
/// machine, while everything the access path mutates lives in one resident
/// [`CoreCtx`]. Every access method below routes through a [`CoreHandle`]
/// over that resident core, making the scalar engine the n=1 special case
/// of the sharded engine ([`Machine::run_cores`]).
#[derive(Debug)]
pub struct Machine {
    platform: Platform,
    tiers: Vec<Tier>,
    mappings: MappingTable,
    allocations: BTreeMap<u64, AllocationInfo>,
    next_vaddr: u64,
    core: CoreCtx,
    /// Installed fault schedule, consulted at every [`FaultSite`] crossing.
    fault: Option<FaultPlan>,
    /// Staging frame runs handed out by [`Machine::alloc_frames`] and not
    /// yet released — the auditor's account of legitimate unmapped usage.
    staged_runs: Vec<(TierId, FrameRun)>,
    /// Counter snapshot from the previous [`Machine::audit`], for the
    /// monotonicity check.
    last_audit_stats: Option<MachineStats>,
    /// Tag stamped onto new allocations (see [`Machine::set_alloc_tag`]).
    alloc_tag: u32,
    /// Per-tag aggregate of the per-allocation residency caches, indexed
    /// `[tag][TierId::index]` — the O(1) answer to "how many bytes does
    /// tenant `tag` have on each tier right now".
    tag_resident: BTreeMap<u32, [usize; MAX_TIERS]>,
}

impl Machine {
    /// Builds a machine from a platform description.
    ///
    /// # Panics
    ///
    /// Panics if the platform has no tiers, more than [`MAX_TIERS`], or a
    /// link-bandwidth matrix whose dimensions do not match the tier count.
    pub fn new(platform: Platform) -> Self {
        assert!(
            !platform.tiers.is_empty() && platform.tiers.len() <= MAX_TIERS,
            "platform must have 1..={MAX_TIERS} tiers"
        );
        assert!(
            platform.link_bw.len() == platform.tiers.len()
                && platform
                    .link_bw
                    .iter()
                    .all(|r| r.len() == platform.tiers.len()),
            "link_bw matrix must be tier-count square"
        );
        let tiers: Vec<Tier> = platform.tiers.iter().cloned().map(Tier::new).collect();
        let core = CoreCtx::resident(&platform, 0xA7_3E3, 1 << 24);
        Machine {
            core,
            mappings: MappingTable::new(),
            allocations: BTreeMap::new(),
            // Arbitrary non-zero base, 2 MiB aligned.
            next_vaddr: 0x4000_0000,
            tiers,
            platform,
            fault: None,
            staged_runs: Vec::new(),
            last_audit_stats: None,
            alloc_tag: 0,
            tag_resident: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Allocation tags and the incremental residency cache
    // ------------------------------------------------------------------

    /// Sets the owner tag stamped onto subsequent allocations. Ambient
    /// state: a multi-tenant scheduler sets the tenant's tag before each
    /// quantum so every allocation the tenant makes is attributed to it.
    /// Defaults to 0 (single-tenant machines never need to touch it).
    pub fn set_alloc_tag(&mut self, tag: u32) {
        self.alloc_tag = tag;
    }

    /// The tag currently stamped onto new allocations.
    pub fn alloc_tag(&self) -> u32 {
        self.alloc_tag
    }

    /// Bytes resident on `tier` across all live allocations stamped with
    /// `tag`, answered from the incremental residency cache — O(log n),
    /// no mapping rescan.
    pub fn resident_bytes_by_tag(&self, tag: u32, tier: TierId) -> usize {
        self.tag_resident.get(&tag).map_or(0, |r| r[tier.index()])
    }

    /// Total live allocated bytes stamped with `tag` (both tiers).
    pub fn tagged_bytes(&self, tag: u32) -> usize {
        self.tag_resident.get(&tag).map_or(0, |r| r.iter().sum())
    }

    /// Cached bytes of the allocation starting at `start` resident on
    /// `tier`. Byte-exact: equal to [`Machine::resident_bytes`] over the
    /// allocation's range, without the per-call mapping rescan. `None` if
    /// no allocation starts there.
    pub fn allocation_resident(&self, start: VirtAddr, tier: TierId) -> Option<usize> {
        self.allocations
            .get(&start.raw())
            .map(|info| info.resident[tier.index()])
    }

    /// Credits the residency cache for a mapping covering `vrange` on
    /// `tier` (clipped to the owning allocation's byte-exact range).
    fn note_mapped(&mut self, vrange: VirtRange, tier: TierId) {
        self.residency_delta(vrange, tier, true);
    }

    /// Debits the residency cache for a mapping covering `vrange` on
    /// `tier`.
    fn note_unmapped(&mut self, vrange: VirtRange, tier: TierId) {
        self.residency_delta(vrange, tier, false);
    }

    fn residency_delta(&mut self, vrange: VirtRange, tier: TierId, add: bool) {
        let Some((&start, info)) = self.allocations.range(..=vrange.start.raw()).next_back() else {
            return;
        };
        let Some(clip) = vrange.intersect(info.range) else {
            return;
        };
        let (tag, len, ti) = (info.tag, clip.len, tier.index());
        let entry = self.allocations.get_mut(&start).expect("entry just found");
        let agg = self.tag_resident.entry(tag).or_insert([0; MAX_TIERS]);
        if add {
            entry.resident[ti] += len;
            agg[ti] += len;
        } else {
            entry.resident[ti] -= len;
            agg[ti] -= len;
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault plan (replacing any present one), or clears it with
    /// `None`. See [`FaultPlan`] for the schedule semantics.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Removes and returns the installed fault plan, leaving the machine
    /// fault-free.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The installed fault plan, for inspecting consult counters and the
    /// injected-fault log.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Masks fault injection (no-op without a plan). Recovery code runs
    /// under suspension so a rollback cannot itself be faulted; pair with
    /// [`Machine::resume_faults`].
    pub fn suspend_faults(&mut self) {
        if let Some(plan) = &mut self.fault {
            plan.suspend();
        }
    }

    /// Re-enables fault injection after [`Machine::suspend_faults`].
    pub fn resume_faults(&mut self) {
        if let Some(plan) = &mut self.fault {
            plan.resume();
        }
    }

    /// Consults the installed plan (if any) at `site`.
    pub(crate) fn fault_fires(&mut self, site: FaultSite) -> bool {
        self.fault.as_mut().is_some_and(|p| p.should_fail(site))
    }

    /// The platform this machine was built from.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current simulated time.
    pub fn now(&self) -> SimDuration {
        self.core.clock.now()
    }

    /// Advances the simulated clock by `d` (used by migration engines and
    /// tests that model off-path work).
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.core.clock.advance(d);
    }

    /// A [`CoreHandle`] over the machine's resident core. All scalar access
    /// methods below delegate here.
    fn core_handle(&mut self) -> CoreHandle<'_> {
        CoreHandle::new(
            &mut self.core,
            &self.mappings,
            &self.platform,
            TiersView::new(&mut self.tiers),
        )
    }

    // ------------------------------------------------------------------
    // Sharded execution
    // ------------------------------------------------------------------

    /// Forks `n` per-core contexts off the resident core: cold TLB and LLC,
    /// clock at zero, independent deterministic PEBS jitter streams, empty
    /// trace rings. [`Machine::run_cores`] pairs it with
    /// [`Machine::join_cores`] around the per-core threads.
    fn fork_cores(&mut self, n: usize) -> Vec<CoreCtx> {
        assert!(n > 0, "core count must be positive");
        (0..n)
            .map(|id| self.core.fork(&self.platform, id))
            .collect()
    }

    /// Merges forked cores back into the resident core under the
    /// deterministic reduction contract (see the [`shard`](crate::shard)
    /// module docs): in **core order**, access counters and TLB/LLC totals
    /// are summed and PEBS/trace streams are concatenated; then the machine
    /// clock advances by the maximum per-core elapsed time plus one
    /// [`barrier_cost`](crate::cost::CostModel::barrier_cost) over `n`
    /// cores.
    fn join_cores(&mut self, cores: Vec<CoreCtx>) {
        let n = cores.len();
        assert!(n > 0, "joining zero cores");
        let mut max_elapsed = SimDuration::ZERO;
        for c in cores {
            self.core.counters.accesses += c.counters.accesses;
            self.core.counters.reads += c.counters.reads;
            self.core.counters.writes += c.counters.writes;
            // Internal invariant: `CoreHandle` has no migration entry point,
            // so a forked core's migration counter cannot move.
            debug_assert_eq!(c.counters.bytes_migrated, 0, "cores cannot migrate");
            self.core.tlb.absorb_counters(&c.tlb);
            self.core.llc.absorb_counters(&c.llc);
            self.core.pebs.absorb(c.pebs);
            self.core.tracer.absorb(c.tracer);
            if c.clock.now() > max_elapsed {
                max_elapsed = c.clock.now();
            }
        }
        self.core.clock.advance(max_elapsed);
        self.core.clock.advance(self.platform.cost.barrier_cost(n));
    }

    /// Runs one simulation phase on `cores` simulated cores.
    ///
    /// `f(core_id, handle)` is invoked once per core — on the caller's
    /// thread for `cores == 1`, on one scoped OS thread per core otherwise
    /// (see [`shard`](crate::shard)) — and may drive any partition of
    /// the workload through the handle's accounted access methods. Results
    /// are returned in core order and per-core state is merged under the
    /// deterministic reduction contract (see [`shard`](crate::shard)).
    ///
    /// With `cores == 1` the closure runs against the machine's resident
    /// core and no fork, merge or barrier happens at all: stats, clock,
    /// PEBS stream and traces end bit-identical to calling the machine's
    /// scalar access methods directly.
    ///
    /// Callers must respect the partition contract (see the
    /// [`shard`](crate::shard) module docs): bytes written by one core
    /// during the phase must not be accessed by any other core.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or any core's closure panics.
    pub fn run_cores<R, F>(&mut self, cores: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut CoreHandle<'_>) -> R + Sync,
    {
        assert!(cores > 0, "core count must be positive");
        if cores == 1 {
            let mut h = self.core_handle();
            return vec![f(0, &mut h)];
        }
        let mut ctxs = self.fork_cores(cores);
        let results = run_on_threads(
            &mut ctxs,
            &self.mappings,
            &self.platform,
            TiersView::new(&mut self.tiers),
            &f,
        );
        self.join_cores(ctxs);
        results
    }

    /// Free bytes remaining on `tier`.
    pub fn free_bytes(&self, tier: TierId) -> usize {
        self.tiers[tier.index()].frames.free_frames() * PAGE_SIZE
    }

    /// Capacity in bytes of `tier`.
    pub fn capacity(&self, tier: TierId) -> usize {
        self.tiers[tier.index()].spec.capacity
    }

    /// Number of memory tiers on this machine.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The id of the coldest (last) tier.
    pub fn coldest_tier(&self) -> TierId {
        TierId::new(self.tiers.len() - 1)
    }

    /// Bytes used (allocated frames) on every tier, hottest first.
    pub fn bytes_used_by_tier(&self) -> Vec<u64> {
        self.tiers
            .iter()
            .map(|t| (t.frames.used_frames() * PAGE_SIZE) as u64)
            .collect()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `bytes` with the given placement policy and returns the
    /// virtual range. The range start is 2 MiB aligned.
    ///
    /// # Errors
    ///
    /// [`HmsError::ZeroSizedAllocation`] for `bytes == 0`;
    /// [`HmsError::OutOfMemory`] when the policy cannot be satisfied.
    pub fn alloc(&mut self, bytes: usize, placement: Placement) -> Result<VirtRange> {
        if bytes == 0 {
            return Err(HmsError::ZeroSizedAllocation);
        }
        let pages = bytes.div_ceil(PAGE_SIZE);
        let vstart = self.next_vaddr;
        // Internal invariant: `next_vaddr` starts 2 MiB aligned and only
        // ever advances by whole 2 MiB units (see the bump below).
        debug_assert_eq!(vstart % (HUGE_PAGE_FRAMES << PAGE_SHIFT) as u64, 0);

        let plan: Vec<(TierId, usize)> = match placement {
            Placement::Fast => vec![(TierId::FAST, pages)],
            Placement::Slow => vec![(self.coldest_tier(), pages)],
            Placement::Tier(t) => {
                if t.index() >= self.tiers.len() {
                    return Err(HmsError::UnknownTier(t));
                }
                vec![(t, pages)]
            }
            Placement::Preferred(t) => {
                if t.index() >= self.tiers.len() {
                    return Err(HmsError::UnknownTier(t));
                }
                let mut plan = Vec::new();
                let mut remaining = pages;
                let fit = self.tiers[t.index()].frames.free_frames().min(remaining);
                plan.push((t, fit));
                remaining -= fit;
                // Spill across the other tiers in tier order; the last one
                // takes whatever is left so a genuine overflow surfaces as
                // its allocation error.
                let spill: Vec<TierId> = (0..self.tiers.len())
                    .map(TierId::new)
                    .filter(|&s| s != t)
                    .collect();
                for (k, &s) in spill.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    let take = if k + 1 == spill.len() {
                        remaining
                    } else {
                        self.tiers[s.index()].frames.free_frames().min(remaining)
                    };
                    if take > 0 {
                        plan.push((s, take));
                        remaining -= take;
                    }
                }
                plan
            }
        };

        let mut created: Vec<Mapping> = Vec::new();
        let mut vpage = vstart >> PAGE_SHIFT;
        for (tier, tier_pages) in plan {
            if tier_pages == 0 {
                continue;
            }
            match self.map_pages(tier, vpage, tier_pages, &mut created) {
                Ok(()) => vpage += tier_pages as u64,
                Err(e) => {
                    // Roll back everything created so far.
                    for m in created {
                        self.unmap_one(&m);
                    }
                    return Err(e);
                }
            }
        }

        let range = VirtRange::new(VirtAddr::new(vstart), bytes);
        // The allocation entry goes in first so the residency cache can
        // attribute each created mapping to it.
        self.allocations.insert(
            vstart,
            AllocationInfo {
                range,
                pages,
                tag: self.alloc_tag,
                resident: [0; MAX_TIERS],
            },
        );
        for m in created {
            self.note_mapped(m.vrange(), m.tier);
            self.mappings.insert(m);
        }
        // Leave a 2 MiB guard gap between allocations.
        self.next_vaddr = vstart
            + ((pages as u64).next_multiple_of(HUGE_PAGE_FRAMES as u64) << PAGE_SHIFT)
            + (HUGE_PAGE_FRAMES << PAGE_SHIFT) as u64;
        Ok(range)
    }

    /// Maps `pages` pages starting at `vpage` onto frames of `tier`,
    /// pushing created mappings into `out` (not yet inserted).
    fn map_pages(
        &mut self,
        tier: TierId,
        mut vpage: u64,
        mut pages: usize,
        out: &mut Vec<Mapping>,
    ) -> Result<()> {
        if self.fault_fires(FaultSite::FrameAlloc) {
            return Err(self.oom_error(tier, pages * PAGE_SIZE));
        }
        let huge_ok = self.platform.huge_pages;
        while pages > 0 {
            // Walk up to the next 2 MiB boundary with base pages so the
            // remainder becomes huge-eligible (remapped regions start at
            // arbitrary page offsets; real THP re-forms huge pages on the
            // aligned middle the same way).
            if huge_ok && pages >= HUGE_PAGE_FRAMES {
                let misalign = (vpage % HUGE_PAGE_FRAMES as u64) as usize;
                if misalign != 0 {
                    let head = HUGE_PAGE_FRAMES - misalign;
                    if pages - head >= HUGE_PAGE_FRAMES {
                        let run = self
                            .try_alloc_base_run(tier, head)
                            .ok_or_else(|| self.oom_error(tier, head * PAGE_SIZE))?;
                        out.push(Mapping {
                            vpage_start: vpage,
                            pages: run.count,
                            tier,
                            frame_start: run.start,
                            kind: PageKind::Base4K,
                        });
                        vpage += run.count as u64;
                        pages -= run.count as usize;
                        continue;
                    }
                }
            }
            if huge_ok && huge_eligible(vpage, pages) {
                let units = pages / HUGE_PAGE_FRAMES;
                // Grab as many contiguous aligned huge units as possible in
                // one mapping; fall back unit-by-unit, then to base pages.
                if let Some(run) = self.try_alloc_huge_run(tier, units) {
                    let mapped_pages = run.count as usize;
                    out.push(Mapping {
                        vpage_start: vpage,
                        pages: run.count,
                        tier,
                        frame_start: run.start,
                        kind: PageKind::Huge2M,
                    });
                    vpage += mapped_pages as u64;
                    pages -= mapped_pages;
                    continue;
                }
            }
            // Base mapping: largest contiguous run we can get, else single
            // pages.
            let want = pages.min(HUGE_PAGE_FRAMES);
            let run = self
                .try_alloc_base_run(tier, want)
                .ok_or_else(|| self.oom_error(tier, pages * PAGE_SIZE))?;
            out.push(Mapping {
                vpage_start: vpage,
                pages: run.count,
                tier,
                frame_start: run.start,
                kind: PageKind::Base4K,
            });
            vpage += run.count as u64;
            pages -= run.count as usize;
        }
        Ok(())
    }

    /// Tries to allocate `units` aligned huge units as one run, halving on
    /// failure; returns the largest run obtained (a multiple of 512 frames).
    fn try_alloc_huge_run(&mut self, tier: TierId, units: usize) -> Option<FrameRun> {
        let frames = &mut self.tiers[tier.index()].frames;
        let mut n = units;
        while n > 0 {
            if let Some(run) = frames.alloc_run_aligned(n * HUGE_PAGE_FRAMES, HUGE_PAGE_FRAMES) {
                return Some(run);
            }
            n /= 2;
        }
        None
    }

    /// Tries to allocate up to `want` contiguous base frames, halving on
    /// failure down to a single frame.
    fn try_alloc_base_run(&mut self, tier: TierId, want: usize) -> Option<FrameRun> {
        let frames = &mut self.tiers[tier.index()].frames;
        let mut n = want;
        while n > 0 {
            if let Some(run) = frames.alloc_run(n) {
                return Some(run);
            }
            n /= 2;
        }
        None
    }

    fn oom_error(&self, tier: TierId, requested: usize) -> HmsError {
        let tier_name = self.platform.tier_name(tier);
        if self.tiers[tier.index()].frames.free_frames() * PAGE_SIZE >= requested {
            HmsError::Fragmented {
                tier,
                tier_name,
                frames: requested / PAGE_SIZE,
            }
        } else {
            HmsError::OutOfMemory {
                tier,
                tier_name,
                requested,
            }
        }
    }

    fn unmap_one(&mut self, m: &Mapping) {
        let run = FrameRun::new(m.frame_start, m.pages);
        self.tiers[m.tier.index()].frames.free_run(run);
        self.invalidate_llc_frames(m.tier, run);
    }

    /// Back-invalidates every LLC line caching bytes of a freed frame run,
    /// so no resident line ever references a frame that may be handed out
    /// again. Counters are unaffected; the vacated ways become preferred
    /// eviction victims.
    fn invalidate_llc_frames(&mut self, tier: TierId, run: FrameRun) {
        let lo = Frame::new(tier, run.start).phys_addr(0).raw();
        let hi = lo + run.bytes() as u64;
        let first = self.core.llc.line_id_of(lo);
        let last = self.core.llc.line_id_of(hi - 1);
        self.core
            .llc
            .invalidate_where(|line| (first..=last).contains(&line));
    }

    /// Frees the allocation starting at `range.start`.
    ///
    /// # Errors
    ///
    /// [`HmsError::UnknownAllocation`] if no allocation starts there.
    pub fn free(&mut self, range: VirtRange) -> Result<()> {
        let info = self
            .allocations
            .remove(&range.start.raw())
            .ok_or(HmsError::UnknownAllocation(range.start))?;
        let full = VirtRange::new(info.range.start, info.pages * PAGE_SIZE);
        let taken = self.mappings.take_overlapping(full);
        for m in &taken {
            // The allocation entry is already gone; debit the per-tag
            // aggregate directly (the per-allocation cache died with it).
            if let Some(clip) = m.vrange().intersect(info.range) {
                let agg = self.tag_resident.entry(info.tag).or_insert([0; MAX_TIERS]);
                agg[m.tier.index()] -= clip.len;
            }
            self.unmap_one(m);
        }
        self.invalidate_tlb_range(full);
        self.core.map_memo = None;
        Ok(())
    }

    /// The allocation registry entry starting at `start`, if any.
    pub fn allocation(&self, start: VirtAddr) -> Option<AllocationInfo> {
        self.allocations.get(&start.raw()).copied()
    }

    /// All live allocations in address order.
    pub fn allocations(&self) -> impl Iterator<Item = &AllocationInfo> {
        self.allocations.values()
    }

    // ------------------------------------------------------------------
    // Accounted access path (delegates to the resident core's engine in
    // [`shard`](crate::shard))
    // ------------------------------------------------------------------

    /// Reads a little-endian scalar through the full accounted path.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    #[inline]
    pub fn read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        self.core_handle().read(va)
    }

    /// Writes a little-endian scalar through the full accounted path.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    #[inline]
    pub fn write<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        self.core_handle().write(va, value)
    }

    /// Accounted read-modify-write of one scalar: simulated exactly as a
    /// [`read`](Machine::read) followed by a [`write`](Machine::write) of
    /// the same address, but with one address translation and one storage
    /// round-trip on the host. Returns the *old* value.
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
        self.core_handle().read_modify_write(va, f)
    }

    // ------------------------------------------------------------------
    // Unaccounted access (setup / verification)
    // ------------------------------------------------------------------

    /// Reads a scalar without advancing the clock or touching TLB/cache.
    /// Intended for test assertions and bulk initialisation.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    pub fn peek<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        check_within_page(va, T::SIZE)?;
        let mapping = self.core.lookup(&self.mappings, va)?;
        let (frame, offset) = mapping.translate(va);
        let bytes = self.tiers[frame.tier.index()]
            .storage
            .slice(frame.byte_offset() + offset, T::SIZE);
        Ok(T::from_le_slice(bytes))
    }

    /// Writes a scalar without advancing the clock or touching TLB/cache.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    /// [`HmsError::InvalidRange`] if the scalar would cross a page
    /// boundary (nothing is charged).
    pub fn poke<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        check_within_page(va, T::SIZE)?;
        let mapping = self.core.lookup(&self.mappings, va)?;
        let (frame, offset) = mapping.translate(va);
        let bytes = self.tiers[frame.tier.index()]
            .storage
            .slice_mut(frame.byte_offset() + offset, T::SIZE);
        value.write_le_slice(bytes);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection for analyzers / migration engines
    // ------------------------------------------------------------------

    /// The mappings overlapping `range`, in address order.
    pub fn mappings_in(&self, range: VirtRange) -> Vec<Mapping> {
        self.mappings.overlapping(range)
    }

    /// The tier currently backing `va`.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if `va` is not mapped.
    pub fn tier_of(&mut self, va: VirtAddr) -> Result<TierId> {
        Ok(self.core.lookup(&self.mappings, va)?.tier)
    }

    /// Bytes of `range` currently resident on `tier`.
    pub fn resident_bytes(&self, range: VirtRange, tier: TierId) -> usize {
        self.mappings
            .overlapping(range)
            .iter()
            .filter(|m| m.tier == tier)
            .filter_map(|m| m.vrange().intersect(range))
            .map(|r| r.len)
            .sum()
    }

    /// Invalidates every TLB entry covering `range`.
    pub fn invalidate_tlb_range(&mut self, range: VirtRange) {
        if range.len == 0 {
            return;
        }
        let first = range.start.page_index();
        let last = (range.end().raw() - 1) >> PAGE_SHIFT;
        let coalesce = self.platform.tlb_coalesce.max(1) as u64;
        self.core.tlb.invalidate_where(|key| {
            let value = key >> 2;
            let (key_first, key_last) = match key & 3 {
                2 => {
                    let start = value * HUGE_PAGE_FRAMES as u64;
                    (start, start + HUGE_PAGE_FRAMES as u64 - 1)
                }
                1 => {
                    let start = value * coalesce;
                    (start, start + coalesce - 1)
                }
                _ => (value, value),
            };
            key_first <= last && first <= key_last
        });
    }

    // ------------------------------------------------------------------
    // Migration primitives (used by mbind and by the ATMem optimizer)
    // ------------------------------------------------------------------

    /// Allocates a physically contiguous staging run of `pages` frames on
    /// `tier` (not mapped into any virtual range). The run is tracked as
    /// outstanding staging until released with [`Machine::free_frames`];
    /// [`Machine::audit`] accounts it as legitimate unmapped usage.
    ///
    /// # Errors
    ///
    /// [`HmsError::OutOfMemory`] / [`HmsError::Fragmented`] on failure.
    pub fn alloc_frames(&mut self, tier: TierId, pages: usize) -> Result<FrameRun> {
        if self.fault_fires(FaultSite::StagingAlloc) {
            return Err(self.oom_error(tier, pages * PAGE_SIZE));
        }
        let run = self.tiers[tier.index()]
            .frames
            .alloc_run(pages)
            .ok_or_else(|| self.oom_error(tier, pages * PAGE_SIZE))?;
        self.staged_runs.push((tier, run));
        Ok(run)
    }

    /// Frees a frame run previously returned by [`Machine::alloc_frames`]
    /// (or released by a remap).
    pub fn free_frames(&mut self, tier: TierId, run: FrameRun) {
        if let Some(pos) = self
            .staged_runs
            .iter()
            .position(|&(t, r)| t == tier && r == run)
        {
            self.staged_runs.swap_remove(pos);
        }
        self.tiers[tier.index()].frames.free_run(run);
        self.invalidate_llc_frames(tier, run);
    }

    /// Staging frame runs currently outstanding (allocated via
    /// [`Machine::alloc_frames`], not yet freed). Empty whenever no
    /// migration is mid-flight; the migration engine's tests assert this to
    /// prove staging buffers are never leaked on fault paths.
    pub fn outstanding_staging(&self) -> &[(TierId, FrameRun)] {
        &self.staged_runs
    }

    /// Allocates one frame destined to back a mapping immediately (the
    /// `mbind` per-page path). Unlike [`Machine::alloc_frames`] the frame is
    /// *not* tracked as staging — it becomes mapped within the same
    /// operation — and the fault site is [`FaultSite::FrameAlloc`].
    pub(crate) fn alloc_page_frame(&mut self, tier: TierId) -> Result<FrameRun> {
        if self.fault_fires(FaultSite::FrameAlloc) {
            return Err(self.oom_error(tier, PAGE_SIZE));
        }
        self.tiers[tier.index()]
            .frames
            .alloc_run(1)
            .ok_or_else(|| self.oom_error(tier, PAGE_SIZE))
    }

    /// Copies the page-aligned virtual `range` into the staging frame run
    /// `dst` on `dst_tier`, charged as a copy by `threads` copier threads.
    /// Returns the simulated copy time. The copy streams past the LLC
    /// (non-temporal), so cache and TLB state are unaffected.
    ///
    /// # Errors
    ///
    /// [`HmsError::InvalidRange`] if `range` is not page-aligned or `dst` is
    /// too small; [`HmsError::Unmapped`] for holes in `range`;
    /// [`HmsError::FaultInjected`] under an armed [`FaultPlan`] (no bytes
    /// are copied and no state changes in that case).
    pub fn copy_region_to_frames(
        &mut self,
        range: VirtRange,
        dst_tier: TierId,
        dst: FrameRun,
        threads: usize,
    ) -> Result<SimDuration> {
        self.copy_staging(range, dst_tier, dst, true, threads)
    }

    /// Copies bytes from the staging run `src` on `src_tier` back into the
    /// (re-mapped) virtual `range`. Counterpart of
    /// [`Machine::copy_region_to_frames`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::copy_region_to_frames`].
    pub fn copy_frames_to_region(
        &mut self,
        src_tier: TierId,
        src: FrameRun,
        range: VirtRange,
        threads: usize,
    ) -> Result<SimDuration> {
        self.copy_staging(range, src_tier, src, false, threads)
    }

    /// The body of both staging-copy directions: copies between the
    /// page-aligned virtual `range` and the frame run `run` on `run_tier`,
    /// into the run if `to_run`, out of it otherwise. Checks the range's
    /// segments, then the run's size, then the [`FaultSite::Move`] gate,
    /// before any byte moves.
    fn copy_staging(
        &mut self,
        range: VirtRange,
        run_tier: TierId,
        run: FrameRun,
        to_run: bool,
        threads: usize,
    ) -> Result<SimDuration> {
        let segments = self.region_segments(range)?;
        if run.bytes() < range.len {
            return Err(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            });
        }
        if self.fault_fires(FaultSite::Move) {
            return Err(HmsError::FaultInjected(FaultSite::Move));
        }
        let mut run_off = run.start as usize * PAGE_SIZE;
        let jobs: Vec<CopyJob> = segments
            .into_iter()
            .map(|(tier, off, len)| {
                let (region, staged) = ((tier, off), (run_tier, run_off));
                run_off += len;
                let ((src_tier, src_off), (dst_tier, dst_off)) = if to_run {
                    (region, staged)
                } else {
                    (staged, region)
                };
                CopyJob {
                    src_tier,
                    src_off,
                    dst_tier,
                    dst_off,
                    len,
                }
            })
            .collect();
        let time = self.estimate_copy_time(&jobs, threads);
        self.execute_copies(&jobs);
        self.core.clock.advance(time);
        Ok(time)
    }

    /// Decomposes a page-aligned virtual range into physically contiguous
    /// `(tier, storage offset, len)` segments.
    fn region_segments(&self, range: VirtRange) -> Result<Vec<(TierId, usize, usize)>> {
        if range.len == 0 || range.start.page_offset() != 0 || !range.len.is_multiple_of(PAGE_SIZE)
        {
            return Err(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            });
        }
        let maps = self.mappings.overlapping(range);
        let mut covered = range.start;
        let mut out = Vec::with_capacity(maps.len());
        for m in maps {
            let part = m
                .vrange()
                .intersect(range)
                .expect("overlapping() returned a non-overlapping mapping");
            if part.start != covered {
                return Err(HmsError::Unmapped(covered));
            }
            let (frame, off) = m.translate(part.start);
            out.push((m.tier, frame.byte_offset() + off, part.len));
            covered = part.end();
        }
        if covered != range.end() {
            return Err(HmsError::Unmapped(covered));
        }
        Ok(out)
    }

    /// Analytic copy-time model: per (src, dst) tier pair, throughput is the
    /// minimum of the source copy-read and destination copy-write bandwidth
    /// at the given thread count, further capped by the platform's per-pair
    /// link bandwidth (infinite on every two-tier preset, so the `min` is
    /// exact identity there); same-tier copies halve the budget (read and
    /// write share the channel).
    fn estimate_copy_time(&self, jobs: &[CopyJob], threads: usize) -> SimDuration {
        let mut ns = 0.0;
        for job in jobs {
            let src = &self.tiers[job.src_tier.index()].spec;
            let dst = &self.tiers[job.dst_tier.index()].spec;
            let mut bw = src
                .copy_read_bw(threads)
                .min(dst.copy_write_bw(threads))
                .min(self.platform.link_cap(job.src_tier, job.dst_tier));
            if job.src_tier == job.dst_tier {
                bw /= 2.0;
            }
            ns += job.len as f64 / bw;
        }
        SimDuration::from_ns(ns)
    }

    /// Executes the copies for real, one after another on the calling
    /// thread. Their simulated cost comes from
    /// [`estimate_copy_time`](Machine::estimate_copy_time), which models
    /// the copier threads; the host copy itself is a memcpy.
    fn execute_copies(&mut self, jobs: &[CopyJob]) {
        // Hard check, not debug_assert: a later job would silently
        // overwrite bytes an earlier one just placed.
        assert!(jobs_disjoint_dst(jobs), "copy destinations overlap");
        for job in jobs {
            self.copy_bytes(
                job.src_tier,
                job.src_off,
                job.dst_tier,
                job.dst_off,
                job.len,
            );
        }
    }

    /// Copies `len` bytes of tier storage from `(src_tier, src_off)` to
    /// `(dst_tier, dst_off)`, with no simulated-time accounting (callers
    /// charge the copy through their own cost model). Overlapping ranges
    /// on one tier copy as if through an intermediate buffer.
    ///
    /// # Panics
    ///
    /// Panics if either range exceeds its tier's storage.
    pub(crate) fn copy_bytes(
        &mut self,
        src_tier: TierId,
        src_off: usize,
        dst_tier: TierId,
        dst_off: usize,
        len: usize,
    ) {
        let (s, d) = (src_tier.index(), dst_tier.index());
        if s == d {
            self.tiers[s].storage.copy_within(src_off, dst_off, len);
            return;
        }
        let (src, dst) = if s < d {
            let (lo, hi) = self.tiers.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.tiers.split_at_mut(s);
            (&hi[0], &mut lo[d])
        };
        dst.storage
            .slice_mut(dst_off, len)
            .copy_from_slice(src.storage.slice(src_off, len));
    }

    /// Splits any mapping that straddles a boundary of `range`, so that
    /// every mapping overlapping `range` afterwards is fully contained in
    /// it. Splitting a huge mapping at an unaligned point demotes the
    /// broken 2 MiB unit to base pages (and invalidates its TLB entries),
    /// as a real kernel would.
    ///
    /// # Panics
    ///
    /// Panics in every profile if `range` is not page-aligned at both ends:
    /// the split would otherwise silently happen at the floored page.
    pub fn split_mappings_at(&mut self, range: VirtRange) {
        assert!(
            range.start.page_offset() == 0 && range.len.is_multiple_of(PAGE_SIZE),
            "split range {range:?} is not page-aligned"
        );
        for boundary in [range.start.page_index(), range.end().page_index()] {
            let m = match self.mappings.lookup_page(boundary) {
                Some(m) if m.vpage_start < boundary => *m,
                _ => continue,
            };
            self.mappings.remove(m.vpage_start);
            let (left, right) = crate::mapping::split_mapping(&m, boundary);
            for piece in left.into_iter().chain(right) {
                self.mappings.insert(piece);
            }
            if m.kind == PageKind::Huge2M {
                // Stale huge-unit TLB entries must not survive the demotion.
                self.invalidate_tlb_range(m.vrange());
            }
            self.core.map_memo = None;
        }
    }

    /// Remaps the page-aligned `range` onto fresh frames on `dst_tier`,
    /// using huge mappings where alignment and platform policy permit.
    /// Old frames are freed; TLB entries covering the range are invalidated
    /// once (a single range shootdown, not one per page). The backing bytes
    /// of the new frames are *uninitialised* — callers must copy data in
    /// (stage 3 of the staged migration) before any access.
    ///
    /// Returns the number of mappings now covering the range.
    ///
    /// # Errors
    ///
    /// [`HmsError::InvalidRange`] for unaligned ranges;
    /// [`HmsError::OutOfMemory`] if `dst_tier` cannot hold the range (the
    /// original mappings are restored).
    pub fn remap_region(&mut self, range: VirtRange, dst_tier: TierId) -> Result<usize> {
        if range.len == 0 || range.start.page_offset() != 0 || !range.len.is_multiple_of(PAGE_SIZE)
        {
            return Err(HmsError::InvalidRange {
                start: range.start,
                len: range.len,
            });
        }
        // Fault gate sits before any mapping-table mutation, so a faulted
        // remap leaves the region's mappings, frames and TLB untouched.
        if self.fault_fires(FaultSite::Remap) {
            return Err(self.oom_error(dst_tier, range.len));
        }
        self.split_mappings_at(range);
        let old = self.mappings.take_overlapping(range);
        let covered: usize = old.iter().map(|m| (m.pages as usize) * PAGE_SIZE).sum();
        if covered != range.len {
            // Holes: restore and fail.
            for m in old {
                self.mappings.insert(m);
            }
            return Err(HmsError::Unmapped(range.start));
        }

        let vpage = range.start.page_index();
        let pages = range.len / PAGE_SIZE;
        let mut created = Vec::new();
        match self.map_pages(dst_tier, vpage, pages, &mut created) {
            Ok(()) => {
                for m in &old {
                    self.note_unmapped(m.vrange(), m.tier);
                    self.unmap_one(m);
                }
                let n = created.len();
                for m in created {
                    self.note_mapped(m.vrange(), m.tier);
                    self.mappings.insert(m);
                }
                self.invalidate_tlb_range(range);
                self.core.map_memo = None;
                Ok(n)
            }
            Err(e) => {
                for m in created {
                    self.unmap_one(&m);
                }
                for m in old {
                    self.mappings.insert(m);
                }
                Err(e)
            }
        }
    }

    /// Records `bytes` as migrated (called by migration engines).
    pub fn note_migrated(&mut self, bytes: usize) {
        self.core.counters.bytes_migrated += bytes as u64;
    }

    /// Replaces one mapping with another covering the same virtual pages.
    /// Low-level hook for the `mbind` engine; does not touch frames.
    pub(crate) fn replace_mapping(&mut self, old_vpage_start: u64, new: Vec<Mapping>) {
        if let Some(old) = self.mappings.remove(old_vpage_start) {
            self.note_unmapped(old.vrange(), old.tier);
        }
        for m in new {
            self.note_mapped(m.vrange(), m.tier);
            self.mappings.insert(m);
        }
        self.core.map_memo = None;
    }

    pub(crate) fn tier_ref(&self, tier: TierId) -> &Tier {
        &self.tiers[tier.index()]
    }

    // ------------------------------------------------------------------
    // PEBS
    // ------------------------------------------------------------------

    /// Enables LLC read-miss sampling (see [`Pebs::enable`]).
    pub fn pebs_enable(&mut self, period: u64, jitter: u64) {
        self.core.pebs.enable(period, jitter);
    }

    /// Disables sampling, keeping buffered records.
    pub fn pebs_disable(&mut self) {
        self.core.pebs.disable();
    }

    /// Reseeds the sampling jitter RNG (see [`Pebs::reseed`]).
    pub fn pebs_reseed(&mut self, seed: u64) {
        self.core.pebs.reseed(seed);
    }

    /// Drains buffered sample records.
    ///
    /// Each drained record crosses the [`FaultSite::SampleLoss`] gate: an
    /// installed fault plan can drop individual records (a simulated PEBS
    /// buffer overwrite), starving the analyzer the way real sampling loss
    /// does. Without a plan the drain is lossless and free.
    pub fn pebs_drain(&mut self) -> Vec<SampleRecord> {
        let records = self.core.pebs.drain();
        self.apply_sample_loss(records)
    }

    /// Filters drained profiling records through the
    /// [`FaultSite::SampleLoss`] gate (one consultation per record).
    fn apply_sample_loss<T>(&mut self, records: Vec<T>) -> Vec<T> {
        if self.fault.is_none() {
            return records;
        }
        records
            .into_iter()
            .filter(|_| !self.fault_fires(FaultSite::SampleLoss))
            .collect()
    }

    /// The sampling unit, for inspection.
    pub fn pebs(&self) -> &Pebs {
        &self.core.pebs
    }

    // ------------------------------------------------------------------
    // Tracing (offline-profiling instrument; see [`Tracer`])
    // ------------------------------------------------------------------

    /// Starts full access-trace recording. Strictly observational: no
    /// effect on simulated time or cache/TLB state.
    pub fn trace_enable(&mut self) {
        self.core.tracer.enable();
    }

    /// Stops trace recording (keeps buffered records).
    pub fn trace_disable(&mut self) {
        self.core.tracer.disable();
    }

    /// Drains buffered trace records.
    ///
    /// Like [`Machine::pebs_drain`], each record crosses the
    /// [`FaultSite::SampleLoss`] gate, so trace-based (offline-oracle)
    /// analysis can be stress-tested under record loss too.
    pub fn trace_drain(&mut self) -> Vec<TraceRecord> {
        let records = self.core.tracer.drain();
        self.apply_sample_loss(records)
    }

    /// The tracer, for inspection.
    pub fn tracer(&self) -> &Tracer {
        &self.core.tracer
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Snapshot of all counters.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            time_ns: self.core.clock.now().as_ns(),
            accesses: self.core.counters.accesses,
            reads: self.core.counters.reads,
            writes: self.core.counters.writes,
            llc_read_hits: self.core.llc.read_hits(),
            llc_read_misses: self.core.llc.read_misses(),
            llc_write_hits: self.core.llc.write_hits(),
            llc_write_misses: self.core.llc.write_misses(),
            tlb_hits: self.core.tlb.hits(),
            tlb_misses: self.core.tlb.misses(),
            bytes_migrated: self.core.counters.bytes_migrated,
        }
    }

    /// Flushes the LLC and TLB (cold restart between experiment phases).
    pub fn flush_tlb_and_llc(&mut self) {
        self.core.llc.flush();
        self.core.tlb.flush();
    }

    // ------------------------------------------------------------------
    // Invariant audit
    // ------------------------------------------------------------------

    /// Checks every structural invariant of the machine and returns the
    /// violations found (empty = clean). Intended to run at quiescent
    /// points — between iterations, after a migration or a rollback — and
    /// cheap enough to call at the end of every test:
    ///
    /// 1. mappings are virtually disjoint, frame-in-bounds, and every
    ///    backing frame is live in its tier's allocator;
    /// 2. huge mappings are 2 MiB-aligned virtually and physically;
    /// 3. frame conservation per tier: the frames owned by mappings plus
    ///    outstanding staging runs are pairwise disjoint (no double
    ///    mapping) and account for *exactly* the allocator's used count
    ///    (no leaks), and the allocator's incremental free counter matches
    ///    a bitmap popcount (no double free slipped through);
    /// 4. every allocation is fully mapped, and every mapping belongs to a
    ///    live allocation;
    /// 5. every TLB entry decodes to a live mapping of matching
    ///    granularity (no stale entries after remaps or splinters);
    /// 6. every resident LLC line references an allocated frame;
    /// 7. monotone counters (time, accesses, hit/miss totals, migrated
    ///    bytes) never run backwards between audits;
    /// 8. the incremental residency cache (per-allocation and per-tag
    ///    resident-byte counters) matches a full mapping rescan.
    ///
    /// Needs `&mut self` only to store the counter snapshot for the next
    /// monotonicity check.
    pub fn audit(&mut self) -> Vec<String> {
        let mut violations: Vec<String> = Vec::new();
        let coalesce = self.platform.tlb_coalesce.max(1) as u64;

        // Invariants 1 + 2, and collection of per-tier frame ownership.
        let mut owners: Vec<Vec<(u32, u32, String)>> = vec![Vec::new(); self.tiers.len()];
        let mut prev_end: Option<u64> = None;
        for m in self.mappings.iter() {
            if let Some(end) = prev_end {
                if m.vpage_start < end {
                    violations.push(format!(
                        "mapping at vpage {:#x} overlaps the previous mapping",
                        m.vpage_start
                    ));
                }
            }
            prev_end = Some(m.vpage_start + m.pages as u64);
            let frames = &self.tiers[m.tier.index()].frames;
            if m.frame_start as usize + m.pages as usize > frames.total() {
                violations.push(format!(
                    "mapping at vpage {:#x} references out-of-bounds frames {}..{} on tier {}",
                    m.vpage_start,
                    m.frame_start,
                    m.frame_start + m.pages,
                    self.platform.tier_name(m.tier)
                ));
                continue;
            }
            if let Some(f) =
                (m.frame_start..m.frame_start + m.pages).find(|&f| !frames.is_allocated(f))
            {
                violations.push(format!(
                    "mapping at vpage {:#x} references freed frame {f} on tier {}",
                    m.vpage_start,
                    self.platform.tier_name(m.tier)
                ));
            }
            if m.kind == PageKind::Huge2M
                && (!m.vpage_start.is_multiple_of(HUGE_PAGE_FRAMES as u64)
                    || !(m.frame_start as usize).is_multiple_of(HUGE_PAGE_FRAMES)
                    || !(m.pages as usize).is_multiple_of(HUGE_PAGE_FRAMES))
            {
                violations.push(format!(
                    "huge mapping at vpage {:#x} is not 2 MiB-aligned (frame {}, {} pages)",
                    m.vpage_start, m.frame_start, m.pages
                ));
            }
            owners[m.tier.index()].push((
                m.frame_start,
                m.pages,
                format!("mapping at vpage {:#x}", m.vpage_start),
            ));
        }
        for &(tier, run) in &self.staged_runs {
            let frames = &self.tiers[tier.index()].frames;
            if run.start as usize + run.count as usize > frames.total() {
                violations.push(format!(
                    "staging run {}..{} is out of bounds on tier {}",
                    run.start,
                    run.start + run.count,
                    self.platform.tier_name(tier)
                ));
                continue;
            }
            if let Some(f) = (run.start..run.start + run.count).find(|&f| !frames.is_allocated(f)) {
                violations.push(format!(
                    "staging run on tier {} holds freed frame {f}",
                    self.platform.tier_name(tier)
                ));
            }
            owners[tier.index()].push((run.start, run.count, "staging run".into()));
        }

        // Invariant 3: per-tier frame conservation.
        for (ti, tier) in self.tiers.iter().enumerate() {
            let owned = &mut owners[ti];
            owned.sort_by_key(|&(start, _, _)| start);
            for pair in owned.windows(2) {
                let (a_start, a_count, a_what) = &pair[0];
                let (b_start, _, b_what) = &pair[1];
                if a_start + a_count > *b_start {
                    violations.push(format!(
                        "{} and {} double-map frames on {}",
                        a_what, b_what, tier.spec.name
                    ));
                }
            }
            let owned_frames: usize = owned.iter().map(|&(_, count, _)| count as usize).sum();
            let used = tier.frames.used_frames();
            if owned_frames != used {
                violations.push(format!(
                    "frame leak on {}: allocator reports {used} used frames, \
                     mappings + staging own {owned_frames}",
                    tier.spec.name
                ));
            }
            if tier.frames.bitmap_used_frames() != used {
                violations.push(format!(
                    "allocator counter drift on {}: bitmap holds {} set bits, \
                     counter says {used}",
                    tier.spec.name,
                    tier.frames.bitmap_used_frames()
                ));
            }
        }

        // Invariant 4: allocations fully mapped; no orphan mappings.
        for info in self.allocations.values() {
            let full = VirtRange::new(info.range.start, info.pages * PAGE_SIZE);
            let covered: usize = self
                .mappings
                .overlapping(full)
                .iter()
                .filter_map(|m| m.vrange().intersect(full))
                .map(|r| r.len)
                .sum();
            if covered != full.len {
                violations.push(format!(
                    "allocation at {} has {} of {} bytes mapped",
                    info.range.start, covered, full.len
                ));
            }
        }
        for m in self.mappings.iter() {
            let start = m.vpage_start << PAGE_SHIFT;
            let end = (m.vpage_start + m.pages as u64) << PAGE_SHIFT;
            let owned = self
                .allocations
                .range(..=start)
                .next_back()
                .is_some_and(|(_, info)| {
                    end <= info.range.start.raw() + (info.pages * PAGE_SIZE) as u64
                });
            if !owned {
                violations.push(format!(
                    "orphan mapping at vpage {:#x} belongs to no allocation",
                    m.vpage_start
                ));
            }
        }

        // Invariant 5: TLB entries decode to live mappings.
        let keys: Vec<u64> = self.core.tlb.keys().collect();
        for key in keys {
            let value = key >> 2;
            let stale = match key & 3 {
                2 => {
                    let vpage = value * HUGE_PAGE_FRAMES as u64;
                    !matches!(
                        self.mappings.lookup_page(vpage),
                        Some(m) if m.kind == PageKind::Huge2M
                    )
                }
                1 => {
                    let group_start = value * coalesce;
                    !matches!(
                        self.mappings.lookup_page(group_start),
                        Some(m) if m.kind == PageKind::Base4K
                            && m.vpage_start <= group_start
                            && group_start + coalesce <= m.vpage_start + m.pages as u64
                    )
                }
                _ => !matches!(
                    self.mappings.lookup_page(value),
                    Some(m) if m.kind == PageKind::Base4K
                ),
            };
            if stale {
                violations.push(format!("stale TLB entry {key:#x}"));
            }
        }

        // Invariant 6: LLC lines reference allocated frames.
        for line in self.core.llc.live_lines() {
            let pa = self.core.llc.line_base_addr(line);
            let tier = (pa >> 40) as usize;
            let frame = ((pa & ((1u64 << 40) - 1)) >> PAGE_SHIFT) as u32;
            if tier >= self.tiers.len() || !self.tiers[tier].frames.is_allocated(frame) {
                violations.push(format!(
                    "LLC line {line:#x} caches freed or out-of-bounds frame {frame} of tier {tier}"
                ));
            }
        }

        // Invariant 8: the incremental residency cache matches a rescan.
        let mut tag_expected: BTreeMap<u32, [usize; MAX_TIERS]> = BTreeMap::new();
        for info in self.allocations.values() {
            let mut expect = [0usize; MAX_TIERS];
            for (ti, slot) in expect.iter_mut().enumerate().take(self.tiers.len()) {
                *slot = self.resident_bytes(info.range, TierId::new(ti));
            }
            if info.resident != expect {
                violations.push(format!(
                    "residency cache drift for allocation at {}: cached {:?}, rescan {:?}",
                    info.range.start, info.resident, expect
                ));
            }
            let agg = tag_expected.entry(info.tag).or_insert([0; MAX_TIERS]);
            for (slot, add) in agg.iter_mut().zip(expect) {
                *slot += add;
            }
        }
        for (&tag, cached) in &self.tag_resident {
            let expect = tag_expected.remove(&tag).unwrap_or([0; MAX_TIERS]);
            if *cached != expect {
                violations.push(format!(
                    "per-tag residency drift for tag {tag}: cached {cached:?}, rescan {expect:?}"
                ));
            }
        }
        for (tag, expect) in tag_expected {
            violations.push(format!(
                "tag {tag} has {expect:?} resident bytes but no cache entry"
            ));
        }

        // Invariant 7: counters never run backwards.
        let stats = self.stats();
        if let Some(prev) = &self.last_audit_stats {
            let pairs = [
                ("accesses", prev.accesses, stats.accesses),
                ("reads", prev.reads, stats.reads),
                ("writes", prev.writes, stats.writes),
                ("llc_read_hits", prev.llc_read_hits, stats.llc_read_hits),
                (
                    "llc_read_misses",
                    prev.llc_read_misses,
                    stats.llc_read_misses,
                ),
                ("llc_write_hits", prev.llc_write_hits, stats.llc_write_hits),
                (
                    "llc_write_misses",
                    prev.llc_write_misses,
                    stats.llc_write_misses,
                ),
                ("tlb_hits", prev.tlb_hits, stats.tlb_hits),
                ("tlb_misses", prev.tlb_misses, stats.tlb_misses),
                ("bytes_migrated", prev.bytes_migrated, stats.bytes_migrated),
            ];
            for (name, before, now) in pairs {
                if now < before {
                    violations.push(format!("counter {name} ran backwards: {before} -> {now}"));
                }
            }
            if stats.time_ns < prev.time_ns {
                violations.push(format!(
                    "simulated clock ran backwards: {} -> {} ns",
                    prev.time_ns, stats.time_ns
                ));
            }
        }
        self.last_audit_stats = Some(stats);

        violations
    }
}

impl MemPort for Machine {
    fn read<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        Machine::read(self, va)
    }

    fn write<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        Machine::write(self, va, value)
    }

    fn read_modify_write<T: Scalar>(&mut self, va: VirtAddr, f: impl FnOnce(T) -> T) -> Result<T> {
        Machine::read_modify_write(self, va, f)
    }

    fn peek<T: Scalar>(&mut self, va: VirtAddr) -> Result<T> {
        Machine::peek(self, va)
    }

    fn poke<T: Scalar>(&mut self, va: VirtAddr, value: T) -> Result<()> {
        Machine::poke(self, va, value)
    }

    fn with_core<R>(&mut self, f: impl FnOnce(&mut CoreHandle<'_>) -> R) -> R {
        f(&mut self.core_handle())
    }
}

#[derive(Debug, Clone, Copy)]
struct CopyJob {
    src_tier: TierId,
    src_off: usize,
    dst_tier: TierId,
    dst_off: usize,
    len: usize,
}

fn jobs_disjoint_dst(jobs: &[CopyJob]) -> bool {
    let mut ranges: Vec<_> = jobs
        .iter()
        .map(|j| (j.dst_tier, j.dst_off, j.dst_off + j.len))
        .collect();
    ranges.sort_unstable();
    ranges
        .windows(2)
        .all(|w| w[0].0 != w[1].0 || w[0].2 <= w[1].1)
}

/// Plain little-endian scalar types storable in simulated memory.
///
/// This trait is sealed: the simulator supports exactly the primitive
/// numeric types below.
pub trait Scalar: Copy + private::Sealed {
    /// Size of the encoded scalar in bytes.
    const SIZE: usize;
    /// Decodes from little-endian bytes (`bytes.len() == SIZE`).
    fn from_le_slice(bytes: &[u8]) -> Self;
    /// Encodes into little-endian bytes (`bytes.len() == SIZE`).
    fn write_le_slice(self, bytes: &mut [u8]);
}

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn from_le_slice(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("scalar size mismatch"))
            }
            #[inline]
            fn write_le_slice(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_scalar!(u8, u32, u64, i32, i64, f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(Platform::testing())
    }

    #[test]
    fn alloc_read_write_round_trip() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        m.write::<u64>(r.start, 0xdead_beef).unwrap();
        assert_eq!(m.read::<u64>(r.start).unwrap(), 0xdead_beef);
        assert_eq!(m.peek::<u64>(r.start).unwrap(), 0xdead_beef);
    }

    #[test]
    fn zero_alloc_is_an_error() {
        let mut m = machine();
        assert_eq!(
            m.alloc(0, Placement::Slow).unwrap_err(),
            HmsError::ZeroSizedAllocation
        );
    }

    #[test]
    fn placement_fast_uses_fast_tier() {
        let mut m = machine();
        let r = m.alloc(8192, Placement::Fast).unwrap();
        assert_eq!(m.tier_of(r.start).unwrap(), TierId::FAST);
        assert_eq!(m.resident_bytes(r, TierId::FAST), 8192);
    }

    #[test]
    fn preferred_spills_when_full() {
        let mut m = machine();
        let fast_cap = m.capacity(TierId::FAST);
        let r = m
            .alloc(fast_cap + 4 * PAGE_SIZE, Placement::Preferred(TierId::FAST))
            .unwrap();
        assert_eq!(m.resident_bytes(r, TierId::FAST), fast_cap);
        assert!(m.resident_bytes(r, TierId::SLOW) >= 4 * PAGE_SIZE);
    }

    #[test]
    fn fast_placement_fails_when_too_big() {
        let mut m = machine();
        let err = m
            .alloc(m.capacity(TierId::FAST) + PAGE_SIZE, Placement::Fast)
            .unwrap_err();
        assert!(matches!(err, HmsError::OutOfMemory { .. }));
        // Rollback: nothing leaked.
        assert_eq!(m.bytes_used_by_tier()[TierId::FAST.index()], 0);
    }

    #[test]
    fn huge_mappings_created_for_large_allocations() {
        let mut m = machine();
        let r = m.alloc(4 * 1024 * 1024, Placement::Slow).unwrap();
        let maps = m.mappings_in(r);
        assert!(maps.iter().any(|mp| mp.kind == PageKind::Huge2M));
    }

    #[test]
    fn free_releases_frames() {
        let mut m = machine();
        let before = m.free_bytes(TierId::SLOW);
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        assert!(m.free_bytes(TierId::SLOW) < before);
        m.free(r).unwrap();
        assert_eq!(m.free_bytes(TierId::SLOW), before);
        assert!(m.read::<u32>(r.start).is_err());
    }

    #[test]
    fn double_free_is_an_error() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        m.free(r).unwrap();
        assert!(matches!(m.free(r), Err(HmsError::UnknownAllocation(_))));
    }

    #[test]
    fn slow_accesses_cost_more_than_fast() {
        let mut m = machine();
        let slow = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        let fast = m.alloc(1024 * 1024, Placement::Fast).unwrap();
        // Touch a large stride so every access misses.
        let t0 = m.now();
        for i in 0..1000u64 {
            let _ = m
                .read::<u64>(slow.start.add(i * 1024 % (1024 * 1024)))
                .unwrap();
        }
        let slow_time = m.now().as_ns() - t0.as_ns();
        let t1 = m.now();
        for i in 0..1000u64 {
            let _ = m
                .read::<u64>(fast.start.add(i * 1024 % (1024 * 1024)))
                .unwrap();
        }
        let fast_time = m.now().as_ns() - t1.as_ns();
        assert!(
            slow_time > 1.5 * fast_time,
            "slow {slow_time} vs fast {fast_time}"
        );
    }

    #[test]
    fn pebs_samples_read_misses() {
        let mut m = machine();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        m.pebs_enable(4, 0);
        for i in 0..256u64 {
            let _ = m
                .read::<u64>(r.start.add(i * 4096 % (1024 * 1024)))
                .unwrap();
        }
        m.pebs_disable();
        let samples = m.pebs_drain();
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| r.contains(s.vaddr)));
    }

    #[test]
    fn remap_moves_residency_and_preserves_nothing_until_copied() {
        let mut m = machine();
        let r = m.alloc(2 * 1024 * 1024, Placement::Slow).unwrap();
        assert_eq!(m.resident_bytes(r, TierId::SLOW), 2 * 1024 * 1024);
        let full = VirtRange::new(r.start, 2 * 1024 * 1024);
        m.remap_region(full, TierId::FAST).unwrap();
        assert_eq!(m.resident_bytes(full, TierId::FAST), 2 * 1024 * 1024);
        assert_eq!(m.resident_bytes(full, TierId::SLOW), 0);
    }

    #[test]
    fn staged_copy_round_trip_preserves_bytes() {
        let mut m = machine();
        let r = m.alloc(64 * PAGE_SIZE, Placement::Slow).unwrap();
        for i in 0..(64 * PAGE_SIZE as u64 / 8) {
            m.poke::<u64>(r.start.add(i * 8), i * 31 + 7).unwrap();
        }
        let full = VirtRange::new(r.start, 64 * PAGE_SIZE);
        // Stage 1: copy out to staging on FAST.
        let staging = m.alloc_frames(TierId::FAST, 64).unwrap();
        m.copy_region_to_frames(full, TierId::FAST, staging, 4)
            .unwrap();
        // Stage 2: remap to FAST.
        m.remap_region(full, TierId::FAST).unwrap();
        // Stage 3: copy back.
        m.copy_frames_to_region(TierId::FAST, staging, full, 4)
            .unwrap();
        m.free_frames(TierId::FAST, staging);
        for i in 0..(64 * PAGE_SIZE as u64 / 8) {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i * 31 + 7);
        }
    }

    #[test]
    fn stats_track_accesses() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        m.write::<u32>(r.start, 1).unwrap();
        let _ = m.read::<u32>(r.start).unwrap();
        let s = m.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert!(s.time_ns > 0.0);
    }

    #[test]
    fn line_locality_hits_after_first_touch() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        let _ = m.read::<u64>(r.start).unwrap(); // miss
        let _ = m.read::<u64>(r.start.add(8)).unwrap(); // same line: hit
        let s = m.stats();
        assert_eq!(s.llc_read_misses, 1);
        assert_eq!(s.llc_read_hits, 1);
    }

    #[test]
    fn coalesced_tlb_entries_are_invalidated_by_range() {
        let mut platform = Platform::testing();
        platform.tlb_coalesce = 8;
        platform.huge_pages = false;
        let mut m = Machine::new(platform);
        let r = m.alloc(64 * PAGE_SIZE, Placement::Slow).unwrap();
        // Touch pages 0..16: coalesced entries (2 groups of 8).
        for p in 0..16u64 {
            let _ = m.read::<u64>(r.start.add(p * PAGE_SIZE as u64)).unwrap();
        }
        let misses_before = m.stats().tlb_misses;
        // Re-touch: all hits.
        for p in 0..16u64 {
            let _ = m.read::<u64>(r.start.add(p * PAGE_SIZE as u64)).unwrap();
        }
        assert_eq!(m.stats().tlb_misses, misses_before, "warm TLB");
        // Invalidate pages 0..8 (one group); the other group must survive.
        m.invalidate_tlb_range(VirtRange::new(r.start, 8 * PAGE_SIZE));
        for p in 0..16u64 {
            let _ = m.read::<u64>(r.start.add(p * PAGE_SIZE as u64)).unwrap();
        }
        let new_misses = m.stats().tlb_misses - misses_before;
        assert_eq!(new_misses, 1, "exactly the invalidated group refills");
    }

    #[test]
    fn tracing_is_observationally_neutral() {
        let run = |trace: bool| {
            let mut m = machine();
            let r = m.alloc(256 * 1024, Placement::Slow).unwrap();
            if trace {
                m.trace_enable();
            }
            for i in 0..2048u64 {
                let _ = m
                    .read::<u64>(r.start.add((i * 320) % (256 * 1024)))
                    .unwrap();
            }
            (
                m.now().as_ns(),
                m.stats().llc_read_misses,
                m.trace_drain().len(),
            )
        };
        let (t0, m0, n0) = run(false);
        let (t1, m1, n1) = run(true);
        assert_eq!(t0, t1, "tracing must not change simulated time");
        assert_eq!(m0, m1);
        assert_eq!(n0, 0);
        assert_eq!(n1, 2048);
    }

    #[test]
    fn trace_classifies_access_kinds() {
        let mut m = machine();
        let r = m.alloc(4096, Placement::Slow).unwrap();
        m.trace_enable();
        m.write::<u64>(r.start, 1).unwrap(); // write miss
        let _ = m.read::<u64>(r.start).unwrap(); // read hit (same line)
        let records = m.trace_drain();
        assert_eq!(records[0].kind, crate::trace::AccessKind::WriteMiss);
        assert_eq!(records[1].kind, crate::trace::AccessKind::ReadHit);
    }

    #[test]
    fn run_cores_n1_is_bit_identical_to_scalar() {
        let drive_scalar = |m: &mut Machine, r: VirtRange| {
            for i in 0..4096u64 {
                let _ = m
                    .read::<u64>(r.start.add((i * 192) % (512 * 1024)))
                    .unwrap();
                m.write::<u64>(r.start.add((i * 64) % (512 * 1024)), i)
                    .unwrap();
            }
        };
        let setup = || {
            let mut m = machine();
            let r = m.alloc(512 * 1024, Placement::Slow).unwrap();
            m.pebs_enable(16, 8);
            m.trace_enable();
            (m, r)
        };

        let (mut a, ra) = setup();
        drive_scalar(&mut a, ra);
        let (mut b, rb) = setup();
        b.run_cores(1, |id, h| {
            assert_eq!(id, 0);
            for i in 0..4096u64 {
                let _ = h
                    .read::<u64>(rb.start.add((i * 192) % (512 * 1024)))
                    .unwrap();
                h.write::<u64>(rb.start.add((i * 64) % (512 * 1024)), i)
                    .unwrap();
            }
        });

        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now().as_ns().to_bits(), b.now().as_ns().to_bits());
        assert_eq!(a.pebs_drain(), b.pebs_drain());
        assert_eq!(a.trace_drain(), b.trace_drain());
        let _ = ra;
    }

    #[test]
    fn sharded_merge_is_deterministic_across_runs() {
        let run = || {
            let mut m = machine();
            let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
            m.pebs_enable(8, 4);
            let ranges = [(0u64, 512 * 1024u64), (512 * 1024, 1024 * 1024)];
            m.run_cores(2, |id, h| {
                let (lo, hi) = ranges[id];
                for i in (lo..hi).step_by(192) {
                    let _ = h.read::<u64>(r.start.add(i)).unwrap();
                }
            });
            (m.stats(), m.now().as_ns().to_bits(), m.pebs_drain())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_clock_is_max_core_time_plus_barrier() {
        let mut m = machine();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        let before = m.now().as_ns();
        // Core 1 does 4x the work of core 0, so max() must pick it.
        let elapsed = m.run_cores(2, |id, h| {
            let n = if id == 0 { 256u64 } else { 1024 };
            for i in 0..n {
                let _ = h
                    .read::<u64>(r.start.add((id as u64 * 512 + i) * 512))
                    .unwrap();
            }
            h.elapsed()
        });
        assert!(elapsed[1] > elapsed[0]);
        let expected = (before + elapsed[1].as_ns()) + m.platform().cost.barrier_cost(2).as_ns();
        assert_eq!(m.now().as_ns().to_bits(), expected.to_bits());
    }

    #[test]
    fn sharded_pebs_streams_concatenate_in_core_order() {
        let mut m = machine();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        m.pebs_enable(4, 0);
        let half = 512 * 1024u64;
        m.run_cores(2, |id, h| {
            let base = id as u64 * half;
            for i in (0..half).step_by(4096) {
                let _ = h.read::<u64>(r.start.add(base + i)).unwrap();
            }
        });
        let samples = m.pebs_drain();
        assert!(!samples.is_empty());
        // Core 0's addresses (below the split) come before core 1's.
        let boundary = samples
            .iter()
            .position(|s| s.vaddr >= r.start.add(half))
            .expect("core 1 produced no samples");
        assert!(samples[..boundary]
            .iter()
            .all(|s| s.vaddr < r.start.add(half)));
        assert!(samples[boundary..]
            .iter()
            .all(|s| s.vaddr >= r.start.add(half)));
    }

    #[test]
    fn sharded_counters_sum_over_cores() {
        let mut m = machine();
        let r = m.alloc(256 * 1024, Placement::Slow).unwrap();
        let before = m.stats();
        m.run_cores(4, |id, h| {
            let base = id as u64 * 64 * 1024;
            for i in 0..100u64 {
                let _ = h.read::<u64>(r.start.add(base + i * 8)).unwrap();
                h.write::<u64>(r.start.add(base + i * 8), i).unwrap();
            }
        });
        let after = m.stats();
        assert_eq!(after.reads - before.reads, 400);
        assert_eq!(after.writes - before.writes, 400);
        assert_eq!(after.accesses - before.accesses, 800);
        assert_eq!(
            after.llc_read_hits + after.llc_read_misses
                - before.llc_read_hits
                - before.llc_read_misses,
            400
        );
    }

    #[test]
    fn scalar_encoding_round_trips() {
        fn check<T: Scalar + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = vec![0u8; T::SIZE];
            v.write_le_slice(&mut buf);
            assert_eq!(T::from_le_slice(&buf), v);
        }
        check(0xabu8);
        check(0xdead_beefu32);
        check(u64::MAX - 3);
        check(-5i32);
        check(-5_000_000_000i64);
        check(1.5f32);
        check(-2.25f64);
    }

    #[test]
    fn line_size_constant_consistent() {
        assert_eq!(crate::addr::LINE_SIZE, 64);
    }

    fn assert_clean(m: &mut Machine) {
        let violations = m.audit();
        assert!(violations.is_empty(), "audit violations: {violations:#?}");
    }

    #[test]
    fn audit_clean_through_alloc_access_migrate_free() {
        let mut m = machine();
        assert_clean(&mut m);
        let r = m.alloc(2 * 1024 * 1024 + 4096, Placement::Slow).unwrap();
        for i in 0..64u64 {
            m.write::<u64>(r.start.add(i * 4096), i).unwrap();
        }
        assert_clean(&mut m);
        let aligned = VirtRange::new(r.start, 1024 * 1024);
        m.migrate_mbind(aligned, TierId::FAST).unwrap();
        assert_clean(&mut m);
        m.remap_region(aligned, TierId::SLOW).unwrap();
        assert_clean(&mut m);
        m.free(r).unwrap();
        assert_clean(&mut m);
    }

    #[test]
    fn residency_cache_tracks_tags_and_tiers() {
        let mut m = machine();
        m.set_alloc_tag(7);
        let a = m.alloc(96 * 1024, Placement::Slow).unwrap();
        m.set_alloc_tag(9);
        let b = m.alloc(32 * 1024, Placement::Fast).unwrap();
        assert_eq!(m.resident_bytes_by_tag(7, TierId::SLOW), 96 * 1024);
        assert_eq!(m.resident_bytes_by_tag(7, TierId::FAST), 0);
        assert_eq!(m.resident_bytes_by_tag(9, TierId::FAST), 32 * 1024);
        assert_eq!(m.tagged_bytes(7), 96 * 1024);
        assert_clean(&mut m);
        m.remap_region(a, TierId::FAST).unwrap();
        assert_eq!(m.resident_bytes_by_tag(7, TierId::FAST), 96 * 1024);
        assert_eq!(m.resident_bytes_by_tag(7, TierId::SLOW), 0);
        assert_eq!(
            m.allocation_resident(a.start, TierId::FAST),
            Some(96 * 1024)
        );
        assert_clean(&mut m);
        m.free(b).unwrap();
        assert_eq!(m.tagged_bytes(9), 0);
        assert_eq!(m.resident_bytes_by_tag(9, TierId::FAST), 0);
        assert_clean(&mut m);
    }

    #[test]
    fn residency_cache_survives_mbind_splinters() {
        let mut m = machine();
        m.set_alloc_tag(3);
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        m.migrate_mbind(r, TierId::FAST).unwrap();
        assert_eq!(m.resident_bytes_by_tag(3, TierId::FAST), 64 * 1024);
        assert_eq!(m.resident_bytes_by_tag(3, TierId::SLOW), 0);
        assert_clean(&mut m);
    }

    /// Writes `value` at `va` through the mapping table alone, bypassing
    /// the core's memo, so a read through a stale memo sees other bytes.
    fn poke_through_table(m: &mut Machine, va: VirtAddr, value: u64) {
        let (frame, offset) = m.mappings.lookup(va).unwrap().translate(va);
        let bytes = m.tiers[frame.tier.index()]
            .storage
            .slice_mut(frame.byte_offset() + offset, 8);
        value.write_le_slice(bytes);
    }

    /// The resident core's `map_memo` is the machine's only mapping memo,
    /// so every mapping-table mutation must reset it. Each step warms the
    /// memo on the mapping about to change and mutates whole mappings only,
    /// so `split_mappings_at` splits (and resets) nothing; the reset under
    /// test is the mutation's own.
    #[test]
    fn resident_memo_never_serves_a_stale_mapping() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        let va = r.start.add(8 * PAGE_SIZE as u64 + 64);
        let warm = |m: &mut Machine| {
            m.peek::<u64>(va).unwrap();
            m.read::<u64>(va).unwrap();
        };
        let sees = |m: &mut Machine, tier: TierId, marker: u64| {
            assert_eq!(m.tier_of(va).unwrap(), tier);
            assert_eq!(m.peek::<u64>(va).unwrap(), marker);
            assert_eq!(m.read::<u64>(va).unwrap(), marker);
        };
        let tiling: Vec<VirtRange> = m.mappings_in(r).iter().map(Mapping::vrange).collect();
        assert_eq!(tiling, vec![r], "the allocation must be one whole mapping");

        // remap_region of the whole mapping.
        poke_through_table(&mut m, va, 1);
        warm(&mut m);
        m.remap_region(r, TierId::FAST).unwrap();
        poke_through_table(&mut m, va, 2);
        sees(&mut m, TierId::FAST, 2);

        // mbind's replace_mapping, splintering the whole range.
        warm(&mut m);
        m.migrate_mbind(r, TierId::SLOW).unwrap();
        poke_through_table(&mut m, va, 3);
        sees(&mut m, TierId::SLOW, 3);

        // free.
        warm(&mut m);
        m.free(r).unwrap();
        assert!(matches!(m.peek::<u64>(va), Err(HmsError::Unmapped(_))));
        assert!(matches!(m.tier_of(va), Err(HmsError::Unmapped(_))));
        assert!(matches!(m.read::<u64>(va), Err(HmsError::Unmapped(_))));
        assert_clean(&mut m);
    }

    #[test]
    fn sample_loss_fault_drops_drained_records() {
        let mut m = machine();
        let r = m.alloc(1024 * 1024, Placement::Slow).unwrap();
        m.pebs_enable(4, 0);
        for i in 0..2048u64 {
            let _ = m.read::<u64>(r.start.add((i * 8) % (1024 * 1024))).unwrap();
        }
        m.pebs_disable();
        let buffered = m.pebs().samples_taken() as usize;
        assert!(buffered > 8, "need samples to lose, got {buffered}");
        m.set_fault_plan(Some(
            FaultPlan::new()
                .fail_at(FaultSite::SampleLoss, 0)
                .fail_at(FaultSite::SampleLoss, 2),
        ));
        let drained = m.pebs_drain().len();
        assert_eq!(drained, buffered - 2, "exactly two records dropped");
        let plan = m.fault_plan().unwrap();
        assert_eq!(plan.consults(FaultSite::SampleLoss), buffered as u64);
        assert_eq!(plan.injected().len(), 2);
        assert_clean(&mut m);
    }

    #[test]
    fn audit_flags_a_planted_frame_leak() {
        let mut m = machine();
        let _r = m.alloc(64 * 1024, Placement::Fast).unwrap();
        assert_clean(&mut m);
        // Grab frames behind the registry's back: a genuine leak.
        m.tiers[TierId::FAST.index()].frames.alloc_run(4).unwrap();
        let violations = m.audit();
        assert!(
            violations.iter().any(|v| v.contains("frame leak")),
            "leak not flagged: {violations:#?}"
        );
    }

    /// Overlapping destinations would let a later job silently overwrite
    /// an earlier one's bytes, so they panic before any byte moves, in
    /// every profile (also run under `--release` by ci.sh).
    #[test]
    #[should_panic(expected = "copy destinations overlap")]
    fn overlapping_copy_destinations_are_rejected() {
        let mut m = machine();
        let job = |dst_off| CopyJob {
            src_tier: TierId::SLOW,
            src_off: 0,
            dst_tier: TierId::FAST,
            dst_off,
            len: PAGE_SIZE,
        };
        m.execute_copies(&[job(0), job(PAGE_SIZE / 2)]);
    }

    /// An unaligned split range would silently split at the floored page,
    /// so it panics in every profile (also run under `--release` by ci.sh).
    #[test]
    #[should_panic(expected = "not page-aligned")]
    fn unaligned_split_is_rejected() {
        let mut m = machine();
        let r = m.alloc(8 * PAGE_SIZE, Placement::Slow).unwrap();
        m.split_mappings_at(VirtRange::new(r.start.add(100), 2 * PAGE_SIZE));
    }

    /// A scalar that straddles a page boundary would be split across
    /// frames: after page 1 of a slow-tier pair moves to the fast tier, a
    /// `u64` written at page 0 + 4092 would put its high half into the
    /// slow frame page 1 left, and the moved page would never see it.
    /// Every scalar entry point rejects the access before any counter or
    /// clock moves, in every profile (also run under `--release` by
    /// ci.sh).
    #[test]
    fn page_straddling_scalar_access_is_rejected() {
        let mut m = machine();
        let r = m.alloc(2 * PAGE_SIZE, Placement::Slow).unwrap();
        let page1 = VirtRange::new(r.start.add(PAGE_SIZE as u64), PAGE_SIZE);
        m.migrate_mbind(page1, TierId::FAST).unwrap();
        m.poke::<u32>(page1.start, 0x1122_3344).unwrap();
        let va = r.start.add(PAGE_SIZE as u64 - 4);
        let straddle = HmsError::InvalidRange { start: va, len: 8 };
        let (accesses, now) = (m.stats().accesses, m.now());

        assert_eq!(m.write::<u64>(va, u64::MAX), Err(straddle.clone()));
        assert_eq!(m.read::<u64>(va), Err(straddle.clone()));
        assert_eq!(
            m.read_modify_write::<u64>(va, |x| x + 1),
            Err(straddle.clone())
        );
        assert_eq!(m.poke::<u64>(va, u64::MAX), Err(straddle.clone()));
        assert_eq!(m.peek::<u64>(va), Err(straddle.clone()));
        let per_core = m.run_cores(2, |_, h| {
            [
                h.write::<u64>(va, u64::MAX).err(),
                h.read::<u64>(va).err(),
                h.read_modify_write::<u64>(va, |x| x + 1).err(),
                h.poke::<u64>(va, u64::MAX).err(),
                h.peek::<u64>(va).err(),
            ]
        });
        for errors in per_core {
            assert!(errors.iter().all(|e| e.as_ref() == Some(&straddle)));
        }

        assert_eq!(
            m.stats().accesses,
            accesses,
            "a rejected access was counted"
        );
        // Only the two-core phase barrier may move the clock.
        assert_eq!(
            m.now().as_ns(),
            now.as_ns() + m.platform().cost.barrier_cost(2).as_ns()
        );
        assert_eq!(m.peek::<u32>(page1.start).unwrap(), 0x1122_3344);
        assert_eq!(m.peek::<u32>(va).unwrap(), 0);
        assert_clean(&mut m);
    }

    #[test]
    fn audit_flags_stale_tlb_entries() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        let _ = m.read::<u64>(r.start).unwrap();
        assert_clean(&mut m);
        // Tear the mapping down without a shootdown (simulating the bug
        // class the auditor exists to catch).
        let info = m.allocation(r.start).unwrap();
        let full = VirtRange::new(info.range.start, info.pages * PAGE_SIZE);
        m.allocations.remove(&r.start.raw());
        for mp in m.mappings.take_overlapping(full) {
            m.unmap_one(&mp);
        }
        let violations = m.audit();
        assert!(
            violations.iter().any(|v| v.contains("stale TLB")),
            "stale TLB entry not flagged: {violations:#?}"
        );
    }

    #[test]
    fn staging_alloc_fault_fails_cleanly() {
        let mut m = machine();
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::StagingAlloc, 0)));
        let err = m.alloc_frames(TierId::FAST, 4).unwrap_err();
        assert!(matches!(
            err,
            HmsError::OutOfMemory { .. } | HmsError::Fragmented { .. }
        ));
        assert!(m.outstanding_staging().is_empty());
        assert_clean(&mut m);
        // The next attempt (fault consumed) succeeds and is tracked.
        let run = m.alloc_frames(TierId::FAST, 4).unwrap();
        assert_eq!(m.outstanding_staging(), &[(TierId::FAST, run)]);
        m.free_frames(TierId::FAST, run);
        assert!(m.outstanding_staging().is_empty());
        assert_clean(&mut m);
    }

    #[test]
    fn remap_fault_leaves_region_intact() {
        let mut m = machine();
        let r = m.alloc(256 * 1024, Placement::Slow).unwrap();
        for i in 0..(256 * 1024 / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i ^ 0xa5a5).unwrap();
        }
        let before = m.mappings_in(r);
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Remap, 0)));
        let err = m.remap_region(r, TierId::FAST).unwrap_err();
        assert!(matches!(
            err,
            HmsError::OutOfMemory { .. } | HmsError::Fragmented { .. }
        ));
        assert_eq!(m.mappings_in(r), before, "mappings must be untouched");
        assert_eq!(m.resident_bytes(r, TierId::SLOW), 256 * 1024);
        for i in 0..(256 * 1024 / 8) as u64 {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i ^ 0xa5a5);
        }
        assert_clean(&mut m);
    }

    #[test]
    fn move_fault_copies_nothing() {
        let mut m = machine();
        let r = m.alloc(64 * 1024, Placement::Slow).unwrap();
        for i in 0..(64 * 1024 / 8) as u64 {
            m.poke::<u64>(r.start.add(i * 8), i).unwrap();
        }
        let staging = m.alloc_frames(TierId::FAST, 16).unwrap();
        m.set_fault_plan(Some(FaultPlan::new().fail_at(FaultSite::Move, 0)));
        let err = m
            .copy_region_to_frames(r, TierId::FAST, staging, 4)
            .unwrap_err();
        assert_eq!(err, HmsError::FaultInjected(FaultSite::Move));
        m.free_frames(TierId::FAST, staging);
        for i in 0..(64 * 1024 / 8) as u64 {
            assert_eq!(m.peek::<u64>(r.start.add(i * 8)).unwrap(), i);
        }
        assert_clean(&mut m);
        assert_eq!(m.fault_plan().unwrap().injected(), &[(FaultSite::Move, 0)]);
    }

    #[test]
    fn mbind_oom_error_path_leaves_no_stale_tlb() {
        let mut m = machine();
        let fast_cap = m.capacity(TierId::FAST);
        let r = m.alloc(fast_cap + 8 * PAGE_SIZE, Placement::Slow).unwrap();
        let full = VirtRange::new(r.start, fast_cap + 8 * PAGE_SIZE);
        // Warm the TLB with huge-mapping entries over the whole range.
        for off in (0..full.len as u64).step_by(PAGE_SIZE) {
            let _ = m.read::<u8>(r.start.add(off)).unwrap();
        }
        let err = m.migrate_mbind(full, TierId::FAST).unwrap_err();
        assert!(matches!(err, HmsError::OutOfMemory { .. }));
        // The splinter must not leave huge/coalesced TLB entries behind.
        assert_clean(&mut m);
        // Every page is still readable (prefix moved, remainder on slow).
        let last = full.start.add(full.len as u64 - 8);
        let _ = m.peek::<u64>(last).unwrap();
    }
}
