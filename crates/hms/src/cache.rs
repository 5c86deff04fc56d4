//! Set-associative last-level cache model.
//!
//! The LLC is indexed by *physical* address, so a migrated page starts cold
//! in the cache (its lines had the old physical tags), matching real
//! hardware. ATMem's profiler samples LLC *read misses* (paper Eq. 1), which
//! this model produces as an event stream.

use crate::addr::PhysAddr;

/// Geometry of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line: usize,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is divisible by `assoc * line` and the resulting
    /// set count is a power of two.
    pub fn new(size: usize, assoc: usize, line: usize) -> Self {
        assert!(
            size > 0 && assoc > 0 && line > 0,
            "cache geometry must be positive"
        );
        assert_eq!(
            size % (assoc * line),
            0,
            "size must be a multiple of assoc*line"
        );
        let sets = size / (assoc * line);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig { size, assoc, line }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.assoc * self.line)
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss,
}

impl CacheOutcome {
    /// Whether the outcome is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Set-associative write-allocate LLC with per-set LRU replacement.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * assoc + way]`; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Per-way last-use tick for LRU.
    ages: Vec<u64>,
    tick: u64,
    set_mask: u64,
    line_shift: u32,
    read_hits: u64,
    read_misses: u64,
    write_hits: u64,
    write_misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let ways = config.sets() * config.assoc;
        Cache {
            config,
            tags: vec![u64::MAX; ways],
            ages: vec![0; ways],
            tick: 0,
            set_mask: (config.sets() - 1) as u64,
            line_shift: config.line.trailing_zeros(),
            read_hits: 0,
            read_misses: 0,
            write_hits: 0,
            write_misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses the line containing `pa`; fills it on a miss.
    pub fn access(&mut self, pa: PhysAddr, write: bool) -> CacheOutcome {
        self.access_slot(pa, write).0
    }

    /// Like [`access`](Cache::access), but also returns the slot index
    /// (`set * assoc + way`) the line occupies afterwards, so follow-up
    /// touches of the same line can skip the tag scan.
    pub(crate) fn access_slot(&mut self, pa: PhysAddr, write: bool) -> (CacheOutcome, usize) {
        self.tick += 1;
        let line_id = pa.raw() >> self.line_shift;
        let set = (line_id & self.set_mask) as usize;
        let tag = line_id >> self.set_mask.count_ones();
        let base = set * self.config.assoc;
        let ways = &self.tags[base..base + self.config.assoc];

        let mut victim = 0usize;
        let mut victim_age = u64::MAX;
        for (w, &t) in ways.iter().enumerate() {
            if t == tag {
                self.ages[base + w] = self.tick;
                if write {
                    self.write_hits += 1;
                } else {
                    self.read_hits += 1;
                }
                return (CacheOutcome::Hit, base + w);
            }
            let age = self.ages[base + w];
            if age < victim_age {
                victim_age = age;
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.ages[base + victim] = self.tick;
        if write {
            self.write_misses += 1;
        } else {
            self.read_misses += 1;
        }
        (CacheOutcome::Miss, base + victim)
    }

    /// Guaranteed-hit re-touch of the line sitting in `slot` (as returned by
    /// [`access_slot`](Cache::access_slot) with no interleaving accesses):
    /// identical counter and LRU effects to another `access` of the same
    /// line, without the tag scan.
    pub(crate) fn rehit(&mut self, slot: usize, write: bool) {
        self.tick += 1;
        if write {
            self.write_hits += 1;
        } else {
            self.read_hits += 1;
        }
        self.ages[slot] = self.tick;
    }

    /// Replays `reads + writes` guaranteed-hit re-touches of the line in
    /// `slot` as one batch: counters, tick and the line's age end exactly as
    /// that many interleaved [`rehit`](Cache::rehit) calls would leave them
    /// (the interleaving order does not matter — every touch restamps the
    /// same slot). Used by the window engine to settle deferred same-line
    /// accesses before the next real probe.
    ///
    /// # Panics
    ///
    /// Panics if `reads + writes` is zero, in every profile: an empty run
    /// would still advance the tick and re-stamp the line's age.
    pub(crate) fn rehit_run(&mut self, slot: usize, reads: u64, writes: u64) {
        assert!(reads + writes > 0, "empty rehit run");
        self.tick += reads + writes;
        self.read_hits += reads;
        self.write_hits += writes;
        self.ages[slot] = self.tick;
    }

    /// Adds another cache's hit/miss counters into this one (deterministic
    /// core merge: replacement state is discarded, totals are summed).
    pub(crate) fn absorb_counters(&mut self, other: &Cache) {
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.write_hits += other.write_hits;
        self.write_misses += other.write_misses;
    }

    /// Performs `count` consecutive accesses to the line containing `pa` as
    /// one batch, returning the outcome of the *first*. State and counters
    /// end exactly as `count` calls to [`access`](Cache::access) would leave
    /// them: after the first access fills or touches the line, the remaining
    /// `count - 1` are guaranteed hits that each advance the tick and
    /// refresh the line's age.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, in every profile: an empty run would
    /// still charge one access.
    pub fn access_run(&mut self, pa: PhysAddr, write: bool, count: usize) -> CacheOutcome {
        assert!(count > 0, "empty cache run");
        let (outcome, slot) = self.access_slot(pa, write);
        if count > 1 {
            let extra = (count - 1) as u64;
            self.tick += extra;
            if write {
                self.write_hits += extra;
            } else {
                self.read_hits += extra;
            }
            self.ages[slot] = self.tick;
        }
        outcome
    }

    /// Drops every line (used when a machine resets between experiments).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.ages.fill(0);
    }

    /// Evicts every resident line whose line id satisfies `pred`, as a
    /// back-invalidation for reclaimed physical frames would. The vacated
    /// ways become immediate eviction victims (tag empty, age zero);
    /// counters are untouched.
    pub fn invalidate_where(&mut self, mut pred: impl FnMut(u64) -> bool) {
        let set_bits = self.set_mask.count_ones();
        for (slot, tag) in self.tags.iter_mut().enumerate() {
            if *tag == u64::MAX {
                continue;
            }
            let set = (slot / self.config.assoc) as u64;
            let line_id = (*tag << set_bits) | set;
            if pred(line_id) {
                *tag = u64::MAX;
                self.ages[slot] = 0;
            }
        }
    }

    /// The line id of every resident line, in unspecified order. Used by the
    /// machine invariant auditor to check that no line references a freed
    /// frame.
    pub fn live_lines(&self) -> Vec<u64> {
        let set_bits = self.set_mask.count_ones();
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &tag)| tag != u64::MAX)
            .map(|(slot, &tag)| (tag << set_bits) | (slot / self.config.assoc) as u64)
            .collect()
    }

    /// Reconstructs the physical byte address of the first byte of a line id
    /// produced by [`Cache::live_lines`].
    pub fn line_base_addr(&self, line_id: u64) -> u64 {
        line_id << self.line_shift
    }

    /// The line id containing physical byte address `raw`.
    pub fn line_id_of(&self, raw: u64) -> u64 {
        raw >> self.line_shift
    }

    /// Read hits since creation or the last counter reset.
    pub fn read_hits(&self) -> u64 {
        self.read_hits
    }

    /// Read misses since creation or the last counter reset.
    pub fn read_misses(&self) -> u64 {
        self.read_misses
    }

    /// Write hits since creation or the last counter reset.
    pub fn write_hits(&self) -> u64 {
        self.write_hits
    }

    /// Write misses since creation or the last counter reset.
    pub fn write_misses(&self) -> u64 {
        self.write_misses
    }

    /// Zeroes all hit/miss counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.read_hits = 0;
        self.read_misses = 0;
        self.write_hits = 0;
        self.write_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn config_validates_geometry() {
        let c = CacheConfig::new(2 * 1024 * 1024, 16, 64);
        assert_eq!(c.sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _ = CacheConfig::new(3 * 64 * 2, 2, 64);
    }

    #[test]
    fn second_access_hits() {
        let mut c = small();
        let pa = PhysAddr::new(0x1000);
        assert_eq!(c.access(pa, false), CacheOutcome::Miss);
        assert_eq!(c.access(pa, false), CacheOutcome::Hit);
        // Same line, different byte.
        assert_eq!(c.access(PhysAddr::new(0x103f), false), CacheOutcome::Hit);
        assert_eq!(c.read_hits(), 2);
        assert_eq!(c.read_misses(), 1);
    }

    #[test]
    fn conflict_evicts_lru() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets*line = 256).
        let a = PhysAddr::new(0x0);
        let b = PhysAddr::new(0x100);
        let d = PhysAddr::new(0x200);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // b becomes LRU
        c.access(d, false); // evicts b
        assert_eq!(c.access(a, false), CacheOutcome::Hit);
        assert_eq!(c.access(b, false), CacheOutcome::Miss);
    }

    #[test]
    fn writes_are_counted_separately() {
        let mut c = small();
        let pa = PhysAddr::new(0x40);
        c.access(pa, true);
        c.access(pa, true);
        assert_eq!(c.write_misses(), 1);
        assert_eq!(c.write_hits(), 1);
        assert_eq!(c.read_misses(), 0);
    }

    #[test]
    fn rehit_run_matches_the_per_element_rehit_loop() {
        let mut batched = small();
        let mut looped = small();
        for &(addr, reads, writes) in &[
            (0x000u64, 4u64, 2u64),
            (0x100, 0, 3),
            (0x000, 5, 0),
            (0x200, 1, 1),
        ] {
            let pa = PhysAddr::new(addr);
            let (ob, sb) = batched.access_slot(pa, false);
            let (ol, sl) = looped.access_slot(pa, false);
            assert_eq!(ob, ol, "probe outcome at {addr:#x}");
            batched.rehit_run(sb, reads, writes);
            for _ in 0..reads {
                looped.rehit(sl, false);
            }
            for _ in 0..writes {
                looped.rehit(sl, true);
            }
        }
        assert_eq!(batched.read_hits(), looped.read_hits());
        assert_eq!(batched.read_misses(), looped.read_misses());
        assert_eq!(batched.write_hits(), looped.write_hits());
        assert_eq!(batched.write_misses(), looped.write_misses());
        // LRU ages agree: the same victims are chosen afterwards.
        for addr in (0..0x800u64).step_by(0x100) {
            assert_eq!(
                batched.access(PhysAddr::new(addr), false),
                looped.access(PhysAddr::new(addr), false)
            );
        }
    }

    #[test]
    fn access_run_matches_the_per_element_loop() {
        let mut batched = small();
        let mut looped = small();
        // Lines competing in the same set (stride 256), mixed reads/writes.
        for &(addr, write, count) in &[
            (0x000u64, false, 9usize),
            (0x100, false, 3),
            (0x000, true, 2),
            (0x200, false, 5),
            (0x100, true, 1),
            (0x300, false, 4),
            (0x000, false, 6),
        ] {
            let pa = PhysAddr::new(addr);
            let first_batched = batched.access_run(pa, write, count);
            let first_looped = looped.access(pa, write);
            for _ in 1..count {
                assert_eq!(looped.access(pa, write), CacheOutcome::Hit);
            }
            assert_eq!(first_batched, first_looped, "outcome at {addr:#x}");
        }
        assert_eq!(batched.read_hits(), looped.read_hits());
        assert_eq!(batched.read_misses(), looped.read_misses());
        assert_eq!(batched.write_hits(), looped.write_hits());
        assert_eq!(batched.write_misses(), looped.write_misses());
        // LRU ages agree: the same victims are chosen afterwards.
        for addr in (0..0x800u64).step_by(0x100) {
            assert_eq!(
                batched.access(PhysAddr::new(addr), false),
                looped.access(PhysAddr::new(addr), false)
            );
        }
    }

    /// The zero-count guards are hard checks: a release build must not
    /// charge an access, or re-stamp a line, for an empty run.
    #[test]
    #[should_panic(expected = "empty cache run")]
    fn empty_access_run_is_rejected() {
        small().access_run(PhysAddr::new(0x40), false, 0);
    }

    #[test]
    #[should_panic(expected = "empty rehit run")]
    fn empty_rehit_run_is_rejected() {
        let mut c = small();
        let (_, slot) = c.access_slot(PhysAddr::new(0x40), false);
        c.rehit_run(slot, 0, 0);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        let pa = PhysAddr::new(0x40);
        c.access(pa, false);
        c.flush();
        assert_eq!(c.access(pa, false), CacheOutcome::Miss);
    }
}
