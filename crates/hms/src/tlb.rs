//! LRU translation-lookaside buffer model.
//!
//! One entry covers one mapping unit: a 4 KiB page of a base mapping or a
//! whole 2 MiB huge mapping (keys produced by
//! [`Mapping::tlb_key`](crate::mapping::Mapping::tlb_key)). A miss costs a
//! page walk in the cost model; counting misses after migration is how the
//! simulator reproduces Table 4 of the paper.

use std::collections::HashMap;

/// LRU TLB with a fixed number of entries.
///
/// Resident entries live densely in `slots` as `(key, timestamp)` pairs
/// with a monotonically increasing timestamp, indexed by a hash map from
/// key to slot. A miss at capacity evicts the least-recently-used entry
/// found by a linear scan of `slots`. Capacity is small (~1.5 K entries),
/// and a dense slice keeps that O(n) scan a tight loop over contiguous
/// memory. Timestamps are unique, so the victim never depends on slot
/// order.
#[derive(Debug)]
pub struct Tlb {
    index: HashMap<u64, u32>,
    slots: Vec<(u64, u64)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            index: HashMap::with_capacity(capacity + 1),
            slots: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of entries the TLB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total hits recorded since creation or the last [`reset_counters`].
    ///
    /// [`reset_counters`]: Tlb::reset_counters
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses recorded since creation or the last [`reset_counters`].
    ///
    /// [`reset_counters`]: Tlb::reset_counters
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up `key`; returns `true` on a hit. On a miss the entry is
    /// filled (evicting the LRU entry if full).
    pub fn access(&mut self, key: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some(ts) = self.stamp_of(key) {
            *ts = tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.fill(key, tick);
        false
    }

    /// Performs `count` consecutive lookups of the same `key` as one batch,
    /// returning the outcome of the *first* (`true` = hit). State and
    /// counters end exactly as `count` calls to [`access`](Tlb::access)
    /// would leave them: after the first lookup fills or refreshes the
    /// entry, the remaining `count - 1` are guaranteed hits that each
    /// advance the tick and re-stamp the entry.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, in every profile: an empty run would
    /// still count one miss and wrap the hit counter below zero.
    pub fn access_run(&mut self, key: u64, count: usize) -> bool {
        assert!(count > 0, "empty TLB run");
        let final_tick = self.tick + count as u64;
        if let Some(ts) = self.stamp_of(key) {
            *ts = final_tick;
            self.tick = final_tick;
            self.hits += count as u64;
            return true;
        }
        // Miss on the first lookup; the eviction decision is taken before
        // the new entry is inserted, exactly as `access` would take it.
        self.tick = final_tick;
        self.misses += 1;
        self.hits += (count - 1) as u64;
        self.fill(key, final_tick);
        false
    }

    /// The timestamp of resident `key`, if any.
    #[inline]
    fn stamp_of(&mut self, key: u64) -> Option<&mut u64> {
        let &slot = self.index.get(&key)?;
        Some(&mut self.slots[slot as usize].1)
    }

    /// Inserts non-resident `key` stamped `tick`, replacing the
    /// least-recently-used entry in place when the TLB is full.
    fn fill(&mut self, key: u64, tick: u64) {
        if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len() as u32);
            self.slots.push((key, tick));
            return;
        }
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (slot, &(_, ts)) in self.slots.iter().enumerate() {
            if ts < oldest {
                oldest = ts;
                victim = slot;
            }
        }
        self.index.remove(&self.slots[victim].0);
        self.index.insert(key, victim as u32);
        self.slots[victim] = (key, tick);
    }

    /// Invalidates a single entry, as a TLB shootdown for one unit would.
    pub fn invalidate(&mut self, key: u64) {
        if let Some(slot) = self.index.remove(&key) {
            self.slots.swap_remove(slot as usize);
            if let Some(&(moved, _)) = self.slots.get(slot as usize) {
                self.index.insert(moved, slot);
            }
        }
    }

    /// Invalidates every entry whose key satisfies `pred` (range shootdown).
    pub fn invalidate_where(&mut self, mut pred: impl FnMut(u64) -> bool) {
        let before = self.slots.len();
        self.slots.retain(|&(k, _)| !pred(k));
        if self.slots.len() != before {
            self.index.clear();
            for (slot, &(k, _)) in self.slots.iter().enumerate() {
                self.index.insert(k, slot as u32);
            }
        }
    }

    /// The keys of every resident entry, in unspecified order. Used by the
    /// machine invariant auditor.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().map(|&(k, _)| k)
    }

    /// Drops all entries (full flush), keeping the counters.
    pub fn flush(&mut self) {
        self.index.clear();
        self.slots.clear();
    }

    /// Zeroes the hit/miss counters, keeping the entries. Used to scope the
    /// post-migration TLB-miss measurement to one application iteration.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Adds another TLB's hit/miss counters into this one (deterministic
    /// core merge: entries are discarded, totals are summed).
    pub(crate) fn absorb_counters(&mut self, other: &Tlb) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.access(1));
        assert!(tlb.access(1));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.access(1);
        tlb.access(2);
        tlb.access(1); // 2 is now LRU
        tlb.access(3); // evicts 2
        assert!(tlb.access(1));
        assert!(!tlb.access(2));
    }

    #[test]
    fn capacity_is_respected() {
        let mut tlb = Tlb::new(8);
        for k in 0..100 {
            tlb.access(k);
        }
        assert_eq!(tlb.len(), 8);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut tlb = Tlb::new(4);
        tlb.access(7);
        tlb.invalidate(7);
        assert!(!tlb.access(7));
    }

    #[test]
    fn invalidate_where_is_selective() {
        let mut tlb = Tlb::new(8);
        for k in 0..6 {
            tlb.access(k);
        }
        tlb.invalidate_where(|k| k % 2 == 0);
        assert_eq!(tlb.len(), 3);
        assert!(tlb.access(1));
        assert!(!tlb.access(0));
    }

    /// The dense slot table (in-place victim replacement, swap-removal on
    /// invalidation, re-indexing after a range shootdown) behaves exactly
    /// like a plain key → timestamp LRU map under random traffic.
    #[test]
    fn slot_table_matches_a_reference_lru() {
        let cap = 8;
        let mut tlb = Tlb::new(cap);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut tick = 0u64;
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..5_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 20;
            match (state >> 60) % 8 {
                0 => {
                    tlb.invalidate(key);
                    reference.remove(&key);
                }
                1 => {
                    tlb.invalidate_where(|k| k % 7 == key % 7);
                    reference.retain(|&k, _| k % 7 != key % 7);
                }
                _ => {
                    tick += 1;
                    let hit = reference.contains_key(&key);
                    if !hit && reference.len() >= cap {
                        let (&victim, _) = reference.iter().min_by_key(|&(_, &ts)| ts).unwrap();
                        reference.remove(&victim);
                    }
                    reference.insert(key, tick);
                    assert_eq!(tlb.access(key), hit, "outcome diverges for key {key}");
                }
            }
            let mut keys: Vec<u64> = tlb.keys().collect();
            let mut want: Vec<u64> = reference.keys().copied().collect();
            keys.sort_unstable();
            want.sort_unstable();
            assert_eq!(keys, want, "resident sets diverge");
        }
    }

    #[test]
    fn access_run_matches_the_per_element_loop() {
        let mut batched = Tlb::new(4);
        let mut looped = Tlb::new(4);
        // Runs interleaved with competing keys, enough to force evictions.
        for &(key, count) in &[
            (1u64, 5usize),
            (2, 3),
            (1, 2),
            (3, 1),
            (4, 7),
            (5, 2),
            (1, 4),
            (6, 1),
            (2, 6),
        ] {
            let first_batched = batched.access_run(key, count);
            let first_looped = looped.access(key);
            for _ in 1..count {
                assert!(looped.access(key), "repeat of key {key} must hit");
            }
            assert_eq!(first_batched, first_looped, "outcome for key {key}");
        }
        assert_eq!(batched.hits(), looped.hits());
        assert_eq!(batched.misses(), looped.misses());
        // The LRU state is identical too: future evictions agree.
        for k in 100..120 {
            assert_eq!(batched.access(k), looped.access(k));
        }
    }

    /// The zero-count guard is a hard check: a release build must not
    /// charge a phantom miss and wrap the hit counter.
    #[test]
    #[should_panic(expected = "empty TLB run")]
    fn empty_access_run_is_rejected() {
        let mut tlb = Tlb::new(4);
        tlb.access_run(1, 0);
    }

    #[test]
    fn reset_counters_keeps_entries() {
        let mut tlb = Tlb::new(4);
        tlb.access(1);
        tlb.reset_counters();
        assert_eq!(tlb.misses(), 0);
        assert!(tlb.access(1), "entry should have survived the reset");
    }
}
