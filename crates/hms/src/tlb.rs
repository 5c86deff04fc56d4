//! LRU translation-lookaside buffer model.
//!
//! One entry covers one mapping unit: a 4 KiB page of a base mapping or a
//! whole 2 MiB huge mapping (keys produced by
//! [`Mapping::tlb_key`](crate::mapping::Mapping::tlb_key)). A miss costs a
//! page walk in the cost model; counting misses after migration is how the
//! simulator reproduces Table 4 of the paper.

use std::collections::HashMap;

/// Slots in the window side-memo (see [`Tlb::window_access_run`]). A
/// power of two so the slot index is a multiplicative hash of the key.
const MEMO_SLOTS: usize = 64;

/// LRU TLB with a fixed number of entries.
///
/// Resident entries live densely in `slots` as `(key, timestamp)` pairs
/// with a monotonically increasing timestamp, indexed by a hash map from
/// key to slot. A miss at capacity evicts the least-recently-used entry
/// found by a linear scan of `slots`. Capacity is small (~1.5 K entries),
/// and a dense slice keeps that O(n) scan a tight loop over contiguous
/// memory. Timestamps are unique, so the victim never depends on slot
/// order.
///
/// ## The window side-memo
///
/// The batched window engine probes the TLB once per cache-line run, and
/// irregular windows revisit a small set of hot translation units over and
/// over. For those, the full hash-map probe only serves to re-stamp an
/// entry that is already known to be resident. The memo is a tiny
/// direct-mapped cache of recently probed keys whose re-stamps are
/// *deferred*: a memo hit bumps the tick and hit counter eagerly (so
/// interleaved real probes stamp correct timestamps) and records the
/// entry's final timestamp in the memo instead of the map.
///
/// Deferral is sound because entry timestamps are only ever *read* by the
/// LRU eviction scan: every deferred re-stamp is applied (flushed) before
/// an eviction decision and before any non-window operation touches the
/// table, so observable behaviour — hit/miss outcomes, counters, and every
/// future eviction — is bit-identical to eager per-access re-stamping.
/// This is a window-path optimisation by construction: the scalar access
/// path has no flush contract, so its re-stamps must be eager and gain
/// nothing from the memo.
#[derive(Debug)]
pub struct Tlb {
    index: HashMap<u64, u32>,
    slots: Vec<(u64, u64)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    memo_keys: [u64; MEMO_SLOTS],
    memo_ticks: [u64; MEMO_SLOTS],
    memo_occ: u64,
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
            memo_keys: [0; MEMO_SLOTS],
            memo_ticks: [0; MEMO_SLOTS],
            memo_occ: 0,
        }
    }

    /// Direct-mapped memo slot for `key` (Fibonacci multiplicative hash,
    /// top bits).
    #[inline]
    fn memo_slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
    }

    /// Applies every deferred re-stamp and empties the memo. Must run
    /// before any timestamp read (the eviction scan) and before any
    /// non-window mutation of the table.
    fn memo_flush(&mut self) {
        let mut occ = self.memo_occ;
        self.memo_occ = 0;
        while occ != 0 {
            let s = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let memo_tick = self.memo_ticks[s];
            if let Some(ts) = self.stamp_of(self.memo_keys[s]) {
                *ts = memo_tick;
            }
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
        if self.memo_occ != 0 {
            self.memo_flush();
        }
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
    /// Panics in debug builds if `count` is zero.
    pub fn access_run(&mut self, key: u64, count: usize) -> bool {
        debug_assert!(count > 0, "empty TLB run");
        if self.memo_occ != 0 {
            self.memo_flush();
        }
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

    /// Batched window lookup: like [`access_run`](Tlb::access_run) but
    /// through the window side-memo, so a key probed earlier on the window
    /// path skips the hash-map probe entirely and has its re-stamp
    /// deferred. Hit/miss outcomes, counters and all future evictions are
    /// identical to `count` scalar [`access`](Tlb::access) calls.
    ///
    /// Only the batched window engine may use this: correctness relies on
    /// every interleaved non-window operation flushing the memo first,
    /// which [`access`]/[`access_run`]/the shootdown paths do.
    ///
    /// [`access`]: Tlb::access
    /// [`access_run`]: Tlb::access_run
    pub(crate) fn window_access_run(&mut self, key: u64, count: usize) -> bool {
        debug_assert!(count > 0, "empty TLB run");
        let s = Self::memo_slot(key);
        let bit = 1u64 << s;
        if self.memo_occ & bit != 0 && self.memo_keys[s] == key {
            // Memo hit: the key is guaranteed resident, so the scalar loop
            // would hit. Tick and hit counter advance eagerly (interleaved
            // real probes must stamp correct timestamps); the entry's
            // re-stamp stays deferred in the memo.
            self.tick += count as u64;
            self.hits += count as u64;
            self.memo_ticks[s] = self.tick;
            return true;
        }
        // Real probe. A hit re-stamps eagerly; a miss that evicts must
        // first apply every deferred re-stamp so the LRU scan sees the
        // timestamps the scalar loop would have written.
        let final_tick = self.tick + count as u64;
        self.tick = final_tick;
        let hit = if let Some(ts) = self.stamp_of(key) {
            *ts = final_tick;
            self.hits += count as u64;
            true
        } else {
            self.misses += 1;
            self.hits += (count - 1) as u64;
            if self.slots.len() >= self.capacity {
                self.memo_flush();
            }
            self.fill(key, final_tick);
            false
        };
        // Install the key in the memo, settling any colliding occupant's
        // deferred re-stamp first.
        if self.memo_occ & bit != 0 {
            let memo_tick = self.memo_ticks[s];
            if let Some(ts) = self.stamp_of(self.memo_keys[s]) {
                *ts = memo_tick;
            }
        }
        self.memo_keys[s] = key;
        self.memo_ticks[s] = final_tick;
        self.memo_occ |= bit;
        hit
    }

    /// Settles `count` deferred guaranteed hits of `key` accumulated by the
    /// window engine's line-run coalescing. `key` was probed via
    /// [`window_access_run`](Tlb::window_access_run) when the run opened and
    /// no other TLB operation has intervened, so it is still in the memo;
    /// the fallback probe is defensive.
    pub(crate) fn window_settle(&mut self, key: u64, count: usize) {
        debug_assert!(count > 0, "empty TLB settle");
        let s = Self::memo_slot(key);
        if self.memo_occ & (1 << s) != 0 && self.memo_keys[s] == key {
            self.tick += count as u64;
            self.hits += count as u64;
            self.memo_ticks[s] = self.tick;
        } else {
            debug_assert!(false, "settled key lost from the window memo");
            self.access_run(key, count);
        }
    }

    /// The timestamp of resident `key`, if any.
    #[inline]
    fn stamp_of(&mut self, key: u64) -> Option<&mut u64> {
        let &slot = self.index.get(&key)?;
        Some(&mut self.slots[slot as usize].1)
    }

    /// Inserts non-resident `key` stamped `tick`, replacing the
    /// least-recently-used entry in place when the TLB is full. Deferred
    /// window re-stamps must already be flushed.
    fn fill(&mut self, key: u64, tick: u64) {
        if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len() as u32);
            self.slots.push((key, tick));
            return;
        }
        debug_assert_eq!(self.memo_occ, 0, "eviction with deferred re-stamps");
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
        if self.memo_occ != 0 {
            self.memo_flush();
        }
        if let Some(slot) = self.index.remove(&key) {
            self.slots.swap_remove(slot as usize);
            if let Some(&(moved, _)) = self.slots.get(slot as usize) {
                self.index.insert(moved, slot);
            }
        }
    }

    /// Invalidates every entry whose key satisfies `pred` (range shootdown).
    pub fn invalidate_where(&mut self, mut pred: impl FnMut(u64) -> bool) {
        if self.memo_occ != 0 {
            self.memo_flush();
        }
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
    /// machine invariant auditor; safe without a memo flush because the
    /// window memo only defers LRU timestamp re-stamps, never insertions.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().map(|&(k, _)| k)
    }

    /// Drops all entries (full flush), keeping the counters.
    pub fn flush(&mut self) {
        self.memo_occ = 0;
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

    #[test]
    fn window_api_matches_the_per_element_loop() {
        let mut windowed = Tlb::new(3);
        let mut looped = Tlb::new(3);
        // A mix of window probes (memo path), interleaved scalar accesses
        // (which flush the memo) and enough distinct keys to force
        // evictions with re-stamps still deferred. Keys 1 and 56 share a
        // memo slot, exercising the colliding-occupant settle.
        let script: &[(u64, usize, bool)] = &[
            (1, 2, true),  // window probe, miss, fills
            (1, 3, true),  // memo hit
            (56, 1, true), // memo collision with 1: settles 1, installs 56
            (2, 1, true),  // miss, fills
            (1, 2, true),  // real probe (memo slot lost), hit
            (3, 1, true),  // miss, full: eviction flushes deferred stamps
            (1, 1, false), // scalar access: flushes the memo
            (2, 2, true),
            (3, 1, true),
            (4, 2, true), // eviction again
            (1, 4, true),
        ];
        for &(key, count, window) in script {
            let got = if window {
                windowed.window_access_run(key, count)
            } else {
                for _ in 1..count {
                    windowed.access(key);
                }
                windowed.access(key)
            };
            let mut want = false;
            for _ in 0..count {
                want = looped.access(key);
            }
            // `access_run` reports the first outcome, the loop's last — on
            // count > 1 both end resident, so only compare for count == 1.
            if count == 1 {
                assert_eq!(got, want, "outcome for key {key}");
            }
            assert_eq!(windowed.hits(), looped.hits(), "hits after key {key}");
            assert_eq!(windowed.misses(), looped.misses(), "misses after key {key}");
        }
        // Replacement state is identical: future evictions agree.
        for k in 100..130 {
            assert_eq!(windowed.access(k), looped.access(k), "probe of {k}");
        }
        assert_eq!(windowed.hits(), looped.hits());
        assert_eq!(windowed.misses(), looped.misses());
    }

    #[test]
    fn deferred_restamps_reach_the_eviction_scan() {
        let mut tlb = Tlb::new(2);
        assert!(!tlb.window_access_run(1, 1)); // fills 1 (stamp 1)
        assert!(!tlb.window_access_run(2, 1)); // fills 2 (stamp 2)
        assert!(tlb.window_access_run(1, 3)); // memo hit: 1 re-stamped to 5, deferred
                                              // Without the flush-before-evict the scan would see 1's stale
                                              // stamp (1 < 2) and evict 1; the deferred re-stamp makes 2 LRU.
        assert!(!tlb.access(3), "3 must miss");
        assert!(tlb.access(1), "re-stamped 1 must survive the eviction");
        assert!(!tlb.access(2), "2 was LRU and must have been evicted");
        assert_eq!(tlb.hits(), 4);
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
