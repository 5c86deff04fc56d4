//! A fixed piece of host work that host times are measured against.
//!
//! The machine the benchmark runs on is shared: its speed for this kind
//! of code (hash-map probes, data-dependent branches, random reads of a
//! few hundred KiB) swings by up to 1.7x for seconds to minutes at a time,
//! while simple ALU, L2 and DRAM-latency loops barely move. A pass's raw
//! host time therefore drifts with the machine, not with the program. The
//! yardstick is work of the simulator's kind that never changes; it runs
//! on the same thread between the steps of every pass, so it sees the
//! same machine the steps saw moments before. A pass's time divided by
//! the yardstick's mean time is how many yardsticks the pass is worth,
//! which tracks the program and not the machine.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Hash-map updates per yardstick.
const PROBES: u64 = 60_000;
/// Distinct keys those updates hit.
const KEYS: u64 = 20_000;
/// Elements sorted per yardstick.
const SORTED: usize = 20_000;

/// The yardstick's work, from `seed`: map updates and lookups over a
/// SipHash map, then an unstable sort of pseudo-random values. Returns a
/// value that depends on all of it.
pub fn work(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0;
    for i in 0..PROBES {
        let r = next();
        let k = r % KEYS;
        *map.entry(k).or_insert(0) += i;
        if r & 7 == 0 {
            acc ^= map.get(&(k ^ 1)).copied().unwrap_or(3);
        }
    }
    let mut v: Vec<u32> = (0..SORTED).map(|_| next() as u32).collect();
    v.sort_unstable();
    acc ^ u64::from(v[SORTED / 2]) ^ map.len() as u64
}

/// Runs the yardstick once and returns its host seconds.
pub fn time(seed: u64) -> f64 {
    let t0 = Instant::now();
    black_box(work(black_box(seed)));
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_a_pure_function_of_the_seed() {
        assert_eq!(work(5), work(5));
        assert_ne!(work(5), work(6));
        assert!(time(5) > 0.0);
    }
}
