//! Adaptive data-chunk geometry (paper §4.1).
//!
//! A data object is split into `N` equal-sized chunks; chunks in different
//! objects may differ in size. The runtime picks the granularity from the
//! object size: large objects get page-multiple chunks near the configured
//! target count, tiny objects become a single chunk. Coarsening the
//! granularity bounds metadata and profiling overhead.

use crate::config::ChunkConfig;

/// Chunk geometry of one data object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGeometry {
    /// Bytes per chunk (a power of two, except possibly when the object is
    /// a single chunk).
    pub chunk_bytes: usize,
    /// Number of chunks (the last chunk may be partially filled).
    pub num_chunks: usize,
}

/// Computes the chunk geometry for an object of `object_bytes` bytes.
///
/// The chunk size is `object_bytes / target_chunks` rounded up to a power
/// of two and clamped to `[min_chunk_bytes, object_bytes]`.
///
/// # Panics
///
/// Panics if `object_bytes` is zero.
pub fn chunk_geometry(object_bytes: usize, config: &ChunkConfig) -> ChunkGeometry {
    assert!(object_bytes > 0, "objects are non-empty");
    let ideal = object_bytes.div_ceil(config.target_chunks);
    let chunk_bytes = ideal
        .next_power_of_two()
        .max(config.min_chunk_bytes)
        .min(object_bytes.next_power_of_two());
    let num_chunks = object_bytes.div_ceil(chunk_bytes);
    ChunkGeometry {
        chunk_bytes,
        num_chunks,
    }
}

impl ChunkGeometry {
    /// The chunk index containing byte `offset` of the object.
    ///
    /// # Panics
    ///
    /// Panics if the offset is beyond the object, in every profile: the
    /// index would silently charge a sample to a chunk that does not exist.
    #[inline]
    pub fn chunk_of(&self, offset: usize) -> usize {
        let idx = offset / self.chunk_bytes;
        assert!(idx < self.num_chunks, "offset beyond object");
        idx
    }

    /// Byte range `[start, end)` of chunk `idx` within an object of
    /// `object_bytes` bytes (the final chunk is truncated).
    pub fn chunk_span(&self, idx: usize, object_bytes: usize) -> (usize, usize) {
        let start = idx * self.chunk_bytes;
        let end = (start + self.chunk_bytes).min(object_bytes);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(target: usize, min: usize) -> ChunkConfig {
        ChunkConfig {
            target_chunks: target,
            min_chunk_bytes: min,
        }
    }

    #[test]
    fn large_object_hits_target_count() {
        let g = chunk_geometry(64 * 1024 * 1024, &cfg(1024, 4096));
        assert_eq!(g.chunk_bytes, 64 * 1024);
        assert_eq!(g.num_chunks, 1024);
    }

    #[test]
    fn chunk_size_is_clamped_to_minimum() {
        let g = chunk_geometry(1024 * 1024, &cfg(4096, 4096));
        assert_eq!(g.chunk_bytes, 4096);
        assert_eq!(g.num_chunks, 256);
    }

    #[test]
    fn tiny_object_is_one_chunk() {
        let g = chunk_geometry(100, &cfg(1024, 4096));
        assert_eq!(g.num_chunks, 1);
        assert!(g.chunk_bytes >= 100);
    }

    #[test]
    fn non_power_of_two_object_rounds_up() {
        let g = chunk_geometry(3 * 4096 + 17, &cfg(2, 4096));
        // ideal = ceil(12305/2) = 6153 -> 8192.
        assert_eq!(g.chunk_bytes, 8192);
        assert_eq!(g.num_chunks, 2);
    }

    #[test]
    fn chunk_of_and_span_agree() {
        let bytes = 10 * 4096 + 100;
        let g = chunk_geometry(bytes, &cfg(8, 4096));
        for off in [0, 4095, 4096, bytes - 1] {
            let c = g.chunk_of(off);
            let (s, e) = g.chunk_span(c, bytes);
            assert!(off >= s && off < e, "offset {off} chunk {c} span {s}..{e}");
        }
        // Last chunk is truncated to the object size.
        let (_, e) = g.chunk_span(g.num_chunks - 1, bytes);
        assert_eq!(e, bytes);
    }

    /// The bounds guard is a hard check: a release build used to return a
    /// chunk index past the object.
    #[test]
    #[should_panic(expected = "offset beyond object")]
    fn offsets_past_the_object_are_rejected() {
        let g = chunk_geometry(4 * 4096, &cfg(4, 4096));
        g.chunk_of(4 * 4096);
    }

    #[test]
    fn more_target_chunks_means_finer_chunks() {
        let coarse = chunk_geometry(1 << 24, &cfg(64, 4096));
        let fine = chunk_geometry(1 << 24, &cfg(4096, 4096));
        assert!(fine.chunk_bytes < coarse.chunk_bytes);
        assert!(fine.num_chunks > coarse.num_chunks);
    }
}
