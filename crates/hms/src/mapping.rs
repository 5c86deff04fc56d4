//! Virtual-to-physical mapping table.
//!
//! Every mapped virtual region is described by a [`Mapping`]: a run of
//! virtually contiguous 4 KiB pages backed by *physically contiguous* frames
//! on one tier. A mapping is either a 2 MiB huge mapping (512 pages, one TLB
//! entry) or a base mapping of one or more 4 KiB pages (one TLB entry per
//! page).
//!
//! The `mbind` baseline migration *splinters* huge mappings into per-page
//! base mappings with scattered frames — this is the source of its post-
//! migration TLB blowup (paper §2.3, Table 4). The ATMem optimizer instead
//! *remaps* whole regions to fresh contiguous frames, recreating huge
//! mappings where alignment permits (§4.4).

use std::collections::BTreeMap;

use crate::addr::{Frame, VirtAddr, VirtRange, HUGE_PAGE_FRAMES, PAGE_SHIFT, PAGE_SIZE};
use crate::error::{HmsError, Result};
use crate::tier::TierId;

/// Granularity of one mapping, which determines TLB reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// 4 KiB pages: one TLB entry per page.
    Base4K,
    /// A 2 MiB huge mapping: one TLB entry covers all 512 pages.
    Huge2M,
}

/// One contiguous virtual→physical mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// First virtual page index covered.
    pub vpage_start: u64,
    /// Number of 4 KiB pages covered.
    pub pages: u32,
    /// Tier holding the backing frames.
    pub tier: TierId,
    /// First frame index; frames are contiguous within a mapping.
    pub frame_start: u32,
    /// Mapping granularity.
    pub kind: PageKind,
}

impl Mapping {
    /// Virtual byte range covered by the mapping.
    pub fn vrange(&self) -> VirtRange {
        VirtRange::new(
            VirtAddr::new(self.vpage_start << PAGE_SHIFT),
            (self.pages as usize) << PAGE_SHIFT,
        )
    }

    /// Translates a virtual address inside this mapping to its frame and
    /// in-frame offset.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `va` is outside the mapping.
    pub fn translate(&self, va: VirtAddr) -> (Frame, usize) {
        let vpage = va.page_index();
        debug_assert!(
            vpage >= self.vpage_start && vpage < self.vpage_start + self.pages as u64,
            "translate outside mapping"
        );
        let frame_index = self.frame_start + (vpage - self.vpage_start) as u32;
        (Frame::new(self.tier, frame_index), va.page_offset())
    }

    /// The TLB key for an access at `va` under this mapping.
    ///
    /// Huge mappings share one key per 2 MiB unit. Base mappings normally
    /// take one key per page, but when the platform models TLB coalescing
    /// (`coalesce > 1`, as KNL-class cores do for physically contiguous
    /// neighbouring pages) a group of `coalesce` pages that is *fully
    /// covered by one mapping* shares a key — contiguous remapped regions
    /// coalesce, `mbind`-splintered per-page mappings do not. Kind and
    /// grouping are tag-encoded so keys never alias across granularities.
    pub fn tlb_key(&self, va: VirtAddr, coalesce: usize) -> u64 {
        let vpage = va.page_index();
        match self.kind {
            PageKind::Huge2M => {
                let unit = vpage / HUGE_PAGE_FRAMES as u64;
                (unit << 2) | 2
            }
            PageKind::Base4K => {
                if coalesce > 1 {
                    let group = vpage / coalesce as u64;
                    let group_start = group * coalesce as u64;
                    let group_end = group_start + coalesce as u64;
                    if self.vpage_start <= group_start
                        && group_end <= self.vpage_start + self.pages as u64
                    {
                        return (group << 2) | 1;
                    }
                }
                vpage << 2
            }
        }
    }

    /// Number of TLB entries required to cover the whole mapping, given the
    /// platform's coalescing factor (1 = none).
    pub fn tlb_entry_count(&self, coalesce: usize) -> usize {
        match self.kind {
            PageKind::Huge2M => (self.pages as usize).div_ceil(HUGE_PAGE_FRAMES),
            PageKind::Base4K => {
                if coalesce > 1 {
                    // Whole groups covered by the mapping coalesce; edge
                    // pages outside full groups take one entry each.
                    let start = self.vpage_start;
                    let end = start + self.pages as u64;
                    let first_full = start.next_multiple_of(coalesce as u64);
                    let last_full = (end / coalesce as u64) * coalesce as u64;
                    if first_full < last_full {
                        let groups = ((last_full - first_full) / coalesce as u64) as usize;
                        let head = (first_full - start) as usize;
                        let tail = (end - last_full) as usize;
                        groups + head + tail
                    } else {
                        self.pages as usize
                    }
                } else {
                    self.pages as usize
                }
            }
        }
    }
}

/// The machine-wide mapping table.
///
/// Keyed by first virtual page; mappings never overlap. The table keeps no
/// lookup cache: the hot translation path memoizes through its core's
/// one-entry memo instead (see [`CoreCtx`](crate::shard::CoreCtx)).
#[derive(Debug, Default)]
pub struct MappingTable {
    map: BTreeMap<u64, Mapping>,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MappingTable::default()
    }

    /// Number of mappings in the table.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table has no mappings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts a mapping.
    ///
    /// # Panics
    ///
    /// Panics in every profile if the mapping overlaps an existing one:
    /// an overlapping insert would silently replace a mapping that starts
    /// at the same page, or shadow the pages of one that covers them, and
    /// leak its frames.
    pub fn insert(&mut self, m: Mapping) {
        // The last mapping starting before `m` ends must end by `m`'s start.
        let end = m.vpage_start + m.pages as u64;
        let clear = self
            .map
            .range(..end)
            .next_back()
            .is_none_or(|(_, prev)| prev.vpage_start + prev.pages as u64 <= m.vpage_start);
        assert!(
            clear,
            "overlapping mapping inserted at vpage {:#x}",
            m.vpage_start
        );
        self.map.insert(m.vpage_start, m);
    }

    /// Removes and returns the mapping starting exactly at `vpage_start`.
    pub fn remove(&mut self, vpage_start: u64) -> Option<Mapping> {
        self.map.remove(&vpage_start)
    }

    /// Finds the mapping containing virtual page `vpage`.
    pub fn lookup_page(&self, vpage: u64) -> Option<&Mapping> {
        let (_, m) = self.map.range(..=vpage).next_back()?;
        if vpage < m.vpage_start + m.pages as u64 {
            Some(m)
        } else {
            None
        }
    }

    /// Finds the mapping containing `va`.
    ///
    /// # Errors
    ///
    /// [`HmsError::Unmapped`] if no mapping contains `va`.
    pub fn lookup(&self, va: VirtAddr) -> Result<Mapping> {
        self.lookup_page(va.page_index())
            .copied()
            .ok_or(HmsError::Unmapped(va))
    }

    /// Returns all mappings overlapping the byte range, in address order.
    pub fn overlapping(&self, range: VirtRange) -> Vec<Mapping> {
        if range.len == 0 {
            return Vec::new();
        }
        let first_page = range.start.page_index();
        let last_page = range.end().add(0).raw().wrapping_sub(1) >> PAGE_SHIFT;
        let mut out = Vec::new();
        // A mapping starting before `first_page` may still cover it.
        if let Some(m) = self.lookup_page(first_page) {
            out.push(*m);
        }
        if first_page < last_page {
            for (_, m) in self.map.range(first_page + 1..=last_page) {
                out.push(*m);
            }
        }
        out
    }

    /// Removes every mapping overlapping `range`, returning them.
    ///
    /// Mappings must be fully contained in `range` (the simulator only
    /// migrates page-aligned regions); partial overlap is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if an overlapping mapping extends outside `range`.
    pub fn take_overlapping(&mut self, range: VirtRange) -> Vec<Mapping> {
        let found = self.overlapping(range);
        for m in &found {
            assert!(
                m.vrange().start >= range.start && m.vrange().end() <= range.end(),
                "mapping {:?} partially overlaps migration range {range}",
                m
            );
            self.remove(m.vpage_start);
        }
        found
    }

    /// Iterates over all mappings in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Mapping> {
        self.map.values()
    }
}

/// Splits `m` at virtual page `at_vpage` (strictly inside the mapping),
/// returning the pieces before and after the split point.
///
/// Base mappings split into two base mappings (frames stay contiguous).
/// Huge mappings keep 2 MiB units that remain whole on either side; the
/// unit containing an unaligned split point is demoted to base pages — the
/// same demotion real transparent-huge-page kernels perform when a partial
/// range is remapped.
///
/// # Panics
///
/// Panics if `at_vpage` is not strictly inside the mapping.
pub fn split_mapping(m: &Mapping, at_vpage: u64) -> (Vec<Mapping>, Vec<Mapping>) {
    assert!(
        at_vpage > m.vpage_start && at_vpage < m.vpage_start + m.pages as u64,
        "split point {at_vpage} not inside mapping"
    );
    let piece = |vpage_start: u64, pages: u64, kind: PageKind| Mapping {
        vpage_start,
        pages: pages as u32,
        tier: m.tier,
        frame_start: m.frame_start + (vpage_start - m.vpage_start) as u32,
        kind,
    };
    let end = m.vpage_start + m.pages as u64;
    match m.kind {
        PageKind::Base4K => (
            vec![piece(
                m.vpage_start,
                at_vpage - m.vpage_start,
                PageKind::Base4K,
            )],
            vec![piece(at_vpage, end - at_vpage, PageKind::Base4K)],
        ),
        PageKind::Huge2M => {
            let unit = HUGE_PAGE_FRAMES as u64;
            debug_assert_eq!(m.vpage_start % unit, 0);
            debug_assert_eq!(m.pages as u64 % unit, 0);
            let unit_lo = (at_vpage / unit) * unit; // unit containing the cut
            let unit_hi = unit_lo + unit;
            let mut left = Vec::new();
            let mut right = Vec::new();
            if unit_lo > m.vpage_start {
                left.push(piece(
                    m.vpage_start,
                    unit_lo - m.vpage_start,
                    PageKind::Huge2M,
                ));
            }
            if at_vpage == unit_lo {
                // Aligned cut: both sides keep whole huge units.
                right.push(piece(at_vpage, end - at_vpage, PageKind::Huge2M));
            } else {
                // The broken unit demotes to base pages on both sides.
                left.push(piece(unit_lo, at_vpage - unit_lo, PageKind::Base4K));
                right.push(piece(at_vpage, unit_hi - at_vpage, PageKind::Base4K));
                if end > unit_hi {
                    right.push(piece(unit_hi, end - unit_hi, PageKind::Huge2M));
                }
            }
            (left, right)
        }
    }
}

/// Splits a page count into the maximal huge-mapping prefix and 4 KiB tail,
/// assuming the first page is 2 MiB-aligned. Returns `(huge_units, tail_pages)`.
pub fn split_huge_tail(pages: usize) -> (usize, usize) {
    (pages / HUGE_PAGE_FRAMES, pages % HUGE_PAGE_FRAMES)
}

/// Returns true when a region of `pages` pages starting at virtual page
/// `vpage_start` can use at least one huge mapping.
pub fn huge_eligible(vpage_start: u64, pages: usize) -> bool {
    vpage_start.is_multiple_of(HUGE_PAGE_FRAMES as u64) && pages >= HUGE_PAGE_FRAMES
}

/// Bytes covered by `pages` 4 KiB pages.
pub fn pages_to_bytes(pages: usize) -> usize {
    pages * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(vpage: u64, pages: u32, frame: u32, kind: PageKind) -> Mapping {
        Mapping {
            vpage_start: vpage,
            pages,
            tier: TierId::SLOW,
            frame_start: frame,
            kind,
        }
    }

    #[test]
    fn lookup_finds_containing_mapping() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        t.insert(m(64, 512, 512, PageKind::Huge2M));
        let got = t.lookup(VirtAddr::new(20 << PAGE_SHIFT)).unwrap();
        assert_eq!(got.frame_start, 100);
        let got = t.lookup(VirtAddr::new((64 + 511) << PAGE_SHIFT)).unwrap();
        assert_eq!(got.kind, PageKind::Huge2M);
        assert!(t.lookup(VirtAddr::new(24 << PAGE_SHIFT)).is_err());
    }

    #[test]
    fn translate_is_contiguous_within_mapping() {
        let map = m(16, 8, 100, PageKind::Base4K);
        let (f, off) = map.translate(VirtAddr::new((18 << PAGE_SHIFT) + 7));
        assert_eq!(f.index, 102);
        assert_eq!(off, 7);
    }

    #[test]
    fn tlb_keys_distinguish_kinds() {
        let unit = HUGE_PAGE_FRAMES as u64;
        let huge = m(unit * 8, HUGE_PAGE_FRAMES as u32, 0, PageKind::Huge2M);
        let base = m(unit * 8, HUGE_PAGE_FRAMES as u32, 0, PageKind::Base4K);
        let va = VirtAddr::new((unit * 8) << PAGE_SHIFT);
        assert_ne!(huge.tlb_key(va, 1), base.tlb_key(va, 1));
        // All pages of a huge mapping share one key.
        let va2 = VirtAddr::new((unit * 8 + unit - 1) << PAGE_SHIFT);
        assert_eq!(huge.tlb_key(va, 1), huge.tlb_key(va2, 1));
        assert_ne!(base.tlb_key(va, 1), base.tlb_key(va2, 1));
        // Coalescing groups contiguous pages of one mapping.
        assert_eq!(
            base.tlb_key(va, 8),
            base.tlb_key(VirtAddr::new((unit * 8 + 7) << PAGE_SHIFT), 8)
        );
        assert_ne!(
            base.tlb_key(va, 8),
            base.tlb_key(VirtAddr::new((unit * 8 + 8) << PAGE_SHIFT), 8)
        );
        // A single-page mapping never coalesces.
        let single = m(unit * 8, 1, 0, PageKind::Base4K);
        assert_ne!(single.tlb_key(va, 8), base.tlb_key(va, 8));
    }

    #[test]
    fn tlb_entry_counts() {
        let unit = HUGE_PAGE_FRAMES as u32;
        assert_eq!(m(0, unit, 0, PageKind::Huge2M).tlb_entry_count(1), 1);
        assert_eq!(m(0, 4 * unit, 0, PageKind::Huge2M).tlb_entry_count(1), 4);
        assert_eq!(m(0, 512, 0, PageKind::Base4K).tlb_entry_count(1), 512);
        assert_eq!(m(0, 3, 0, PageKind::Base4K).tlb_entry_count(1), 3);
        // Coalescing: 512 contiguous pages at factor 8 -> 64 entries.
        assert_eq!(m(0, 512, 0, PageKind::Base4K).tlb_entry_count(8), 64);
        // Unaligned head/tail pages count individually: [3, 20) at 8
        // -> head 8-3=5, one full group [8,16), tail 20-16=4 -> 10.
        assert_eq!(m(3, 17, 0, PageKind::Base4K).tlb_entry_count(8), 10);
        // Too short to cover any group.
        assert_eq!(m(1, 4, 0, PageKind::Base4K).tlb_entry_count(8), 4);
    }

    #[test]
    fn overlapping_returns_in_order() {
        let mut t = MappingTable::new();
        t.insert(m(0, 4, 0, PageKind::Base4K));
        t.insert(m(4, 4, 8, PageKind::Base4K));
        t.insert(m(8, 4, 16, PageKind::Base4K));
        let r = VirtRange::new(VirtAddr::new(1 << PAGE_SHIFT), 8 * PAGE_SIZE);
        let got = t.overlapping(r);
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0].vpage_start < w[1].vpage_start));
    }

    #[test]
    fn take_overlapping_removes() {
        let mut t = MappingTable::new();
        t.insert(m(0, 4, 0, PageKind::Base4K));
        t.insert(m(4, 4, 8, PageKind::Base4K));
        let r = VirtRange::new(VirtAddr::new(0), 8 * PAGE_SIZE);
        let got = t.take_overlapping(r);
        assert_eq!(got.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn huge_eligibility() {
        let unit = HUGE_PAGE_FRAMES;
        assert!(huge_eligible(0, unit));
        assert!(huge_eligible(unit as u64, 2 * unit));
        assert!(!huge_eligible(1, unit));
        assert!(!huge_eligible(0, unit - 1));
        assert_eq!(split_huge_tail(2 * unit + 6), (2, 6));
        assert_eq!(pages_to_bytes(3), 3 * PAGE_SIZE);
    }

    #[test]
    fn split_base_mapping_keeps_frame_contiguity() {
        let base = m(16, 8, 100, PageKind::Base4K);
        let (l, r) = split_mapping(&base, 19);
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(
            (l[0].vpage_start, l[0].pages, l[0].frame_start),
            (16, 3, 100)
        );
        assert_eq!(
            (r[0].vpage_start, r[0].pages, r[0].frame_start),
            (19, 5, 103)
        );
        assert_eq!(l[0].kind, PageKind::Base4K);
    }

    #[test]
    fn split_huge_mapping_aligned_keeps_huge() {
        let unit = HUGE_PAGE_FRAMES as u64;
        let huge = m(0, 2 * HUGE_PAGE_FRAMES as u32, 0, PageKind::Huge2M);
        let (l, r) = split_mapping(&huge, unit);
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(l[0].kind, PageKind::Huge2M);
        assert_eq!(r[0].kind, PageKind::Huge2M);
        assert_eq!(r[0].frame_start, HUGE_PAGE_FRAMES as u32);
    }

    #[test]
    fn split_huge_mapping_unaligned_demotes_broken_unit() {
        let unit = HUGE_PAGE_FRAMES as u64;
        // Three huge units, cut 1.5 units in (inside the middle unit).
        let pages = 3 * HUGE_PAGE_FRAMES as u32;
        let cut = unit + unit / 2 + 3;
        let huge = m(0, pages, 0, PageKind::Huge2M);
        let (l, r) = split_mapping(&huge, cut);
        // Left: huge [0,unit) + base [unit,cut). Right: base [cut,2*unit) +
        // huge [2*unit,3*unit).
        assert_eq!(l.len(), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(l[0].kind, PageKind::Huge2M);
        assert_eq!((l[1].vpage_start, l[1].pages as u64), (unit, cut - unit));
        assert_eq!(l[1].kind, PageKind::Base4K);
        assert_eq!((r[0].vpage_start, r[0].pages as u64), (cut, 2 * unit - cut));
        assert_eq!(r[0].kind, PageKind::Base4K);
        assert_eq!(r[1].kind, PageKind::Huge2M);
        // Pieces tile the original and keep frame offsets.
        let total: u32 = l.iter().chain(&r).map(|p| p.pages).sum();
        assert_eq!(total, pages);
        for p in l.iter().chain(&r) {
            assert_eq!(p.frame_start as u64, p.vpage_start, "identity layout");
        }
    }

    #[test]
    #[should_panic(expected = "not inside")]
    fn split_at_start_panics() {
        let base = m(16, 8, 100, PageKind::Base4K);
        let _ = split_mapping(&base, 16);
    }

    #[test]
    fn lookup_after_remove_is_unmapped() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        let _ = t.lookup(VirtAddr::new(16 << PAGE_SHIFT)).unwrap();
        t.remove(16);
        assert!(t.lookup(VirtAddr::new(16 << PAGE_SHIFT)).is_err());
    }

    /// The overlap guard is a hard check: in a release build an
    /// overlapping insert used to replace or shadow a live mapping.
    #[test]
    #[should_panic(expected = "overlapping mapping")]
    fn overlapping_insert_is_rejected() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        t.insert(m(20, 2, 200, PageKind::Base4K));
    }

    /// A mapping that encloses an existing one is an overlap too, although
    /// neither its first nor its last page is mapped.
    #[test]
    #[should_panic(expected = "overlapping mapping")]
    fn enclosing_insert_is_rejected() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        t.insert(m(8, 32, 200, PageKind::Base4K));
    }

    #[test]
    fn adjacent_inserts_are_accepted() {
        let mut t = MappingTable::new();
        t.insert(m(16, 8, 100, PageKind::Base4K));
        t.insert(m(8, 8, 200, PageKind::Base4K));
        t.insert(m(24, 8, 300, PageKind::Base4K));
        assert_eq!(t.len(), 3);
    }
}
