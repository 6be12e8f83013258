//! Global address space layout: pages, words, and address arithmetic.
//!
//! The DSM exposes a single flat, byte-addressed *global* address space that
//! every processor shares.  The space is carved into fixed-size *hardware
//! pages*; the hardware page is the granularity at which twins and diffs are
//! made, and the smallest possible consistency unit.  Word granularity
//! (32-bit) is the granularity at which diffs record modifications and at
//! which the useful/useless-data classifier attributes delivered data.

/// Size in bytes of the diff/attribution word.  TreadMarks diffs record
/// modifications at 32-bit granularity; the paper's instrumentation counts
/// useful/useless data per word.
pub const WORD_SIZE: usize = 4;

/// Identifier of one hardware page of the global address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Numeric index of the page.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// A byte offset into the global shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalAddr(pub u64);

impl GlobalAddr {
    /// Byte offset from the start of the shared space.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0
    }

    /// Address `bytes` bytes past `self`.
    #[inline]
    pub fn add(self, bytes: u64) -> GlobalAddr {
        GlobalAddr(self.0 + bytes)
    }
}

impl std::fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g+0x{:x}", self.0)
    }
}

/// Describes the geometry of the paged global address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    page_size: usize,
    /// `log2(page_size)`: the page size is a power of two, so splitting an
    /// address into page and offset is a shift and a mask.
    page_shift: u32,
    total_pages: u32,
}

impl PageLayout {
    /// Create a layout with the given hardware page size (bytes) and total
    /// number of pages.
    ///
    /// # Panics
    /// Panics if `page_size` is zero, not a multiple of [`WORD_SIZE`], or not
    /// a power of two, or if `total_pages` is zero.
    pub fn new(page_size: usize, total_pages: u32) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        assert!(
            page_size % WORD_SIZE == 0,
            "page size must be a multiple of the {WORD_SIZE}-byte word"
        );
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(total_pages > 0, "layout must contain at least one page");
        PageLayout {
            page_size,
            page_shift: page_size.trailing_zeros(),
            total_pages,
        }
    }

    /// Hardware page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of 32-bit words per hardware page.
    #[inline]
    pub fn words_per_page(&self) -> usize {
        self.page_size / WORD_SIZE
    }

    /// Total number of hardware pages in the shared space.
    #[inline]
    pub fn total_pages(&self) -> u32 {
        self.total_pages
    }

    /// Total size of the shared space in bytes.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.page_size as u64 * self.total_pages as u64
    }

    /// The layout truncated to the pages that can actually be touched: the
    /// smallest prefix of the space covering `used_bytes`, rounded up to a
    /// multiple of `unit_pages` (never past the full layout, never below
    /// one page).
    ///
    /// Per-page protocol state (page stores, metadata, home directories,
    /// race shadows) is sized by `total_pages`, so a configuration that
    /// reserves a generous address space pays for pages no application
    /// ever allocates — at 1024 processors the zero-filled tables dominate
    /// host memory.  Sizing them by the allocator's high-water mark instead
    /// is invisible to the simulation: addresses beyond `used_bytes` are
    /// never issued, and rounding up to whole consistency units keeps the
    /// unit policy's end-of-space clamp away from any reachable page, so
    /// unit shapes are bit-identical to the full layout.
    pub fn truncated_to(&self, used_bytes: u64, unit_pages: u32) -> PageLayout {
        let unit = unit_pages.max(1) as u64;
        let used_pages = used_bytes.div_ceil(self.page_size as u64).max(1);
        let rounded = used_pages.div_ceil(unit) * unit;
        PageLayout {
            total_pages: rounded.min(self.total_pages as u64) as u32,
            ..*self
        }
    }

    /// Page containing the byte at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is outside the space.
    #[inline]
    pub fn page_of(&self, addr: GlobalAddr) -> PageId {
        assert!(
            addr.0 < self.total_bytes(),
            "address {addr} outside shared space of {} bytes",
            self.total_bytes()
        );
        PageId((addr.0 >> self.page_shift) as u32)
    }

    /// Byte offset of `addr` within its page.
    #[inline]
    pub fn offset_in_page(&self, addr: GlobalAddr) -> usize {
        (addr.0 & (self.page_size as u64 - 1)) as usize
    }

    /// Indices of the first and last page the byte range
    /// `[addr, addr + len)` touches, or `None` for an empty range.
    ///
    /// # Panics
    /// Panics if the range does not lie inside the space (an end that
    /// overflows `u64` lies outside it).
    #[inline]
    pub fn page_span(&self, addr: GlobalAddr, len: u64) -> Option<(u32, u32)> {
        if len == 0 {
            return None;
        }
        let end = addr.0.checked_add(len);
        assert!(
            end.is_some_and(|end| end <= self.total_bytes()),
            "range [{addr}, +{len}) exceeds shared space of {} bytes",
            self.total_bytes()
        );
        let last = addr.0 + (len - 1);
        Some((
            (addr.0 >> self.page_shift) as u32,
            (last >> self.page_shift) as u32,
        ))
    }

    /// Range of word indices within a page covered by the byte range
    /// `[offset, offset + len)` of that page (any byte of a word counts).
    #[inline]
    pub fn words_covering(&self, offset: usize, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        debug_assert!(offset + len <= self.page_size);
        (offset / WORD_SIZE)..((offset + len - 1) / WORD_SIZE + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_basic_geometry() {
        let l = PageLayout::new(4096, 16);
        assert_eq!(l.page_size(), 4096);
        assert_eq!(l.words_per_page(), 1024);
        assert_eq!(l.total_pages(), 16);
        assert_eq!(l.total_bytes(), 65536);
    }

    #[test]
    fn page_of_and_offsets() {
        let l = PageLayout::new(4096, 16);
        assert_eq!(l.page_of(GlobalAddr(0)), PageId(0));
        assert_eq!(l.page_of(GlobalAddr(4095)), PageId(0));
        assert_eq!(l.page_of(GlobalAddr(4096)), PageId(1));
        assert_eq!(l.offset_in_page(GlobalAddr(4100)), 4);
    }

    #[test]
    #[should_panic(expected = "outside shared space")]
    fn page_of_out_of_range_panics() {
        let l = PageLayout::new(4096, 2);
        l.page_of(GlobalAddr(8192));
    }

    #[test]
    #[should_panic(expected = "exceeds shared space")]
    fn range_whose_end_overflows_fails_the_range_check() {
        let l = PageLayout::new(4096, 8);
        l.page_span(GlobalAddr(u64::MAX - 3), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds shared space")]
    fn range_of_maximal_length_fails_the_range_check() {
        let l = PageLayout::new(4096, 8);
        l.page_span(GlobalAddr(1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds shared space")]
    fn range_ending_one_byte_past_the_space_panics() {
        let l = PageLayout::new(4096, 8);
        l.page_span(GlobalAddr(8 * 4096 - 7), 8);
    }

    #[test]
    fn range_ending_exactly_at_the_end_and_empty_ranges_are_fine() {
        let l = PageLayout::new(4096, 8);
        assert_eq!(l.page_span(GlobalAddr(8 * 4096 - 8), 8), Some((7, 7)));
        assert_eq!(l.page_span(GlobalAddr(0), 8 * 4096), Some((0, 7)));
        assert_eq!(l.page_span(GlobalAddr(100), 0), None);
        // An empty range is empty wherever it starts: no range check fires.
        assert_eq!(l.page_span(GlobalAddr(u64::MAX), 0), None);
    }

    #[test]
    fn shift_and_mask_agree_with_division_for_every_page_size() {
        for shift in 6..=16u32 {
            let page_size = 1usize << shift;
            let l = PageLayout::new(page_size, 5);
            let ps = page_size as u64;
            for boundary in 0..=5u64 {
                for addr in [
                    (boundary * ps).wrapping_sub(1),
                    boundary * ps,
                    boundary * ps + 1,
                ] {
                    if addr >= l.total_bytes() {
                        continue;
                    }
                    let a = GlobalAddr(addr);
                    assert_eq!(
                        l.page_of(a),
                        PageId((addr / ps) as u32),
                        "{page_size}@{addr}"
                    );
                    assert_eq!(l.offset_in_page(a), (addr % ps) as usize);
                    assert_eq!(
                        l.page_of(a).0 as u64 * ps + l.offset_in_page(a) as u64,
                        addr
                    );
                    for len in [1, 2, ps - 1, ps, ps + 1, 2 * ps + 1] {
                        if addr + len > l.total_bytes() {
                            continue;
                        }
                        let want = ((addr / ps) as u32, ((addr + len - 1) / ps) as u32);
                        assert_eq!(l.page_span(a, len), Some(want), "{page_size}@{addr}+{len}");
                    }
                }
            }
        }
    }

    #[test]
    fn words_covering_ranges() {
        let l = PageLayout::new(4096, 1);
        assert_eq!(l.words_covering(0, 4), 0..1);
        assert_eq!(l.words_covering(0, 5), 0..2);
        assert_eq!(l.words_covering(2, 4), 0..2);
        assert_eq!(l.words_covering(8, 8), 2..4);
        assert_eq!(l.words_covering(10, 0), 0..0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_size_rejected() {
        PageLayout::new(3000, 4);
    }
}
