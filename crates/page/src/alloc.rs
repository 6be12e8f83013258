//! Global shared-memory region allocator.
//!
//! The DSM hands out ranges of the global address space to the application
//! before the parallel section starts (TreadMarks' `Tmk_malloc`).  A simple
//! bump allocator is sufficient: regions are never freed during a run, and
//! the interesting property for the false-sharing study is *placement* —
//! whether two logically distinct objects share a page — which the alignment
//! options control.

use crate::layout::{GlobalAddr, PageLayout, PAGE_SIZE, WORD_SIZE};

/// Alignment policy for a shared allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Natural word alignment; consecutive allocations may share a page,
    /// which is exactly how false sharing between unrelated objects arises.
    Word,
    /// Align to the given power-of-two byte boundary.
    Bytes(usize),
    /// Start the allocation on a fresh hardware page.
    Page,
}

impl Align {
    /// The boundary, in bytes, an allocation of this alignment starts on.
    ///
    /// # Panics
    /// Panics if an [`Align::Bytes`] boundary is not a power of two.
    pub fn bytes(self) -> usize {
        match self {
            Align::Word => WORD_SIZE,
            Align::Bytes(b) => {
                assert!(b.is_power_of_two(), "alignment must be a power of two");
                b
            }
            Align::Page => PAGE_SIZE,
        }
    }
}

/// Bump allocator over the global address space.
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    layout: PageLayout,
    next: u64,
}

/// Error returned when the shared space is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfSharedMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes that remained available.
    pub available: u64,
}

impl std::fmt::Display for OutOfSharedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of shared memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfSharedMemory {}

impl RegionAllocator {
    /// Create an allocator covering the whole layout.
    pub fn new(layout: PageLayout) -> Self {
        RegionAllocator { layout, next: 0 }
    }

    /// Bytes not yet handed out.
    pub fn remaining(&self) -> u64 {
        self.layout.total_bytes() - self.next
    }

    /// Bytes handed out so far (including alignment padding).
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Allocate `bytes` bytes with the requested alignment.
    pub fn alloc(&mut self, bytes: u64, align: Align) -> Result<GlobalAddr, OutOfSharedMemory> {
        let alignment = align.bytes() as u64;
        let base = self.next.div_ceil(alignment) * alignment;
        let end = base.checked_add(bytes).ok_or(OutOfSharedMemory {
            requested: bytes,
            available: self.remaining(),
        })?;
        if end > self.layout.total_bytes() {
            return Err(OutOfSharedMemory {
                requested: bytes,
                available: self.remaining(),
            });
        }
        self.next = end;
        Ok(GlobalAddr(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageLayout;

    #[test]
    fn bump_allocations_do_not_overlap() {
        let mut a = RegionAllocator::new(PageLayout::new(4096, 4));
        let x = a.alloc(100, Align::Word).unwrap();
        let y = a.alloc(100, Align::Word).unwrap();
        assert!(y.0 >= x.0 + 100);
    }

    #[test]
    fn page_alignment() {
        let mut a = RegionAllocator::new(PageLayout::new(4096, 4));
        a.alloc(10, Align::Word).unwrap();
        let p = a.alloc(4096, Align::Page).unwrap();
        assert_eq!(p.0 % 4096, 0);
        assert_eq!(p.0, 4096);
    }

    #[test]
    fn custom_alignment() {
        let mut a = RegionAllocator::new(PageLayout::new(4096, 4));
        a.alloc(3, Align::Word).unwrap();
        let x = a.alloc(8, Align::Bytes(64)).unwrap();
        assert_eq!(x.0 % 64, 0);
    }

    #[test]
    fn exhaustion_reports_error() {
        let mut a = RegionAllocator::new(PageLayout::new(4096, 1));
        a.alloc(4000, Align::Word).unwrap();
        let err = a.alloc(200, Align::Word).unwrap_err();
        assert_eq!(err.requested, 200);
        assert!(err.available < 200);
    }

    #[test]
    fn word_packing_shares_pages() {
        // Two small allocations land on the same page — the placement that
        // creates false sharing between unrelated objects.
        let mut a = RegionAllocator::new(PageLayout::new(4096, 4));
        let layout = PageLayout::new(4096, 4);
        let x = a.alloc(16, Align::Word).unwrap();
        let y = a.alloc(16, Align::Word).unwrap();
        assert_eq!(layout.page_of(x), layout.page_of(y));
    }
}
