//! Master page copies for the home-based single-writer protocol.
//!
//! Under `tdsm-core`'s `ProtocolMode::HomeBased` every page has a *home*
//! processor that keeps the authoritative copy of its contents.  Writers
//! flush their diffs to the home eagerly at interval close, and faulting
//! processors fetch the *whole page* from the home instead of collecting
//! diffs from concurrent writers.  The [`HomeStore`] is that authoritative
//! copy: diffs are applied to it **in place, without twinning** — the home
//! never needs to know what changed later, it only needs to be current — and
//! whole pages are copied out of it on fetches.
//!
//! Like [`PageStore`](crate::PageStore), pages materialize lazily: a page
//! nobody ever flushed to or wrote through costs nothing and reads as
//! zeroes.

use crate::diff::Diff;
use crate::layout::{PageId, PageLayout};

/// The authoritative (home) copies of the shared pages.
///
/// One instance exists per cluster run and is shared by all simulated
/// processors (in a `RefCell` in `tdsm-core`); on the real system each
/// fragment of it would live in its home node's memory and be reachable only
/// through messages, whose costs the simulated network charges.
#[derive(Debug)]
pub struct HomeStore {
    layout: PageLayout,
    pages: Vec<Option<Box<[u8]>>>,
}

impl HomeStore {
    /// Create an empty (all-zero) store for the given layout.
    pub fn new(layout: PageLayout) -> Self {
        HomeStore {
            layout,
            pages: (0..layout.total_pages()).map(|_| None).collect(),
        }
    }

    /// The layout this store was created with.
    #[inline]
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Number of pages that have been materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    fn page_mut(&mut self, page: PageId) -> &mut [u8] {
        let idx = page.index();
        assert!(idx < self.pages.len(), "{page} outside layout");
        self.pages[idx].get_or_insert_with(|| vec![0u8; self.layout.page_size()].into_boxed_slice())
    }

    /// Apply a writer's flushed diff to the master copy — in place, without
    /// a twin: the home never diffs its own copy, it only stays current.
    pub fn apply_diff(&mut self, diff: &Diff) {
        diff.apply(self.page_mut(diff.page));
    }

    /// Write `src` at byte `offset` of `page` — the home processor's own
    /// writes go straight into the master copy (write-through), which is
    /// precisely why the home needs no twin.
    pub fn write_through(&mut self, page: PageId, offset: usize, src: &[u8]) {
        let data = self.page_mut(page);
        let end = offset + src.len();
        assert!(end <= data.len(), "write-through outside page bounds");
        data[offset..end].copy_from_slice(src);
    }

    /// Copy the master copy of `page` into `dst` (all zeroes if the page was
    /// never flushed to or written through).  This is the payload of a
    /// whole-page fetch.
    ///
    /// # Panics
    /// Panics if `dst` is not exactly one page long.
    pub fn copy_page_into(&self, page: PageId, dst: &mut [u8]) {
        assert_eq!(dst.len(), self.layout.page_size(), "dst must be one page");
        let idx = page.index();
        assert!(idx < self.pages.len(), "{page} outside layout");
        match &self.pages[idx] {
            Some(data) => dst.copy_from_slice(data),
            None => dst.fill(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> PageLayout {
        PageLayout::new(256, 4)
    }

    fn diff_writing(page: u32, offset: usize, bytes: &[u8]) -> Diff {
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[offset..offset + bytes.len()].copy_from_slice(bytes);
        Diff::create(PageId(page), &twin, &cur)
    }

    #[test]
    fn starts_empty_and_zeroed() {
        let store = HomeStore::new(layout());
        assert_eq!(store.resident_pages(), 0);
        let mut buf = vec![0xFFu8; 256];
        store.copy_page_into(PageId(2), &mut buf);
        assert_eq!(buf, vec![0u8; 256]);
    }

    #[test]
    fn diffs_apply_in_place_and_accumulate() {
        let mut store = HomeStore::new(layout());
        store.apply_diff(&diff_writing(1, 0, &[1, 2, 3, 4]));
        store.apply_diff(&diff_writing(1, 8, &[9, 9, 9, 9]));
        assert_eq!(store.resident_pages(), 1);
        let mut buf = vec![0u8; 256];
        store.copy_page_into(PageId(1), &mut buf);
        assert_eq!(&buf[0..4], &[1, 2, 3, 4]);
        assert_eq!(&buf[8..12], &[9, 9, 9, 9]);
    }

    #[test]
    fn write_through_coexists_with_flushed_diffs() {
        // The home writes word 0 directly; a remote writer's diff lands on
        // word 2.  Neither may clobber the other — the hazard the word-level
        // write-through exists to avoid.
        let mut store = HomeStore::new(layout());
        store.write_through(PageId(0), 0, &[7, 7, 7, 7]);
        store.apply_diff(&diff_writing(0, 8, &[5, 5, 5, 5]));
        store.write_through(PageId(0), 4, &[6, 6, 6, 6]);
        let mut buf = vec![0u8; 256];
        store.copy_page_into(PageId(0), &mut buf);
        assert_eq!(&buf[0..12], &[7, 7, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn out_of_range_page_panics() {
        let mut store = HomeStore::new(layout());
        store.write_through(PageId(99), 0, &[1]);
    }

    #[test]
    #[should_panic(expected = "one page")]
    fn short_fetch_buffer_panics() {
        let store = HomeStore::new(layout());
        store.copy_page_into(PageId(0), &mut [0u8; 16]);
    }
}
