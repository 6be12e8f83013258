//! A run's salvage: page images and emptied diffs nothing else holds.
//!
//! A dense diff borrows its writer's page image (see
//! [`Diff::rebuild_from_changed`]), so the writer's next whole-page store
//! must build a fresh image while the published one is still held.  The
//! images and diffs that come back unshared — at retirement, and when a
//! round replaces a parked delivery — go into the salvage instead of back to the allocator, and the image builds
//! and interval closes take from it before they allocate.
//!
//! Nothing another holder can see is ever reused: an object is kept only if
//! `Arc::get_mut` succeeds on it, and once kept it is held here alone.  One
//! salvage serves a whole run and dies with it — per-processor salvages
//! leave the images freed on one processor piled up there (DESIGN.md,
//! "Retirement and reuse").

use std::sync::Arc;

use crate::diff::Diff;

/// Unshared page images and emptied diffs kept for reuse (see the module
/// documentation).
#[derive(Debug, Default)]
pub struct Salvage {
    images: Vec<Arc<[u8]>>,
    diffs: Vec<Arc<Diff>>,
}

impl Salvage {
    /// An empty salvage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep `image` if nothing else holds it; otherwise just let go of it.
    pub fn put_image(&mut self, mut image: Arc<[u8]>) {
        if Arc::get_mut(&mut image).is_some() {
            self.images.push(image);
        }
    }

    /// An unshared image of `len` bytes, if the salvage has one.  A run's
    /// pages are all of one size, so only the newest image is looked at.
    pub fn take_image(&mut self, len: usize) -> Option<Arc<[u8]>> {
        let mut image = self.images.pop_if(|image| image.len() == len)?;
        debug_assert!(
            Arc::get_mut(&mut image).is_some(),
            "the salvage hands out only unshared images"
        );
        Some(image)
    }

    /// Empty `diff` in place if nothing else holds it, keeping the page
    /// image it borrowed (when that is unshared too), and say whether it
    /// was emptied.  The interval log pools the diffs it retires this way.
    pub fn strip(&mut self, diff: &mut Arc<Diff>) -> bool {
        let Some(unshared) = Arc::get_mut(diff) else {
            return false;
        };
        if let Some(image) = unshared.clear() {
            self.put_image(image);
        }
        true
    }

    /// Keep `diff` emptied, and the image it borrowed, if nothing else
    /// holds them.
    pub fn put_diff(&mut self, mut diff: Arc<Diff>) {
        if self.strip(&mut diff) {
            self.diffs.push(diff);
        }
    }

    /// An emptied, unshared diff, if the salvage has one.
    pub fn take_diff(&mut self) -> Option<Arc<Diff>> {
        let mut diff = self.diffs.pop()?;
        debug_assert!(
            Arc::get_mut(&mut diff).is_some_and(|d| d.is_empty()),
            "the salvage hands out only emptied, unshared diffs"
        );
        Some(diff)
    }

    /// Number of images held.
    #[cfg(test)]
    pub(crate) fn images(&self) -> usize {
        self.images.len()
    }

    /// Number of diffs held.
    #[cfg(test)]
    pub(crate) fn diffs(&self) -> usize {
        self.diffs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageId;

    fn image(len: usize) -> Arc<[u8]> {
        vec![7u8; len].into()
    }

    #[test]
    fn keeps_only_what_nothing_else_holds() {
        let mut salvage = Salvage::new();
        let held = image(64);
        salvage.put_image(Arc::clone(&held));
        assert_eq!(salvage.images(), 0, "a shared image is not kept");
        salvage.put_image(held);
        assert_eq!(salvage.images(), 1);
        assert!(salvage.take_image(32).is_none(), "only page-sized images");
        let mut taken = salvage.take_image(64).unwrap();
        assert!(Arc::get_mut(&mut taken).is_some());
        assert!(salvage.take_image(64).is_none());
    }

    #[test]
    fn a_diff_goes_in_emptied_and_its_image_with_it() {
        let mut salvage = Salvage::new();
        let img = image(64);
        let mut diff = Diff::empty(PageId(0));
        diff.rebuild_from_changed(PageId(0), &img, &[(1 << 16) - 1]);
        assert!(diff.whole_page_shared_image().is_some());
        let diff = Arc::new(diff);
        let parked = Arc::clone(&diff);
        salvage.put_diff(diff);
        assert_eq!(salvage.diffs(), 0, "a diff still parked is not kept");
        drop(img);
        salvage.put_diff(parked);
        assert_eq!((salvage.diffs(), salvage.images()), (1, 1));
        assert!(salvage.take_diff().unwrap().is_empty());
        assert!(salvage.take_image(64).is_some());
    }
}
