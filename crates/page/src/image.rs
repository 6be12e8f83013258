//! Page images that go back to their pool on their last drop.
//!
//! The multiple-writer protocol makes and drops page images all the time: a
//! dense diff borrows its writer's image (see
//! [`Diff::rebuild_from_changed`](crate::Diff::rebuild_from_changed)),
//! readers adopt it whole, and the writer's next store into a shared image
//! needs a fresh one.  An [`Image`] is an `Arc`-shared image plus a handle
//! to the pool it came from.  Whoever drops it last — a page, a pre-image, a
//! diff, a retirement — hands its buffer back to that pool, and the next
//! build (a detach, a whole-page store, a lazy twin's pre-image) takes it
//! from there before it allocates.
//!
//! Nothing another holder can see is ever reused: no image is ever held
//! weakly, and the pool handle is an `Rc`, so every holder of an image is on
//! one thread and a strong count of one means the dropping holder is the
//! last.  A run builds every image from its one zero image, so the run's
//! pool is that image's pool, and it dies with the last image of the run.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

/// An `Arc`-shared page image that returns its buffer to its pool when its
/// last holder drops it (see the module documentation).
#[derive(Clone)]
pub struct Image {
    bytes: Arc<[u8]>,
    /// Unshared buffers of this image's length, for the next build.
    pool: Rc<RefCell<Vec<Arc<[u8]>>>>,
}

impl Image {
    /// An all-zero image of `len` bytes, in one allocation, over a new and
    /// empty pool that every image built from it shares.
    pub fn zeroed(len: usize) -> Image {
        Image {
            bytes: std::iter::repeat_n(0, len).collect(),
            pool: Rc::default(),
        }
    }

    /// An unshared image holding `src`, taken from this image's pool, or
    /// allocated when the pool is empty.
    ///
    /// # Panics
    /// Panics if `src` is not as long as this image.
    pub fn filled(&self, src: &[u8]) -> Image {
        assert_eq!(src.len(), self.len(), "an image holds one page");
        let pool = Rc::clone(&self.pool);
        let pooled = pool.borrow_mut().pop();
        let Some(bytes) = pooled else {
            return Image {
                bytes: Arc::from(src),
                pool,
            };
        };
        let mut image = Image { bytes, pool };
        image.written().copy_from_slice(src);
        image
    }

    /// An unshared image of this image's length and unspecified contents,
    /// taken from its pool, or allocated zeroed when the pool is empty.
    pub(crate) fn blank(&self) -> Image {
        let pooled = self.pool.borrow_mut().pop();
        Image {
            bytes: pooled.unwrap_or_else(|| std::iter::repeat_n(0, self.len()).collect()),
            pool: Rc::clone(&self.pool),
        }
    }

    /// Whether another holder shares this image.  (A plain load: no image is
    /// ever held weakly.)
    #[inline]
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.bytes) != 1
    }

    /// Number of buffers in this image's pool.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.pool.borrow().len()
    }

    /// The bytes for writing.  Nothing else may hold the image: a page
    /// writes only into images no published diff, reader or pool can see.
    #[inline(always)]
    pub(crate) fn written(&mut self) -> &mut [u8] {
        debug_assert!(!self.is_shared(), "a write into a shared image");
        Arc::make_mut(&mut self.bytes)
    }

    /// The bytes for writing, detached first — copied into an image from
    /// the pool — if anything else holds them.
    #[inline]
    pub(crate) fn detached(&mut self) -> &mut [u8] {
        if self.is_shared() {
            *self = self.filled(&self[..]);
        }
        self.written()
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        if !self.is_shared() {
            // Moving the field out would need `unsafe`: the pool keeps a
            // clone, which is alone once the field drops.
            self.pool.borrow_mut().push(Arc::clone(&self.bytes));
        }
    }
}

impl Deref for Image {
    type Target = [u8];

    #[inline(always)]
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_last_drop_pools_the_buffer() {
        let zero = Image::zeroed(64);
        let image = zero.filled(&[7; 64]);
        let held = image.clone();
        drop(image);
        assert_eq!(zero.pooled(), 0, "a shared image is not pooled");
        assert_eq!(&held[..], &[7; 64][..]);
        let at = held.as_ptr();
        drop(held);
        assert_eq!(zero.pooled(), 1, "the last drop pooled it");
        let reused = zero.filled(&[2; 64]);
        assert_eq!(reused.as_ptr(), at);
        assert_eq!(&reused[..], &[2; 64][..]);
        assert!(!reused.is_shared());
        assert_eq!(zero.pooled(), 0);
    }
}
