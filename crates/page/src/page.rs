//! A processor's private copy of the shared address space.
//!
//! Every DSM processor holds its own [`PageStore`]: the local copies of the
//! shared pages, the twins used by the multiple-writer protocol, and the
//! per-word *delivery attribution* used by the paper's instrumentation to
//! decide, for every word a diff delivered, whether it was eventually read
//! (useful data) or never read before being overwritten or the end of the run
//! (useless data).

use crate::diff::{subtract_cover, Diff, RunSpan};
use crate::layout::{GlobalAddr, PageId, PageLayout, WORD_SIZE};
use std::sync::Arc;

/// Sentinel attribution meaning "this word was not delivered by any exchange
/// (or its delivery has already been classified)".
pub const NO_EXCHANGE: u32 = u32::MAX;

/// One hardware page as held by one processor: current contents, the
/// interval's write-detection state (a *virtual twin*), and per-word
/// delivery attribution.
///
/// The twin of the multiple-writer protocol is maintained lazily: instead of
/// copying the whole page at the first write, the write path compares each
/// stored word against its previous contents and saves the pre-interval
/// value of exactly the words that change.  The changed-word bitset is
/// therefore *exact* (a word whose original value is later restored leaves
/// the set again), so diff creation never has to re-scan the page — it
/// extracts runs straight from the bitset.  The resulting diffs are
/// bit-identical to a twin-compare: a word is in the diff iff its content
/// differs from the page content at `ensure_twin` time.
///
/// The page image itself is `Arc`-shared so a dense diff published at
/// interval close can borrow it outright (no payload copy; see
/// [`Diff::from_changed_shared_in`]).  The image is copy-on-next-write: any
/// later mutation detaches it first — except a *whole-page* store, which
/// builds the new image straight from the source, and so never pays the
/// detach copy.  While the image is still shared at `ensure_twin` time it
/// is, by construction, exactly the pre-interval contents, so it doubles as
/// a free whole-page pre-image (`PreImage::Exact`): the write path then
/// skips all per-word pre-image saves and derives changed bits by direct
/// comparison.
#[derive(Debug)]
pub struct LocalPage {
    data: Arc<[u8]>,
    /// Whether a virtual twin is live (the page is in the current interval's
    /// write set).
    twinned: bool,
    /// Pre-interval word values of the live twin (see
    /// [`ensure_twin`](Self::ensure_twin)).  Meaningless while not twinned,
    /// except that a lazy buffer is kept for the next twin to reuse.
    preimage: PreImage,
    /// One bit per word, set iff the word's current value differs from its
    /// value when the twin was made.  Meaningless while not twinned.
    changed_words: Box<[u64]>,
    /// For each 32-bit word: the exchange id that last delivered it and has
    /// not yet been read or overwritten locally, or [`NO_EXCHANGE`].
    /// Authoritative only in the *mixed* representation (`uniform ==
    /// NO_EXCHANGE && !attr_dirty`); see `uniform`.  Allocated lazily on
    /// the first partial-range attribution access: pages that only ever see
    /// whole-page deliveries (the dominant pattern) ride the compact
    /// `uniform` representation and never pay for the array.
    attribution: Option<Box<[u32]>>,
    /// Number of words whose attribution is not [`NO_EXCHANGE`]. Read and
    /// write paths skip their per-word attribution loops entirely while this
    /// is zero — the overwhelmingly common case.
    pending: u32,
    /// Compact attribution representation for the dominant delivery pattern
    /// (a diff covering the whole page, later read or overwritten whole).
    /// When not [`NO_EXCHANGE`], *every* word of the page is attributed to
    /// this exchange and the `attribution` array contents are stale; the
    /// array is only materialised when a partial access needs per-word
    /// state.
    uniform: u32,
    /// True when the `attribution` array holds stale values from a consumed
    /// uniform attribution (pending is 0 but the array is not all
    /// [`NO_EXCHANGE`]).  It must be wiped before per-word use.
    attr_dirty: bool,
    /// A delivered diff (and its exchange id) whose application — content
    /// *and* attribution — has not been performed yet.  Flush deliveries are
    /// frequently shadowed by the next flush before any local access, so
    /// [`apply_diff_deferred`](Self::apply_diff_deferred) parks the shared
    /// payload here instead of paying the page-sized content and
    /// attribution traffic; the work happens lazily on the first access
    /// that needs it, and a later delivery folds the parked one in only
    /// where it stays visible.  Invariant: `deferred.is_some()` implies
    /// `!twinned` — a twin is only created by the write path, which
    /// materialises first.
    deferred: Option<(Arc<Diff>, u32)>,
}

/// The pre-interval word values a live twin compares stores against.
#[derive(Debug)]
enum PreImage {
    /// A privately owned buffer filled in per word: only the words whose
    /// `changed_words` bit is set are valid (saved on their first change).
    /// Empty until the page's first lazy twin, then one page plus
    /// [`ARC_HEADER_BYTES`] of unused tail.
    Lazy(Box<[u8]>),
    /// A complete snapshot of the pre-interval image, shared with the diff
    /// the previous interval published.
    Exact(Arc<[u8]>),
}

/// What an `Arc<[u8]>` allocation carries besides its payload: the strong
/// and the weak count.  A lazy pre-image buffer is allocated this much
/// longer than a page, so that it and the `Arc` page images are requests of
/// one size and the allocator recycles retired ones into one another — pages
/// flip between the two pre-image kinds as diffs retire, and with two sizes
/// each kind's free chunks are useless to the other (measured: +20 % peak
/// RSS on the paper-scale Shallow cells).
const ARC_HEADER_BYTES: usize = 2 * std::mem::size_of::<usize>();

/// `dst.copy_from_slice(src)` with the 4- and 8-byte cases — one shared word
/// or double, the sizes of the typed element accessors — as constant-length
/// copies (a load and a store) instead of a `memcpy` call.
#[inline(always)]
fn copy_bytes(dst: &mut [u8], src: &[u8]) {
    match (dst.len(), src.len()) {
        (8, 8) => dst[..8].copy_from_slice(&src[..8]),
        (4, 4) => dst[..4].copy_from_slice(&src[..4]),
        _ => dst.copy_from_slice(src),
    }
}

impl LocalPage {
    /// Create a zero-filled page of `page_size` bytes.
    pub fn new_zeroed(page_size: usize) -> Self {
        let words = page_size / WORD_SIZE;
        LocalPage {
            data: vec![0u8; page_size].into(),
            twinned: false,
            preimage: PreImage::Lazy(Box::default()),
            changed_words: vec![0u64; words.div_ceil(64)].into_boxed_slice(),
            attribution: None,
            pending: 0,
            uniform: NO_EXCHANGE,
            attr_dirty: false,
            deferred: None,
        }
    }

    /// Number of 32-bit words in the page.
    #[inline]
    fn words(&self) -> usize {
        self.data.len() / WORD_SIZE
    }

    /// Mutable access to the page image, detaching (copying) it first if a
    /// published diff still shares it — the "copy" of copy-on-next-write.
    /// The uniqueness check is an atomic read-modify-write, so loops
    /// establish it once and keep the slice.
    fn data_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.data)
    }

    /// Replace the whole image with `src`.  When the current image is still
    /// shared with a published diff, the new image is built straight from
    /// `src` — the detach copy a partial write would pay never happens.
    fn replace_data(&mut self, src: &[u8]) {
        debug_assert_eq!(src.len(), self.data.len());
        match Arc::get_mut(&mut self.data) {
            Some(data) => data.copy_from_slice(src),
            None => self.data = Arc::from(src),
        }
    }

    /// Perform a parked diff application — content and attribution.  Called
    /// before any access that needs the page's contents or attribution
    /// state; a no-op in the common case.
    fn materialize_content(&mut self) {
        if let Some((d, e)) = self.deferred.take() {
            // `deferred` implies untwinned, so a whole-page shared snapshot
            // can be adopted by reference instead of copied.
            match d.whole_page_shared_image() {
                Some(image) => self.data = Arc::clone(image),
                None => d.apply(self.data_mut()),
            }
            self.attribute_diff(&d, e);
        }
    }

    /// Retire a parked diff that is about to be shadowed by `new`: copy into
    /// `data` only the parts of the parked payload that `new` does not
    /// rewrite.  With the flush-delivery pattern (each generation rewrites
    /// almost the whole page) this copies a handful of words instead of a
    /// page, and a fully-shadowing `new` copies nothing at all.  `cov` and
    /// `visible` are caller-owned scratch (contents ignored and clobbered).
    fn fold_deferred_under(
        &mut self,
        new: &Diff,
        cov: &mut Vec<u64>,
        visible: &mut Vec<(u32, u32)>,
    ) {
        let Some((old, old_exchange)) = self.deferred.take() else {
            return;
        };
        let words = self.data.len() / WORD_SIZE;
        cov.clear();
        cov.resize(words.div_ceil(64), 0);
        visible.clear();
        let mut set = 0usize;
        for span in new.spans() {
            set += subtract_cover(span.offset, span.len as usize, cov, visible);
        }
        if set == words {
            return;
        }
        visible.clear();
        for span in old.spans() {
            subtract_cover(span.offset, span.len as usize, cov, visible);
        }
        if !visible.is_empty() {
            self.apply_diff_visible(&old, old_exchange, visible);
        }
    }

    /// Drop out of the compact uniform/stale attribution representations
    /// into the mixed one, making the per-word `attribution` array
    /// authoritative (allocating it on first use).  Called before any
    /// partial-range attribution access.
    fn materialize_attr(&mut self) {
        let words = self.data.len() / WORD_SIZE;
        let attribution = self
            .attribution
            .get_or_insert_with(|| vec![NO_EXCHANGE; words].into_boxed_slice());
        if self.uniform != NO_EXCHANGE {
            attribution.fill(self.uniform);
            self.uniform = NO_EXCHANGE;
            self.attr_dirty = false;
        } else if self.attr_dirty {
            attribution.fill(NO_EXCHANGE);
            self.attr_dirty = false;
        }
    }

    /// Current contents of the page.  Callers must not hold a deferred
    /// whole-page delivery (every protocol access path materialises first;
    /// this accessor is used by tests that drive `LocalPage` directly).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        debug_assert!(self.deferred.is_none(), "bytes() with deferred content");
        &self.data
    }

    /// Create the twin if it does not exist yet.  Returns `true` if a twin
    /// was created by this call (the "first write to a shared page" event).
    /// No page copy happens here: the twin is virtual.
    ///
    /// When the image is still `Arc`-shared with a diff published at a
    /// previous close, it has provably not been mutated since (every
    /// mutation path detaches first), so it *is* the exact pre-interval
    /// snapshot — the snapshot becomes the pre-image for free and the write
    /// path runs in exact mode, with no per-word pre-image saves at all.
    /// Otherwise the write path fills a private pre-image buffer in per
    /// word, lazily, as before.
    pub fn ensure_twin(&mut self) -> bool {
        if self.twinned {
            return false;
        }
        self.materialize_content();
        if Arc::get_mut(&mut self.data).is_none() {
            self.preimage = PreImage::Exact(Arc::clone(&self.data));
        } else if !matches!(&self.preimage, PreImage::Lazy(buf) if buf.len() >= self.data.len()) {
            // No lazy buffer from an earlier interval to reuse.
            self.preimage = PreImage::Lazy(vec![0u8; self.data.len() + ARC_HEADER_BYTES].into());
        }
        self.changed_words.fill(0);
        self.twinned = true;
        true
    }

    /// Produce the diff of the current writing interval.  Returns `None` if
    /// the page has no twin.  The changed-word bitset is exact, so this is a
    /// straight run extraction — no page scan — and a dense diff borrows
    /// the page image itself instead of packing a payload copy.
    pub fn make_diff(&self, page: PageId) -> Option<Diff> {
        self.make_diff_in(page, Vec::new(), Vec::new())
    }

    /// [`make_diff`](Self::make_diff) with caller-recycled span/payload
    /// buffers (see [`Diff::from_changed_shared_in`]); the interval close
    /// path feeds retired diffs' buffers back through here.
    pub fn make_diff_in(&self, page: PageId, spans: Vec<RunSpan>, packed: Vec<u8>) -> Option<Diff> {
        if !self.twinned {
            return None;
        }
        debug_assert!(
            self.deferred.is_none(),
            "twinned page with deferred content"
        );
        Some(Diff::from_changed_shared_in(
            page,
            &self.data,
            &self.changed_words,
            spans,
            packed,
        ))
    }

    /// Retire the twin (the interval's modifications have been encoded; the
    /// twin is dead weight from here on — under lazy diff timing the stored
    /// encoding, not the twin, is what later requests serve from). The
    /// pre-image buffer is kept for reuse by the next
    /// [`ensure_twin`](Self::ensure_twin).
    pub fn drop_twin(&mut self) {
        self.twinned = false;
    }

    /// Store `src` at byte `offset` while a twin is live, keeping the
    /// changed-word bitset exact: in exact mode the touched words' bits are
    /// recomputed against the whole-page snapshot; in lazy mode the
    /// pre-interval value of a word is saved on its first change.  Either
    /// way a word whose original value is restored by a later store leaves
    /// the set again.
    fn store_tracked(&mut self, offset: usize, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        match self.preimage {
            PreImage::Exact(_) => self.store_exact(offset, src),
            PreImage::Lazy(_) => self.store_lazy(offset, src),
        }
    }

    /// Exact-mode store: the pre-image is a complete snapshot of the
    /// pre-interval image, so no per-word saves happen at all — the store
    /// lands and the touched words' changed bits are recomputed by direct
    /// comparison against the snapshot.  A whole-page store into a
    /// still-shared image skips even the detach copy: the new image is
    /// built straight from `src`.
    fn store_exact(&mut self, offset: usize, src: &[u8]) {
        let end = offset + src.len();
        if offset == 0 && end == self.data.len() {
            self.replace_data(src);
        } else {
            self.data_mut()[offset..end].copy_from_slice(src);
        }
        let PreImage::Exact(pre) = &self.preimage else {
            unreachable!("exact-mode store without a snapshot");
        };
        // Words `src` covers fully get their changed bits straight from the
        // still-cache-hot source in one pass; only ragged head/tail words
        // (whose untouched bytes live in the page, not in `src`) re-read the
        // stored data.  `src` equals the stored range, so the bits are the
        // same either way.
        let w0 = offset / WORD_SIZE;
        let w1 = (end - 1) / WORD_SIZE + 1;
        let wf0 = offset.div_ceil(WORD_SIZE);
        let wf1 = end / WORD_SIZE;
        let bits = &mut self.changed_words;
        if wf0 >= wf1 {
            exact_bits(&self.data, 0, pre, bits, w0, w1);
            return;
        }
        if w0 < wf0 {
            exact_bits(&self.data, 0, pre, bits, w0, wf0);
        }
        exact_bits(src, offset, pre, bits, wf0, wf1);
        if wf1 < w1 {
            exact_bits(&self.data, 0, pre, bits, wf1, w1);
        }
    }

    /// Lazy-mode store: save the pre-interval value of a word on its first
    /// change, compare on every store to keep the bitset exact.
    fn store_lazy(&mut self, offset: usize, src: &[u8]) {
        /// Bits of the lower-addressed word within a native-endian `u64`
        /// read across two consecutive words.
        const FIRST: u64 = if cfg!(target_endian = "little") {
            0x0000_0000_FFFF_FFFF
        } else {
            0xFFFF_FFFF_0000_0000
        };
        /// General per-word store: handles partial-word ranges and words
        /// whose changed bit may already be set (compare against the saved
        /// pre-image, clearing the bit when the original value returns).
        fn word(
            data: &mut [u8],
            pre: &mut [u8],
            bits: &mut [u64],
            w: usize,
            lo: usize,
            hi: usize,
            src: &[u8],
            src_off: usize,
        ) {
            let wlo = w * WORD_SIZE;
            let whi = wlo + WORD_SIZE;
            let (blk, bit) = (w / 64, 1u64 << (w % 64));
            if bits[blk] & bit == 0 {
                // Word still holds its pre-interval value: snapshot it, then
                // apply the store and flag the word only if it truly changed
                // (a store of the unchanged value stays invisible).
                pre[wlo..whi].copy_from_slice(&data[wlo..whi]);
                data[lo..hi].copy_from_slice(&src[lo - src_off..hi - src_off]);
                if data[wlo..whi] != pre[wlo..whi] {
                    bits[blk] |= bit;
                }
            } else {
                data[lo..hi].copy_from_slice(&src[lo - src_off..hi - src_off]);
                if data[wlo..whi] == pre[wlo..whi] {
                    bits[blk] &= !bit;
                }
            }
        }

        let end = offset + src.len();
        let data = Arc::make_mut(&mut self.data);
        let PreImage::Lazy(pre) = &mut self.preimage else {
            unreachable!("lazy-mode store against an exact snapshot");
        };
        let bits = &mut self.changed_words;

        // Partial head/tail words take the general path; full words in the
        // middle take the bulk path below.
        let mut lo = offset;
        if lo % WORD_SIZE != 0 {
            let w = lo / WORD_SIZE;
            let hi = end.min((w + 1) * WORD_SIZE);
            word(data, pre, bits, w, lo, hi, src, offset);
            lo = hi;
        }
        let mid_end = lo + (end - lo) / WORD_SIZE * WORD_SIZE;
        if mid_end < end {
            word(data, pre, bits, end / WORD_SIZE, mid_end, end, src, offset);
        }

        let mut w = lo / WORD_SIZE;
        let w1 = mid_end / WORD_SIZE;
        while w < w1 {
            let blk = w / 64;
            let seg_end = ((blk + 1) * 64).min(w1);
            if bits[blk] == 0 {
                // No word of this 64-word block has changed yet — the
                // common case for a fresh interval.  A clear bit means the
                // word still holds its pre-interval value, so the whole
                // segment can be snapshotted and stored with two bulk
                // copies; the changed bits then come from a cache-hot XOR
                // scan of what was just written.
                let base = w * WORD_SIZE;
                let seg_bytes = (seg_end - w) * WORD_SIZE;
                let sb = base - offset;
                // Two straight-line copies (which the compiler vectorises)
                // followed by a cache-hot XOR scan of new-vs-old.
                pre[base..base + seg_bytes].copy_from_slice(&data[base..base + seg_bytes]);
                data[base..base + seg_bytes].copy_from_slice(&src[sb..sb + seg_bytes]);
                let mut new_bits = 0u64;
                let mut wi = w % 64;
                let pairs = (seg_end - w) / 2;
                for k in 0..pairs {
                    let db = base + k * 8;
                    let d8 = u64::from_ne_bytes(data[db..db + 8].try_into().unwrap());
                    let p8 = u64::from_ne_bytes(pre[db..db + 8].try_into().unwrap());
                    let x = d8 ^ p8;
                    new_bits |= ((((x & FIRST) != 0) as u64) << wi)
                        | ((((x & !FIRST) != 0) as u64) << (wi + 1));
                    wi += 2;
                }
                if (seg_end - w) % 2 == 1 {
                    let db = base + pairs * 8;
                    let d4: [u8; 4] = data[db..db + 4].try_into().unwrap();
                    let p4: [u8; 4] = pre[db..db + 4].try_into().unwrap();
                    new_bits |= ((d4 != p4) as u64) << wi;
                }
                bits[blk] |= new_bits;
            } else {
                for wi in w..seg_end {
                    let db = wi * WORD_SIZE;
                    word(data, pre, bits, wi, db, db + WORD_SIZE, src, offset);
                }
            }
            w = seg_end;
        }
    }

    /// Write `src` at byte `offset`.  Any delivered-but-unread words covered
    /// by the write lose their attribution: the paper counts them as useless
    /// data ("overwritten before being read").
    pub fn write_bytes(&mut self, offset: usize, src: &[u8]) {
        let end = offset + src.len();
        assert!(end <= self.data.len(), "write outside page bounds");
        if src.is_empty() {
            return;
        }
        if self.deferred.is_some() {
            if offset == 0 && end == self.data.len() {
                // Whole-page overwrite: the parked payload would be copied in
                // only to be clobbered by `src` — drop it instead.
                self.deferred = None;
            } else {
                self.materialize_content();
            }
        }
        if self.twinned {
            self.store_tracked(offset, src);
        } else if offset == 0 && end == self.data.len() {
            self.replace_data(src);
        } else {
            copy_bytes(&mut self.data_mut()[offset..end], src);
        }
        let first = offset / WORD_SIZE;
        let last = (end - 1) / WORD_SIZE;
        if self.pending != 0 {
            if first == 0 && last + 1 == self.words() {
                // Whole-page overwrite discards every attribution; the array
                // (which may hold live or stale values) is left as-is and
                // flagged for a wipe before its next per-word use.
                self.pending = 0;
                self.attr_dirty = true;
                self.uniform = NO_EXCHANGE;
            } else {
                self.materialize_attr();
                let attribution = self.attribution.as_mut().expect("materialized");
                for w in first..=last {
                    if attribution[w] != NO_EXCHANGE {
                        attribution[w] = NO_EXCHANGE;
                        self.pending -= 1;
                    }
                }
            }
        }
    }

    /// Read `dst.len()` bytes at byte `offset` into `dst`.  For every covered
    /// word that still carries a delivery attribution, the word counts as
    /// read-before-overwritten (⇒ useful data) and the attribution is
    /// cleared so the word is only credited once.  `on_useful(exchange,
    /// words)` is invoked once per run of consecutive words credited to the
    /// same exchange — per-exchange word totals are identical to a per-word
    /// callback, without the call per word.
    pub fn read_bytes(
        &mut self,
        offset: usize,
        dst: &mut [u8],
        mut on_useful: impl FnMut(u32, u32),
    ) {
        let end = offset + dst.len();
        assert!(end <= self.data.len(), "read outside page bounds");
        self.materialize_content();
        copy_bytes(dst, &self.data[offset..end]);
        if !dst.is_empty() && self.pending != 0 {
            let first = offset / WORD_SIZE;
            let last = (end - 1) / WORD_SIZE;
            if self.uniform != NO_EXCHANGE {
                let e = self.uniform;
                let count = (last - first + 1) as u32;
                on_useful(e, count);
                if count as usize == self.words() {
                    // Whole-page read consumes the uniform attribution
                    // without ever materialising the array.
                    self.pending = 0;
                    self.uniform = NO_EXCHANGE;
                    self.attr_dirty = true;
                } else {
                    self.materialize_attr();
                    let attribution = self.attribution.as_mut().expect("materialized");
                    for w in first..=last {
                        attribution[w] = NO_EXCHANGE;
                    }
                    self.pending -= count;
                }
            } else {
                self.materialize_attr();
                let attribution = self.attribution.as_mut().expect("materialized");
                let mut run_e = NO_EXCHANGE;
                let mut run_len = 0u32;
                for w in first..=last {
                    let e = attribution[w];
                    if e != NO_EXCHANGE {
                        attribution[w] = NO_EXCHANGE;
                        self.pending -= 1;
                    }
                    if e == run_e {
                        run_len += 1;
                    } else {
                        if run_e != NO_EXCHANGE && run_len > 0 {
                            on_useful(run_e, run_len);
                        }
                        run_e = e;
                        run_len = 1;
                    }
                }
                if run_e != NO_EXCHANGE && run_len > 0 {
                    on_useful(run_e, run_len);
                }
            }
        }
    }

    /// Replace the whole page with `src` — the home-based protocol's
    /// whole-page fetch.  Every word of the page is attributed to `exchange`
    /// (the fetch delivered all of them; the ones never read before being
    /// overwritten become the protocol's useless data), or, when `exchange`
    /// is [`NO_EXCHANGE`], all attributions are cleared instead: a local
    /// refresh from a co-resident home copy delivers nothing over the wire.
    ///
    /// # Panics
    /// Panics if `src` is not exactly one page long.
    pub fn load_page(&mut self, src: &[u8], exchange: u32) {
        assert_eq!(src.len(), self.data.len(), "src must be one page");
        // Whole-page replacement: any parked payload is dead.
        self.deferred = None;
        if self.twinned {
            // Defensive: keep the changed-word bitset exact even if a
            // whole-page load ever lands while a twin is live.
            self.store_tracked(0, src);
        } else {
            self.replace_data(src);
        }
        if exchange == NO_EXCHANGE {
            self.pending = 0;
            self.uniform = NO_EXCHANGE;
            self.attr_dirty = true;
        } else {
            // Whole-page delivery: the compact uniform representation
            // replaces a page-sized attribution fill.
            self.pending = self.words() as u32;
            self.uniform = exchange;
        }
    }

    /// Apply a diff received from another processor.  Every word the diff
    /// overwrites is attributed to `exchange` (pass [`NO_EXCHANGE`] to skip
    /// attribution, e.g. for locally generated corrections in tests).
    pub fn apply_diff(&mut self, diff: &Diff, exchange: u32) {
        if self.deferred.is_some() {
            if exchange != NO_EXCHANGE
                && matches!(diff.spans(), [span] if span.offset == 0
                    && span.len as usize == self.data.len())
            {
                // The incoming diff rewrites the whole page's content and
                // attribution anyway: the parked delivery is fully shadowed.
                self.deferred = None;
            } else {
                self.materialize_content();
            }
        }
        if self.twinned {
            // Defensive: a remotely produced diff landing while a twin is
            // live must keep the changed-word bitset exact.
            for (offset, bytes) in diff.runs() {
                self.store_tracked(offset as usize, bytes);
            }
        } else if let Some(image) = diff.whole_page_shared_image() {
            // Zero-copy delivery: a whole-page shared snapshot replaces the
            // image by reference; the next local write detaches as usual.
            debug_assert_eq!(image.len(), self.data.len());
            self.data = Arc::clone(image);
        } else {
            diff.apply(self.data_mut());
        }
        self.attribute_diff(diff, exchange);
    }

    /// Attribution-only half of [`apply_diff`](Self::apply_diff): credit
    /// every word `diff` covers to `exchange`.  Shared with the deferred
    /// apply path, which parks the content but must keep the paper's
    /// useful/useless accounting eager.
    fn attribute_diff(&mut self, diff: &Diff, exchange: u32) {
        if exchange == NO_EXCHANGE {
            return;
        }
        // A diff covering the whole page (the dominant delivery shape for
        // the grid applications) takes the compact uniform representation —
        // no attribution-array traffic at all.
        let words = self.words();
        if let [span] = diff.spans() {
            if span.offset == 0 && span.len as usize / WORD_SIZE == words {
                self.pending = words as u32;
                self.uniform = exchange;
                return;
            }
        }
        self.materialize_attr();
        // Runs are disjoint, so when nothing is attributed yet every touched
        // word is a fresh attribution and the per-word scan can be skipped.
        let all_fresh = self.pending == 0;
        let attribution = self.attribution.as_mut().expect("materialized");
        for span in diff.spans() {
            let first = span.offset as usize / WORD_SIZE;
            let count = span.len as usize / WORD_SIZE;
            if count == 0 {
                continue;
            }
            let slice = &mut attribution[first..first + count];
            if all_fresh {
                self.pending += count as u32;
            } else {
                let fresh = slice.iter().filter(|&&a| a == NO_EXCHANGE).count();
                self.pending += fresh as u32;
            }
            slice.fill(exchange);
        }
    }

    /// [`apply_diff`](Self::apply_diff), except that on an untwinned page
    /// the application is *parked*: the shared payload and its exchange id
    /// are stored in `deferred`, and both the content copy and the
    /// attribution update happen lazily on the first access that needs
    /// them.  Any previously parked diff is folded into the page only where
    /// the new one leaves it visible, so a delivery that the next flush
    /// shadows is never paid for.  Every observable outcome — page bytes,
    /// per-word useful/useless credit, pending counts — is bit-identical to
    /// the eager path; only the time of the work moves.
    ///
    /// `cov` and `visible` are scratch for the fold (contents ignored and
    /// clobbered): the fetch path delivers one diff after another, so the
    /// caller keeps one pair instead of this allocating one per delivery.
    pub fn apply_diff_deferred(
        &mut self,
        diff: &Arc<Diff>,
        exchange: u32,
        cov: &mut Vec<u64>,
        visible: &mut Vec<(u32, u32)>,
    ) {
        if self.twinned {
            debug_assert!(
                self.deferred.is_none(),
                "twinned page with deferred content"
            );
            self.apply_diff(diff, exchange);
            return;
        }
        self.fold_deferred_under(diff, cov, visible);
        self.deferred = Some((Arc::clone(diff), exchange));
    }

    /// Apply only the `visible` byte intervals of `diff` — the parts no
    /// later-applied diff of this page overwrites.  `visible` must be
    /// sorted, non-overlapping, word-aligned, and a subset of the diff's
    /// runs (each interval inside one run).  Used by the reverse-order
    /// batch apply in the protocol engine: applying each diff's visible
    /// part back to front leaves the page bit-identical to applying every
    /// diff front to back.
    pub fn apply_diff_visible(&mut self, diff: &Diff, exchange: u32, visible: &[(u32, u32)]) {
        let twinned = self.twinned;
        // A whole-page diff that is fully visible (the dominant shape on the
        // grid applications' fetch path) is a straight page copy, and its
        // attribution takes the compact uniform representation — no
        // per-word array traffic at all.
        let page_len = self.data.len();
        if let ([span], [(0, hi)]) = (diff.spans(), visible) {
            if span.offset == 0 && span.len as usize == page_len && *hi as usize == page_len {
                if exchange != NO_EXCHANGE {
                    // Whole page re-attributed below: a parked delivery is
                    // fully shadowed.
                    self.deferred = None;
                } else {
                    self.materialize_content();
                }
                if twinned {
                    let (_, bytes) = diff.runs().next().expect("one span, one run");
                    self.store_tracked(0, bytes);
                } else if let Some(image) = diff.whole_page_shared_image() {
                    // Zero-copy delivery: adopt the shared snapshot instead
                    // of copying the page.
                    self.data = Arc::clone(image);
                } else {
                    let (_, bytes) = diff.runs().next().expect("one span, one run");
                    self.replace_data(bytes);
                }
                if exchange != NO_EXCHANGE {
                    self.pending = (page_len / WORD_SIZE) as u32;
                    self.uniform = exchange;
                }
                return;
            }
        }
        self.materialize_content();
        if twinned {
            // Defensive: a remotely produced diff landing while a twin is
            // live must keep the changed-word bitset exact.
            for_each_visible_run(diff, visible, |lo, bytes| self.store_tracked(lo, bytes));
        } else {
            // Uniqueness of the image is established once for the whole
            // diff, not once per visible interval.
            let data = self.data_mut();
            for_each_visible_run(diff, visible, |lo, bytes| {
                copy_bytes(&mut data[lo..lo + bytes.len()], bytes)
            });
        }
        if exchange == NO_EXCHANGE {
            return;
        }
        // Visible-interval application is inherently partial, so the
        // per-word array must be authoritative.
        self.materialize_attr();
        let all_fresh = self.pending == 0;
        let attribution = self.attribution.as_mut().expect("materialized");
        for &(lo, hi) in visible {
            let slice = &mut attribution[lo as usize / WORD_SIZE..hi as usize / WORD_SIZE];
            if all_fresh {
                self.pending += slice.len() as u32;
            } else {
                let fresh = slice.iter().filter(|&&a| a == NO_EXCHANGE).count();
                self.pending += fresh as u32;
            }
            slice.fill(exchange);
        }
    }

    /// Number of words currently carrying a delivery attribution (delivered
    /// but neither read nor overwritten yet).
    pub fn pending_attributions(&self) -> usize {
        if self.uniform == NO_EXCHANGE && !self.attr_dirty {
            // Only the mixed representation keeps the array authoritative
            // (an unallocated array is all NO_EXCHANGE by definition).
            debug_assert_eq!(
                self.pending as usize,
                self.attribution
                    .as_deref()
                    .unwrap_or(&[])
                    .iter()
                    .filter(|&&a| a != NO_EXCHANGE)
                    .count(),
                "pending-attribution counter out of sync"
            );
        }
        self.pending as usize
    }
}

/// Call `f(page offset, bytes)` for each of `visible`'s byte intervals of
/// `diff` (sorted, each inside one run — see
/// [`LocalPage::apply_diff_visible`]) with the run bytes it selects.
fn for_each_visible_run(diff: &Diff, visible: &[(u32, u32)], mut f: impl FnMut(usize, &[u8])) {
    let mut runs = diff.runs();
    let mut run = runs.next();
    for &(lo32, hi32) in visible {
        let (lo, hi) = (lo32 as usize, hi32 as usize);
        while let Some((roff, rbytes)) = run {
            let rlo = roff as usize;
            let rhi = rlo + rbytes.len();
            if rhi <= lo {
                run = runs.next();
                continue;
            }
            debug_assert!(
                rlo <= lo && hi <= rhi,
                "visible interval must sit inside one run"
            );
            f(lo, &rbytes[lo - rlo..hi - rlo]);
            break;
        }
    }
}

/// Recompute the changed-word bits of page words `[w0, w1)` by direct
/// comparison against the complete pre-interval snapshot `pre`:
/// `bit(w) = (fresh word w != pre word w)`, set *or cleared*; words outside
/// the range keep their bits.  The fresh words are read from `src`, whose
/// first byte is page byte `src_offset` and which covers the whole range —
/// the page image itself (`src_offset == 0`), or the bytes just stored over
/// the range, which saves re-reading the page.  Pairs of words are compared
/// as one `u64` XOR with an endian split, as in the diff scan.
fn exact_bits(src: &[u8], src_offset: usize, pre: &[u8], bits: &mut [u64], w0: usize, w1: usize) {
    /// Bits of the lower-addressed word within a native-endian `u64` read
    /// across two consecutive words.
    const FIRST: u64 = if cfg!(target_endian = "little") {
        0x0000_0000_FFFF_FFFF
    } else {
        0xFFFF_FFFF_0000_0000
    };
    let mut w = w0;
    while w < w1 {
        let blk = w / 64;
        let seg_end = ((blk + 1) * 64).min(w1);
        let lo = w % 64;
        let n = seg_end - w;
        let mask = if n == 64 {
            !0u64
        } else {
            ((1u64 << n) - 1) << lo
        };
        let mut new_bits = 0u64;
        let mut wi = w;
        while wi + 1 < seg_end {
            let b = wi * WORD_SIZE;
            let s = b - src_offset;
            let s8 = u64::from_ne_bytes(src[s..s + 8].try_into().unwrap());
            let p8 = u64::from_ne_bytes(pre[b..b + 8].try_into().unwrap());
            let x = s8 ^ p8;
            let sh = wi % 64;
            new_bits |=
                ((((x & FIRST) != 0) as u64) << sh) | ((((x & !FIRST) != 0) as u64) << (sh + 1));
            wi += 2;
        }
        if wi < seg_end {
            let b = wi * WORD_SIZE;
            let s = b - src_offset;
            if src[s..s + WORD_SIZE] != pre[b..b + WORD_SIZE] {
                new_bits |= 1u64 << (wi % 64);
            }
        }
        bits[blk] = (bits[blk] & !mask) | new_bits;
        w = seg_end;
    }
}

/// A processor's private view of the entire shared address space.
///
/// Pages are materialized lazily: a page that was never touched by this
/// processor costs nothing.
#[derive(Debug)]
pub struct PageStore {
    layout: PageLayout,
    pages: Vec<Option<Box<LocalPage>>>,
}

impl PageStore {
    /// Create an empty store for the given layout.
    pub fn new(layout: PageLayout) -> Self {
        PageStore {
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

    /// Get the page, materializing a zero-filled copy on first touch.
    pub fn page_mut(&mut self, page: PageId) -> &mut LocalPage {
        let idx = page.index();
        assert!(idx < self.pages.len(), "page {page} outside layout");
        self.pages[idx]
            .get_or_insert_with(|| Box::new(LocalPage::new_zeroed(self.layout.page_size())))
    }

    /// Get the page if it has been materialized.
    pub fn page(&self, page: PageId) -> Option<&LocalPage> {
        self.pages.get(page.index()).and_then(|p| p.as_deref())
    }

    /// Write `src` at global address `addr`, splitting across pages as
    /// needed.  The caller (the DSM protocol layer) is responsible for having
    /// made every touched page writable first (twin creation, fault handling).
    pub fn write(&mut self, addr: GlobalAddr, src: &[u8]) {
        let mut remaining = src;
        let mut cursor = addr;
        while !remaining.is_empty() {
            let page = self.layout.page_of(cursor);
            let off = self.layout.offset_in_page(cursor);
            let avail = self.layout.page_size() - off;
            let take = avail.min(remaining.len());
            self.page_mut(page).write_bytes(off, &remaining[..take]);
            remaining = &remaining[take..];
            cursor = cursor.add(take as u64);
        }
    }

    /// Read into `dst` from global address `addr`, splitting across pages.
    /// `on_useful(exchange, words)` is invoked for delivered words read for
    /// the first time, aggregated per page segment.
    pub fn read(&mut self, addr: GlobalAddr, dst: &mut [u8], mut on_useful: impl FnMut(u32, u64)) {
        let mut filled = 0usize;
        let mut cursor = addr;
        while filled < dst.len() {
            let page = self.layout.page_of(cursor);
            let off = self.layout.offset_in_page(cursor);
            let avail = self.layout.page_size() - off;
            let take = avail.min(dst.len() - filled);
            self.page_mut(page)
                .read_bytes(off, &mut dst[filled..filled + take], |e, words| {
                    on_useful(e, words as u64 * WORD_SIZE as u64)
                });
            filled += take;
            cursor = cursor.add(take as u64);
        }
    }

    /// Total number of delivered-but-unread words across all resident pages.
    pub fn pending_attributions(&self) -> usize {
        self.pages
            .iter()
            .flatten()
            .map(|p| p.pending_attributions())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layout() -> PageLayout {
        PageLayout::new(256, 8)
    }

    #[test]
    fn zero_initialised_and_lazy() {
        let mut store = PageStore::new(layout());
        assert_eq!(store.resident_pages(), 0);
        let mut buf = [0xFFu8; 16];
        store.read(GlobalAddr(10), &mut buf, |_, _| {});
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(store.resident_pages(), 1);
    }

    #[test]
    fn write_then_read_roundtrip_across_pages() {
        let mut store = PageStore::new(layout());
        let data: Vec<u8> = (0..300).map(|i| (i % 255) as u8).collect();
        store.write(GlobalAddr(200), &data);
        let mut out = vec![0u8; 300];
        store.read(GlobalAddr(200), &mut out, |_, _| {});
        assert_eq!(out, data);
        assert_eq!(store.resident_pages(), 2); // bytes 200..500 touch pages 0 and 1
    }

    #[test]
    fn twin_and_diff_cycle() {
        let mut store = PageStore::new(layout());
        let page = PageId(2);
        let p = store.page_mut(page);
        assert!(p.ensure_twin());
        assert!(!p.ensure_twin());
        p.write_bytes(8, &[1, 2, 3, 4]);
        let diff = p.make_diff(page).unwrap();
        assert_eq!(diff.spans().len(), 1);
        assert_eq!(diff.payload_bytes(), 4);
        p.drop_twin();
        assert!(
            p.ensure_twin(),
            "the twin is gone: the next write twins anew"
        );
    }

    #[test]
    fn attribution_read_before_overwrite_is_useful() {
        let mut store = PageStore::new(layout());
        let page = PageId(0);
        // Build a diff that delivers words 2 and 3.
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[8..16].copy_from_slice(&[9; 8]);
        let diff = Diff::create(page, &twin, &cur);

        store.page_mut(page).apply_diff(&diff, 7);
        assert_eq!(store.pending_attributions(), 2);

        // Read one delivered word: exchange 7 gets credited exactly once.
        let mut credited = Vec::new();
        let mut buf = [0u8; 4];
        store.read(GlobalAddr(8), &mut buf, |e, b| credited.push((e, b)));
        assert_eq!(credited, vec![(7, 4)]);
        assert_eq!(buf, [9, 9, 9, 9]);
        // Re-reading does not double count.
        credited.clear();
        store.read(GlobalAddr(8), &mut buf, |e, b| credited.push((e, b)));
        assert!(credited.is_empty());
        assert_eq!(store.pending_attributions(), 1);
    }

    #[test]
    fn attribution_overwrite_before_read_is_not_credited() {
        let mut store = PageStore::new(layout());
        let page = PageId(0);
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[0..4].copy_from_slice(&[5; 4]);
        let diff = Diff::create(page, &twin, &cur);
        store.page_mut(page).apply_diff(&diff, 3);

        // Local write lands on the delivered word before any read.
        store.write(GlobalAddr(0), &[1, 1, 1, 1]);
        let mut credited = Vec::new();
        let mut buf = [0u8; 4];
        store.read(GlobalAddr(0), &mut buf, |e, b| credited.push((e, b)));
        assert!(credited.is_empty());
        assert_eq!(buf, [1, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn out_of_range_page_panics() {
        let mut store = PageStore::new(layout());
        store.page_mut(PageId(100));
    }

    #[test]
    fn rewriting_a_word_with_its_old_value_stays_out_of_the_diff() {
        // The dirty-word bits are a superset filter: flagged words must
        // still be compared, so a no-op rewrite never reaches the wire.
        let mut store = PageStore::new(layout());
        let page = PageId(1);
        let p = store.page_mut(page);
        p.write_bytes(0, &[3, 3, 3, 3]);
        p.ensure_twin();
        p.write_bytes(0, &[3, 3, 3, 3]); // dirty bit set, contents unchanged
        p.write_bytes(12, &[1, 2, 3, 4]);
        let diff = p.make_diff(page).unwrap();
        assert_eq!(diff.spans().len(), 1);
        assert_eq!(diff.spans()[0].offset, 12);
    }

    #[test]
    fn twin_buffer_is_recycled_across_intervals() {
        let mut store = PageStore::new(layout());
        let p = store.page_mut(PageId(0));
        p.ensure_twin();
        p.write_bytes(0, &[1, 1, 1, 1]);
        let d1 = p.make_diff(PageId(0)).unwrap();
        assert_eq!(d1.spans()[0].offset, 0);
        p.drop_twin();
        // The recycled buffer must be re-seeded from the *current* contents,
        // not carry stale bytes from the previous interval.
        assert!(p.ensure_twin());
        p.write_bytes(8, &[2, 2, 2, 2]);
        let d2 = p.make_diff(PageId(0)).unwrap();
        assert_eq!(d2.spans().len(), 1);
        assert_eq!(d2.runs().next().unwrap(), (8, &[2u8, 2, 2, 2][..]));
    }

    /// A dense diff whose payload *is* the writer's page image, the image
    /// bytes it was made from, and the writer page still sharing it.
    fn page_sharing_its_image_with_a_published_diff() -> (LocalPage, Diff, Vec<u8>) {
        let mut writer = LocalPage::new_zeroed(256);
        writer.ensure_twin();
        let image: Vec<u8> = (0..256).map(|i| i as u8 | 1).collect();
        writer.write_bytes(0, &image);
        let published = writer.make_diff(PageId(0)).unwrap();
        writer.drop_twin();
        assert!(published.whole_page_shared_image().is_some());
        assert_eq!(Arc::strong_count(&writer.data), 2, "diff borrows the image");
        (writer, published, image)
    }

    /// A sparse diff touching every other word of a 256-byte page, and its
    /// 32 one-word runs as a visible-interval list.
    fn every_other_word() -> (Diff, Vec<(u32, u32)>) {
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        for w in (0..64).step_by(2) {
            cur[w * 4..w * 4 + 4].copy_from_slice(&[0xA0 | w as u8; 4]);
        }
        let diff = Diff::create(PageId(0), &twin, &cur);
        let visible: Vec<(u32, u32)> = diff.spans().iter().map(|s| (s.offset, s.end())).collect();
        assert!(visible.len() >= 16);
        (diff, visible)
    }

    #[test]
    fn a_twin_over_a_shared_image_is_exact_and_over_an_owned_one_lazy() {
        let (mut page, published, image) = page_sharing_its_image_with_a_published_diff();
        page.ensure_twin();
        assert!(matches!(&page.preimage, PreImage::Exact(snap) if snap[..] == image[..]));
        page.write_bytes(8, &[0; 8]);
        let exact = page.make_diff(PageId(0)).unwrap();
        page.drop_twin();
        drop(published);

        // Nothing shares the (detached) image any more: the same interval
        // replayed against the lazily filled buffer encodes the same diff.
        page.write_bytes(8, &image[8..16]);
        page.ensure_twin();
        assert!(matches!(&page.preimage, PreImage::Lazy(buf) if buf.len() >= 256));
        page.write_bytes(8, &[0; 8]);
        assert_eq!(page.make_diff(PageId(0)).unwrap(), exact);
    }

    #[test]
    fn visible_apply_detaches_a_shared_image_once_and_leaves_the_diff_alone() {
        let (mut page, published, image) = page_sharing_its_image_with_a_published_diff();
        let (sparse, visible) = every_other_word();
        page.apply_diff_visible(&sparse, 3, &visible);

        // The published diff still holds the pre-apply image, byte for byte.
        assert_eq!(published.runs().next().unwrap(), (0, &image[..]));
        // The page detached: it owns its image again and holds the overlay.
        assert_eq!(Arc::strong_count(&page.data), 1);
        let mut want = image.clone();
        sparse.apply(&mut want);
        assert_eq!(page.bytes(), &want[..]);
        assert_eq!(page.pending_attributions(), 32);
    }

    #[test]
    fn visible_apply_over_a_parked_delivery_leaves_the_parked_diff_alone() {
        let (_writer, published, image) = page_sharing_its_image_with_a_published_diff();
        let published = Arc::new(published);
        let mut page = LocalPage::new_zeroed(256);
        page.apply_diff_deferred(&published, 9, &mut Vec::new(), &mut Vec::new());
        assert!(page.deferred.is_some());

        let (sparse, visible) = every_other_word();
        page.apply_diff_visible(&sparse, 3, &visible);

        assert!(page.deferred.is_none());
        assert_eq!(published.runs().next().unwrap(), (0, &image[..]));
        assert_eq!(Arc::strong_count(&page.data), 1);
        let mut want = image.clone();
        sparse.apply(&mut want);
        assert_eq!(page.bytes(), &want[..]);
        // The parked whole-page delivery attributed all 64 words to exchange
        // 9; the overlay re-attributed 32 of them, none fresh.
        assert_eq!(page.pending_attributions(), 64);
        let mut credited = Vec::new();
        page.read_bytes(0, &mut [0u8; 8], |e, words| credited.push((e, words)));
        assert_eq!(credited, vec![(3, 1), (9, 1)]);
    }

    #[test]
    fn four_and_eight_byte_accesses_match_a_flat_model_at_any_offset() {
        let mut page = LocalPage::new_zeroed(256);
        let mut model = vec![0u8; 256];
        for (i, off) in [0usize, 1, 3, 4, 100, 247, 248, 252]
            .into_iter()
            .enumerate()
        {
            for len in [4usize, 8] {
                if off + len > 256 {
                    continue;
                }
                let src: Vec<u8> = (0..len).map(|k| (i * 16 + k + 1) as u8).collect();
                page.write_bytes(off, &src);
                model[off..off + len].copy_from_slice(&src);
                let mut got = vec![0u8; len];
                page.read_bytes(off, &mut got, |_, _| {});
                assert_eq!(got, src);
                assert_eq!(page.bytes(), &model[..]);
            }
            if i == 3 {
                // The second half of the offsets runs against a live twin.
                page.ensure_twin();
            }
        }
    }

    #[test]
    fn pending_attribution_counter_tracks_reads_writes_and_loads() {
        let mut store = PageStore::new(layout());
        let page = PageId(0);
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[0..12].copy_from_slice(&[4; 12]);
        let diff = Diff::create(page, &twin, &cur);

        let p = store.page_mut(page);
        p.apply_diff(&diff, 5);
        assert_eq!(p.pending_attributions(), 3);
        // Re-applying attributes the same words again: count must not inflate.
        p.apply_diff(&diff, 6);
        assert_eq!(p.pending_attributions(), 3);

        // A read consumes one word's attribution...
        let mut buf = [0u8; 4];
        p.read_bytes(0, &mut buf, |_, _| {});
        assert_eq!(p.pending_attributions(), 2);
        // ...a write consumes another...
        p.write_bytes(4, &[9; 4]);
        assert_eq!(p.pending_attributions(), 1);
        // ...and a whole-page load resets the slate.
        p.load_page(&vec![7u8; 256], 9);
        assert_eq!(p.pending_attributions(), 64);
        p.load_page(&vec![7u8; 256], NO_EXCHANGE);
        assert_eq!(p.pending_attributions(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whichever pre-image a twin gets — the previous interval's shared
        /// snapshot (exact) or the lazily filled private buffer — the
        /// interval's diff is `Diff::create(twin, current)`, and both kinds
        /// occur.  Dense intervals publish a diff that borrows the image, so
        /// the next twin is exact; dropping that diff first makes it lazy.
        #[test]
        fn lazy_and_exact_preimages_yield_the_twin_compare_diff(
            seed in any::<u64>(),
            intervals in prop::collection::vec(
                prop::collection::vec(
                    (0usize..4096, prop::collection::vec(any::<u8>(), 1..96)),
                    1..6,
                ),
                2..8,
            ),
        ) {
            let page_size = 4096usize;
            let mut page = LocalPage::new_zeroed(page_size);
            let mut state = seed | 1;
            let mut blast = vec![0u8; page_size];
            let mut held: Option<Diff> = None;
            let (mut exact, mut lazy) = (0, 0);
            for (k, writes) in intervals.iter().enumerate() {
                let twin = page.bytes().to_vec();
                let shared = held.as_ref().is_some_and(|d| d.whole_page_shared_image().is_some());
                page.ensure_twin();
                match &page.preimage {
                    PreImage::Exact(snapshot) => {
                        prop_assert!(shared);
                        prop_assert_eq!(&snapshot[..], &twin[..]);
                        exact += 1;
                    }
                    PreImage::Lazy(buf) => {
                        prop_assert!(!shared);
                        prop_assert!(buf.len() >= page_size);
                        lazy += 1;
                    }
                }
                for (off0, data) in writes {
                    let len = data.len().min(page_size);
                    let off = (*off0).min(page_size - len);
                    page.write_bytes(off, &data[..len]);
                }
                // Every other interval rewrites the whole page, so its diff
                // is dense and borrows the image.
                if k % 2 == 0 {
                    for (i, b) in blast.iter_mut().enumerate() {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        *b = (state >> 25) as u8 ^ i as u8;
                    }
                    page.write_bytes(0, &blast);
                }
                let diff = page.make_diff(PageId(0)).unwrap();
                prop_assert_eq!(&diff, &Diff::create(PageId(0), &twin, page.bytes()));
                page.drop_twin();
                // Keep the dense diff alive into the next interval two times
                // out of three.
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                held = (state % 3 != 0).then_some(diff);
            }
            prop_assert!(lazy >= 1, "the first twin is always lazy");
            prop_assert_eq!(exact + lazy, intervals.len());
        }
    }
}
