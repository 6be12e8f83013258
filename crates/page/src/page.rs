//! A processor's private copy of the shared address space.
//!
//! Every DSM processor holds its own [`PageStore`]: the local copies of the
//! shared pages, the twins used by the multiple-writer protocol, and the
//! per-word *delivery attribution* used by the paper's instrumentation to
//! decide, for every word a diff delivered, whether it was eventually read
//! (useful data) or never read before being overwritten or the end of the run
//! (useless data).

use crate::diff::Diff;
use crate::image::Image;
use crate::layout::{GlobalAddr, PageId, PageLayout, WORD_SIZE};
use std::sync::Arc;

/// Sentinel attribution meaning "this word was not delivered by any exchange
/// (or its delivery has already been classified)".
pub const NO_EXCHANGE: u32 = u32::MAX;

/// One hardware page as held by one processor: current contents, the
/// interval's twin, and per-word delivery attribution.
///
/// The twin of the multiple-writer protocol is a copy-on-write snapshot: at
/// the first write of an interval, [`ensure_twin`](Self::ensure_twin) shares
/// the page image instead of copying it, and the first store after it pays
/// the copy as an ordinary detach — or, when it rewrites the whole page,
/// builds the new image straight from the source and never copies at all.
/// The write path therefore does not know whether a twin is live.  At
/// interval close, [`make_diff_into`](Self::make_diff_into) compares page
/// and twin once and encodes the words that differ: the TreadMarks twin and
/// compare, bit-identical to [`Diff::create`] against the interval-start
/// bytes.
///
/// The page image itself is a shared [`Image`] so a dense diff published at
/// interval close can borrow it outright (no payload copy; see
/// [`Diff::rebuild_from_changed`]).  Any later mutation detaches it first,
/// as the twin's does.  A [`PageStore`]'s page starts on the store's all-zero
/// image, shared, so the same rules give it its first image of its own: a
/// read reads zeros, a whole-page delivery adopts the diff's image, and the
/// first store detaches.  Every image a page builds — a detach or a
/// whole-page store into a shared image — comes from the pool of the image
/// it replaces, and goes back there on its last drop.
#[derive(Debug)]
pub struct LocalPage {
    data: Image,
    /// The page image as it was at [`ensure_twin`](Self::ensure_twin), or
    /// `None`: a twin is live (the page is in the current interval's write
    /// set) exactly when this is not `None`.
    twin: Option<Image>,
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
}

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
    /// Create a zero-filled page of `page_size` bytes over a zero image of
    /// its own, with a pool of its own.
    pub fn new_zeroed(page_size: usize) -> Self {
        Self::showing(Image::zeroed(page_size))
    }

    /// A page whose contents are `image`, which it may share: a
    /// [`PageStore`]'s pages start on the store's one zero image, and the
    /// copy-on-write rules give a page its own image when it first differs.
    fn showing(image: Image) -> Self {
        LocalPage {
            data: image,
            twin: None,
            attribution: None,
            pending: 0,
            uniform: NO_EXCHANGE,
            attr_dirty: false,
        }
    }

    /// Number of 32-bit words in the page.
    #[inline]
    fn words(&self) -> usize {
        self.data.len() / WORD_SIZE
    }

    /// Whether a twin is live.
    #[inline]
    fn twinned(&self) -> bool {
        self.twin.is_some()
    }

    /// Mutable access to the page image, detaching (copying) it first if a
    /// twin, a published diff or a reader still shares it — the "copy" of
    /// copy-on-next-write.  Loops establish uniqueness once and keep the
    /// slice.
    fn data_mut(&mut self) -> &mut [u8] {
        self.data.detached()
    }

    /// Replace the whole image with `src`.  When the current image is still
    /// shared (with a twin, a published diff or a reader), the new image is
    /// built straight from `src` — the detach copy a partial write would pay
    /// never happens.
    fn replace_data(&mut self, src: &[u8]) {
        if self.data.is_shared() {
            self.data = self.data.filled(src);
        } else {
            self.data.written().copy_from_slice(src);
        }
    }

    /// Drop out of the compact uniform/stale attribution representations
    /// into the mixed one, making the per-word `attribution` array
    /// authoritative (allocating it on first use).  Called before any
    /// partial-range attribution access.
    fn materialize_attr(&mut self) {
        let words = self.words();
        materialized_attr(
            &mut self.attribution,
            &mut self.uniform,
            &mut self.attr_dirty,
            words,
        );
    }

    /// Current contents of the page.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Create the twin if it does not exist yet.  Returns `true` if a twin
    /// was created by this call (the "first write to a shared page" event).
    /// No page copy happens here: the twin shares the image, and the first
    /// store of the interval detaches the page from it (a whole-page store
    /// builds its image from the stored bytes instead).
    pub fn ensure_twin(&mut self) -> bool {
        if self.twinned() {
            return false;
        }
        self.twin = Some(self.data.clone());
        true
    }

    /// Produce the diff of the current writing interval.  Returns `None` if
    /// the page has no twin.  The page is compared with its twin word by
    /// word, and a dense diff borrows the page image itself instead of
    /// packing a payload copy.
    pub fn make_diff(&self, page: PageId) -> Option<Diff> {
        let mut diff = Diff::empty(page);
        self.make_diff_into(page, &mut diff, &mut Vec::new())
            .then_some(diff)
    }

    /// [`make_diff`](Self::make_diff) rebuilt inside `diff`, whatever it
    /// held, keeping its buffers (see [`Diff::rebuild_from_changed`]): the
    /// interval close rebuilds retired diffs through here.  `changed` is
    /// caller scratch for the compare's changed-word bitset (contents
    /// ignored and clobbered), kept across closes so that a close allocates
    /// no bitset.  Returns `false`, leaving `diff` alone, if the page has no
    /// twin.
    pub fn make_diff_into(&self, page: PageId, diff: &mut Diff, changed: &mut Vec<u64>) -> bool {
        let Some(twin) = &self.twin else {
            return false;
        };
        changed.resize(self.words().div_ceil(64), 0);
        changed_bits(&self.data, twin, changed);
        diff.rebuild_from_changed(page, &self.data, changed);
        true
    }

    /// Retire the twin (the interval's modifications have been encoded; the
    /// twin is dead weight from here on — under lazy diff timing the stored
    /// encoding, not the twin, is what later requests serve from).  The
    /// pre-interval image goes back to its pool if the twin held it last.
    pub fn drop_twin(&mut self) {
        self.twin = None;
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
        if offset == 0 && end == self.data.len() {
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
                let words = &mut attribution[first..=last];
                attribute_words(words, &mut self.pending, false, NO_EXCHANGE);
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
                    attribution[first..=last].fill(NO_EXCHANGE);
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
        debug_assert!(!self.twinned(), "delivery onto a twinned page");
        self.replace_data(src);
        self.attribute_page(exchange);
    }

    /// Apply a diff received from another processor — how the newest
    /// member of a [`deliver`](Self::deliver)ed round lands.  Every word the
    /// diff overwrites is attributed to `exchange`, or left unattributed for
    /// [`NO_EXCHANGE`] (a delivery that crossed no wire).  A whole-page
    /// shared image is adopted by reference (the next local write detaches
    /// as usual).
    pub fn apply_diff(&mut self, diff: &Diff, exchange: u32) {
        debug_assert!(!self.twinned(), "delivery onto a twinned page");
        if !diff.covers_page(self.data.len()) {
            diff.apply(self.data_mut());
            return self.attribute(exchange, diff.spans().iter().map(|s| (s.offset, s.end())));
        }
        match diff.whole_page_shared_image() {
            Some(image) => self.data = image.clone(),
            None => self.replace_data(diff.runs().next().expect("one span, one run").1),
        }
        self.attribute_page(exchange);
    }

    /// Attribute every word of the page to `exchange` ([`NO_EXCHANGE`]:
    /// to none) in the compact uniform representation — the dominant
    /// delivery shape for the grid applications pays no array traffic.
    fn attribute_page(&mut self, exchange: u32) {
        self.pending = if exchange == NO_EXCHANGE {
            0
        } else {
            self.words() as u32
        };
        self.uniform = exchange;
        // The array, live or stale, is wiped before its next per-word use.
        self.attr_dirty = true;
    }

    /// Attribute the words of the word-aligned byte intervals `runs`
    /// (disjoint) to `exchange`, or clear them for [`NO_EXCHANGE`].
    fn attribute(&mut self, exchange: u32, runs: impl Iterator<Item = (u32, u32)>) {
        if exchange == NO_EXCHANGE && self.pending == 0 {
            return;
        }
        self.materialize_attr();
        // When nothing is attributed yet, no touched word holds an
        // attribution and the per-word scan can be skipped.
        let none_held = self.pending == 0;
        let attribution = self.attribution.as_mut().expect("materialized");
        for (lo, hi) in runs {
            let words = &mut attribution[lo as usize / WORD_SIZE..hi as usize / WORD_SIZE];
            attribute_words(words, &mut self.pending, none_held, exchange);
        }
    }

    /// Deliver one round of this page's fetched diffs, given newest first
    /// (reverse happens-before order) with their exchange ids, and land it
    /// whole.  Every older member lands only on the words no newer member
    /// writes: a reverse painter over one word-cover bitset, so the memory
    /// traffic is the union of the payloads, not their sum.  The newest
    /// then lands through [`apply_diff`](Self::apply_diff).  Page bytes,
    /// per-word attribution, pending count and whole-page adoption are
    /// exactly those of `apply_diff` of every member, oldest first.
    ///
    /// `cover` is caller scratch (contents ignored and clobbered), kept
    /// across rounds so that a delivery allocates nothing.
    pub fn deliver<'a>(
        &mut self,
        newest_first: impl IntoIterator<Item = (&'a Arc<Diff>, u32)>,
        cover: &mut Vec<u64>,
    ) {
        debug_assert!(!self.twinned(), "delivery onto a twinned page");
        let mut round = newest_first.into_iter();
        let Some((newest, exchange)) = round.next() else {
            return;
        };
        // An empty newest member would leave an older whole-page image
        // visible everywhere, to be painted where `apply_diff` adopts it.
        debug_assert!(!newest.is_empty(), "a published diff writes a word");
        let mut older = round.peekable();
        if older.peek().is_some() {
            let words = self.words();
            cover.clear();
            cover.resize(words.div_ceil(64), 0);
            let mut covered = newest.for_each_uncovered(cover, &mut |_, _| {});
            for (diff, exchange) in older {
                if covered == words {
                    break;
                }
                covered += self.paint_uncovered(diff, exchange, cover);
            }
        }
        self.apply_diff(newest, exchange);
    }

    /// Land the words of `diff` that `cover` lacks — content and
    /// attribution, as [`apply_diff`](Self::apply_diff) would — adding them
    /// to it, and return how many there were.  Each interval is painted as
    /// the cover walk finds it.
    fn paint_uncovered(&mut self, diff: &Diff, exchange: u32, cover: &mut [u64]) -> usize {
        let words = self.words();
        // As in `attribute`: nothing to clear and nothing to credit skips
        // the attribution, and nothing held skips the per-word count.
        let none_held = self.pending == 0;
        let attributes = exchange != NO_EXCHANGE || !none_held;
        let LocalPage {
            data,
            attribution,
            pending,
            uniform,
            attr_dirty,
            ..
        } = self;
        // Both are established at the first painted interval, so a diff
        // that paints nothing detaches no image and materialises no
        // attribution, and one that does checks uniqueness once.
        let mut data = Some(data);
        let mut image: Option<&mut [u8]> = None;
        let mut attr_state = attributes.then_some((attribution, uniform, attr_dirty));
        let mut attr: Option<&mut [u32]> = None;
        diff.for_each_uncovered(cover, &mut |lo, bytes| {
            let hi = lo + bytes.len();
            let image = image
                .get_or_insert_with(|| data.take().expect("the image is detached once").detached());
            copy_bytes(&mut image[lo..hi], bytes);
            if let Some((attribution, uniform, attr_dirty)) = attr_state.take() {
                attr = Some(materialized_attr(attribution, uniform, attr_dirty, words));
            }
            if let Some(attr) = attr.as_deref_mut() {
                let words = &mut attr[lo / WORD_SIZE..hi / WORD_SIZE];
                attribute_words(words, pending, none_held, exchange);
            }
        })
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

/// [`LocalPage::materialize_attr`] over the fields it touches, handing back
/// the array, so that a delivery can hold it and the page image at once.
fn materialized_attr<'a>(
    attribution: &'a mut Option<Box<[u32]>>,
    uniform: &mut u32,
    attr_dirty: &mut bool,
    words: usize,
) -> &'a mut [u32] {
    let attribution =
        attribution.get_or_insert_with(|| vec![NO_EXCHANGE; words].into_boxed_slice());
    if *uniform != NO_EXCHANGE {
        attribution.fill(*uniform);
        *uniform = NO_EXCHANGE;
        *attr_dirty = false;
    } else if *attr_dirty {
        attribution.fill(NO_EXCHANGE);
        *attr_dirty = false;
    }
    attribution
}

/// Attribute `words` of the mixed-representation array to `exchange`, or
/// clear them for [`NO_EXCHANGE`], keeping `pending` exact.  `none_held`
/// says no word of them holds an attribution, which skips the count.
fn attribute_words(words: &mut [u32], pending: &mut u32, none_held: bool, exchange: u32) {
    if !none_held {
        *pending -= words.iter().filter(|&&a| a != NO_EXCHANGE).count() as u32;
    }
    if exchange != NO_EXCHANGE {
        *pending += words.len() as u32;
    }
    words.fill(exchange);
}

/// Set bit `w % 64` of `bits[w / 64]` iff word `w` of `page` differs from
/// word `w` of `twin`, for every word of the page: the close's one compare
/// scan.  A 64-word block that is unchanged, as most of a sparsely written
/// page are, is settled by one slice compare.
fn changed_bits(page: &[u8], twin: &[u8], bits: &mut [u64]) {
    const BLOCK: usize = 64 * WORD_SIZE;
    let word = |b: &[u8]| u32::from_ne_bytes(b.try_into().expect("a whole word"));
    for ((blk, page), twin) in bits
        .iter_mut()
        .zip(page.chunks(BLOCK))
        .zip(twin.chunks(BLOCK))
    {
        let mut new_bits = 0u64;
        if page != twin {
            let words = page
                .chunks_exact(WORD_SIZE)
                .zip(twin.chunks_exact(WORD_SIZE));
            for (k, (p, t)) in words.enumerate() {
                new_bits |= ((word(p) != word(t)) as u64) << k;
            }
        }
        *blk = new_bits;
    }
}

/// A processor's private view of the entire shared address space.
///
/// Pages are materialized lazily: a page that was never touched by this
/// processor costs nothing, and one it only reads costs its slot — every
/// page starts on the store's one all-zero image, shared, and gets an image
/// of its own only when a store or a delivery first makes it differ.
#[derive(Debug)]
pub struct PageStore {
    layout: PageLayout,
    /// The image every page shows until it first differs from zero.  Never
    /// written: it is always shared, so every write path detaches it first.
    zero: Image,
    pages: Vec<Option<Box<LocalPage>>>,
}

impl PageStore {
    /// Create an empty store for the given layout, over a zero image (and so
    /// a pool) of its own.
    pub fn new(layout: PageLayout) -> Self {
        Self::with_zero_image(layout, Image::zeroed(layout.page_size()))
    }

    /// Create an empty store whose pages start on `zero`, an all-zero image
    /// of the layout's page size that other stores may share: a run builds
    /// one for all its processors, and its pool is the run's.
    ///
    /// # Panics
    /// Panics if `zero` is not one page long.
    pub fn with_zero_image(layout: PageLayout, zero: Image) -> Self {
        assert_eq!(
            zero.len(),
            layout.page_size(),
            "zero image must be one page"
        );
        debug_assert!(zero.iter().all(|&b| b == 0), "zero image holds a set byte");
        PageStore {
            layout,
            zero,
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

    /// Get the page, materializing it over the zero image on its first use.
    pub fn page_mut(&mut self, page: PageId) -> &mut LocalPage {
        let idx = page.index();
        assert!(idx < self.pages.len(), "page {page} outside layout");
        self.pages[idx].get_or_insert_with(|| Box::new(LocalPage::showing(self.zero.clone())))
    }

    /// Get the page if it has been materialized.
    pub fn page(&self, page: PageId) -> Option<&LocalPage> {
        self.pages.get(page.index()).and_then(|p| p.as_deref())
    }

    /// Write `src` at global address `addr`, splitting across pages as
    /// needed.  The caller (the DSM protocol layer) is responsible for having
    /// made every touched page writable first (twin creation, fault handling).
    pub fn write(&mut self, addr: GlobalAddr, src: &[u8]) {
        for (page, off, piece) in self.layout.segments(addr, src.len()) {
            self.page_mut(page).write_bytes(off, &src[piece]);
        }
    }

    /// Read into `dst` from global address `addr`, splitting across pages.
    /// `on_useful(exchange, words)` is invoked for delivered words read for
    /// the first time, aggregated per page segment.
    pub fn read(&mut self, addr: GlobalAddr, dst: &mut [u8], mut on_useful: impl FnMut(u32, u64)) {
        for (page, off, piece) in self.layout.segments(addr, dst.len()) {
            self.page_mut(page)
                .read_bytes(off, &mut dst[piece], |e, words| {
                    on_useful(e, words as u64 * WORD_SIZE as u64)
                });
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
        assert!(writer.data.is_shared(), "diff borrows the image");
        (writer, published, image)
    }

    /// A sparse diff touching every other word of a 256-byte page: 32
    /// one-word runs.
    fn every_other_word() -> Diff {
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        for w in (0..64).step_by(2) {
            cur[w * 4..w * 4 + 4].copy_from_slice(&[0xA0 | w as u8; 4]);
        }
        let diff = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(diff.spans().len(), 32);
        diff
    }

    #[test]
    fn a_twin_over_a_shared_image_and_over_an_owned_one_is_a_snapshot() {
        let (mut page, published, image) = page_sharing_its_image_with_a_published_diff();
        page.ensure_twin();
        let shared = published.whole_page_shared_image().unwrap().as_ptr();
        assert_eq!(page.twin.as_ref().unwrap().as_ptr(), shared);
        page.write_bytes(8, &[0; 8]);
        let over_shared = page.make_diff(PageId(0)).unwrap();
        page.drop_twin();
        // Dropping the twin let go of the snapshot: the published diff holds
        // the pre-interval image alone, so its last drop pools it.
        assert!(!published.whole_page_shared_image().unwrap().is_shared());
        drop(published);

        // Nothing shares the (detached) image any more: the twin shares the
        // page's own, and the same interval replayed encodes the same diff.
        page.write_bytes(8, &image[8..16]);
        assert!(!page.data.is_shared());
        page.ensure_twin();
        assert_eq!(page.twin.as_ref().unwrap().as_ptr(), page.data.as_ptr());
        page.write_bytes(8, &[0; 8]);
        assert_eq!(page.make_diff(PageId(0)).unwrap(), over_shared);
    }

    #[test]
    fn a_twin_over_an_owned_image_shares_it_until_the_first_store() {
        let zero = Image::zeroed(256);
        let mut page = LocalPage::showing(zero.clone());
        page.write_bytes(0, &[1; 4]);
        let owned = page.data.as_ptr();
        let spare = zero.filled(&[0xEE; 256]);
        let spare_at = spare.as_ptr();
        drop(spare);
        assert_eq!(zero.pooled(), 1);

        // Twinning takes nothing from the pool: the twin is the page's image.
        page.ensure_twin();
        assert_eq!(
            (page.twin.as_ref().unwrap().as_ptr(), zero.pooled()),
            (owned, 1)
        );
        // The first partial store takes exactly one buffer, the next none.
        page.write_bytes(8, &[2; 4]);
        assert_eq!((page.data.as_ptr(), zero.pooled()), (spare_at, 0));
        page.write_bytes(13, &[3; 2]);
        assert_eq!((page.data.as_ptr(), zero.pooled()), (spare_at, 0));
        let twin = page.twin.as_ref().unwrap();
        assert_eq!(twin.as_ptr(), owned);
        assert_eq!(twin[..16], [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let diff = page.make_diff(PageId(0)).unwrap();
        assert_eq!(
            diff.runs().collect::<Vec<_>>(),
            [(8, &[2, 2, 2, 2, 0, 3, 3, 0][..])]
        );
        page.drop_twin();
        assert_eq!(zero.pooled(), 1, "the pre-interval image went back");

        // A whole-page store leaves the pre-interval buffer to the twin and
        // builds into the pooled one.
        page.ensure_twin();
        page.write_bytes(0, &[4; 256]);
        let twin = page.twin.as_ref().unwrap();
        assert_eq!((twin.as_ptr(), twin[8]), (spare_at, 2));
        assert_eq!((page.data.as_ptr(), zero.pooled()), (owned, 0));
        assert_eq!(page.make_diff(PageId(0)).unwrap().payload_bytes(), 256);
    }

    #[test]
    fn visible_apply_detaches_a_shared_image_once_and_leaves_the_diff_alone() {
        let (mut page, published, image) = page_sharing_its_image_with_a_published_diff();
        let sparse = every_other_word();
        let pooled = page.data.filled(&[0xEE; 256]);
        let at = pooled.as_ptr();
        drop(pooled);
        let before = page.data.pooled();
        assert_eq!(page.paint_uncovered(&sparse, 3, &mut [0; 1]), 32);

        // The published diff still holds the pre-apply image, byte for byte.
        assert_eq!(published.runs().next().unwrap(), (0, &image[..]));
        // The page detached once, into the pooled image: it owns its image
        // again and holds the overlay.
        assert_eq!((page.data.as_ptr(), page.data.pooled()), (at, before - 1));
        assert!(!page.data.is_shared());
        let mut want = image.clone();
        sparse.apply(&mut want);
        assert_eq!(page.bytes(), &want[..]);
        assert_eq!(page.pending_attributions(), 32);
    }

    #[test]
    fn a_readers_last_drop_reaches_the_pool() {
        /// One interval of `writer` storing `value` over the whole page;
        /// its diff borrows the image.
        fn interval(writer: &mut LocalPage, value: u8) -> Diff {
            writer.ensure_twin();
            writer.write_bytes(0, &[value; 256]);
            let diff = writer.make_diff(PageId(0)).unwrap();
            writer.drop_twin();
            diff
        }
        let zero = Image::zeroed(256);
        let (mut writer, mut reader) = (
            LocalPage::showing(zero.clone()),
            LocalPage::showing(zero.clone()),
        );
        let first = interval(&mut writer, 1);
        reader.apply_diff(&first, 0);
        drop(first);
        let adopted = reader.data.as_ptr();
        let second = interval(&mut writer, 2);
        reader.apply_diff(&second, 1);
        drop(second);
        // The reader let go of the first image last: the writer's next
        // store into its (shared) image builds into that buffer.
        assert_eq!(zero.pooled(), 1);
        writer.ensure_twin();
        writer.write_bytes(0, &[3; 256]);
        assert_eq!((writer.data.as_ptr(), zero.pooled()), (adopted, 0));
        assert_eq!(reader.bytes(), &[2; 256][..]);
    }

    #[test]
    fn a_twins_image_goes_back_at_drop_twin() {
        let zero = Image::zeroed(256);
        let (mut page, mut other) = (
            LocalPage::showing(zero.clone()),
            LocalPage::showing(zero.clone()),
        );
        page.write_bytes(0, &[1; 4]);
        page.ensure_twin();
        let at = page.twin.as_ref().unwrap().as_ptr();
        page.write_bytes(4, &[5; 4]);
        assert_ne!(page.data.as_ptr(), at, "the store detached from the twin");
        page.drop_twin();
        assert_eq!(zero.pooled(), 1);
        other.write_bytes(8, &[2; 4]);
        assert_eq!(
            other.data.as_ptr(),
            at,
            "the detach built into the twin's image"
        );
        assert_eq!(zero.pooled(), 0);
        assert_eq!(other.bytes()[..12], [0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2]);
    }

    /// One generated delivery: a shape (0: one run, 1: two runs, 2: one run
    /// plus every word the writer wrote before, 3: the whole page, 4: the
    /// whole page but a hole at the run's start), that run as (first word,
    /// words), an exchange selector (0 is [`NO_EXCHANGE`]) and whether the
    /// payload is packed rather than, when dense, the writer's shared image.
    type Member = (u8, (usize, usize), u32, bool);

    fn member() -> impl Strategy<Value = Member> {
        (0u8..5, (0usize..256, 1usize..120), 0u32..10, any::<bool>())
    }

    /// One writer's successive intervals on a 256-word page.  Every word an
    /// interval marks gets a value no earlier interval wrote, so the diff's
    /// words are exactly the marked ones.
    struct Writer {
        page: LocalPage,
        stamp: u32,
        written: [bool; 256],
    }

    impl Writer {
        fn new() -> Self {
            Writer {
                page: LocalPage::new_zeroed(1024),
                stamp: 0,
                written: [false; 256],
            }
        }

        fn next(&mut self, (shape, run, exchange, packed): Member) -> (Arc<Diff>, u32) {
            let twin = self.write(shape, run);
            let diff = if packed {
                Diff::create(PageId(0), &twin, self.page.bytes())
            } else {
                self.page.make_diff(PageId(0)).unwrap()
            };
            self.page.drop_twin();
            let exchange = if exchange == 0 { NO_EXCHANGE } else { exchange };
            (Arc::new(diff), exchange)
        }

        /// Write the words of one interval of `shape` and return the
        /// interval-start bytes, leaving the page twinned.
        fn write(&mut self, shape: u8, (start, len): (usize, usize)) -> Vec<u8> {
            let run = |marks: &mut [bool; 256], lo: usize, n: usize, on: bool| {
                marks[lo.min(256)..(lo + n).min(256)].fill(on)
            };
            let mut marks = [false; 256];
            match shape {
                0 => run(&mut marks, start, len, true),
                1 => {
                    run(&mut marks, start, len, true);
                    run(&mut marks, (start + len + 3) % 256, len / 2 + 1, true);
                }
                2 => {
                    marks = self.written;
                    run(&mut marks, start, len, true);
                }
                3 => marks = [true; 256],
                _ => {
                    marks = [true; 256];
                    run(&mut marks, start, len / 4 + 1, false);
                }
            }
            self.stamp += 1;
            let twin = self.page.bytes().to_vec();
            self.page.ensure_twin();
            for w in (0..256).filter(|&w| marks[w]) {
                let value = self.stamp << 16 | w as u32;
                self.page.write_bytes(w * WORD_SIZE, &value.to_le_bytes());
                self.written[w] = true;
            }
            twin
        }
    }

    /// One step of `a_page_over_the_shared_zero_image_acts_as_a_private_one`.
    /// Stored bytes are all zeros for a value below 64.
    #[derive(Debug, Clone)]
    enum Step {
        /// A store of (up to) `len` bytes at byte `offset`, of a value.
        Store(usize, usize, u8),
        /// A whole-page store of a value.
        StoreWhole(u8),
        /// Twin the page.
        Twin,
        /// Encode the interval's diff and drop the twin, keeping the diff
        /// (and so a dense one's image) alive into the next interval when
        /// set.
        Close(bool),
        /// Apply another page's next diff.
        Apply(Member),
        /// Deliver another page's next diffs as one round.
        Deliver(Vec<Member>),
        /// Read (up to) `len` bytes at byte `offset`.
        Read(usize, usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        let fields = (
            (0usize..1024, 1usize..1024),
            any::<u8>(),
            prop::collection::vec(member(), 1..4),
        );
        (0u8..8, fields).prop_map(|(kind, ((offset, len), value, mut round))| match kind {
            0 => Step::Store(offset, len / 4 + 1, value),
            1 => Step::StoreWhole(value),
            2 => Step::Twin,
            3 => Step::Close(value % 2 == 0),
            4 => Step::Apply(round.pop().expect("a round has a member")),
            5 => Step::Deliver(round),
            _ => Step::Read(offset, len),
        })
    }

    /// `len` stored bytes of `value` (see [`Step`]).
    fn stored(len: usize, value: u8) -> Vec<u8> {
        (0..len)
            .map(|i| {
                if value < 64 {
                    0
                } else {
                    (i as u8).wrapping_mul(31) ^ value
                }
            })
            .collect()
    }

    type Observed = (bool, usize, Vec<u8>, Vec<(u32, u32)>);

    /// What a page shows after a delivery: whether it adopted one of
    /// `diffs`' whole-page images by reference, its pending count, its bytes
    /// and the useful credit a whole-page read reports.
    fn observe(page: &mut LocalPage, diffs: &[&(Arc<Diff>, u32)]) -> Observed {
        let adopted = diffs.iter().any(|(d, _)| {
            d.whole_page_shared_image()
                .is_some_and(|image| image.as_ptr() == page.data.as_ptr())
        });
        let (pending, bytes) = (page.pending_attributions(), page.bytes().to_vec());
        let mut credited = Vec::new();
        page.read_bytes(0, &mut [0u8; 1024], |e, words| credited.push((e, words)));
        (adopted, pending, bytes, credited)
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

        /// Whatever the twin is taken over — the zero image, an image shared
        /// with the previous interval's diff, the page's own image, an image
        /// adopted whole from another writer's diff or one a delivered round
        /// just painted — the interval's diff is `Diff::create(twin,
        /// current)` under any mix of ragged, sub-word, value-restoring and
        /// whole-page stores, through `make_diff` and through
        /// `make_diff_into` a recycled diff over dirty scratch alike, and
        /// the twin shares the page's image until a store detaches it.
        #[test]
        fn a_close_encodes_the_twin_compare_diff(
            intervals in prop::collection::vec(
                (
                    0u8..3,
                    member(),
                    any::<bool>(),
                    prop::collection::vec((0u8..4, 0usize..1024, 1usize..64, any::<u8>()), 1..6),
                ),
                1..8,
            ),
        ) {
            let zero = Image::zeroed(1024);
            let mut page = LocalPage::showing(zero.clone());
            let mut writer = Writer::new();
            let mut mirror = vec![0u8; 1024];
            let mut cover = Vec::new();
            // Dirty compare scratch of the wrong length: neither may matter.
            let mut changed = vec![!0u64; 3];
            let mut recycled = Diff::empty(PageId(0));
            for (k, (origin, delivered, hold, stores)) in intervals.iter().enumerate() {
                let adopted = match origin {
                    // Adopt a whole-page image another writer published.
                    1 => {
                        let (diff, exchange) = writer.next((3, (0, 1), 1, false));
                        page.apply_diff(&diff, exchange);
                        diff.apply(&mut mirror);
                        diff.whole_page_shared_image().map(|image| image.as_ptr())
                    }
                    // Deliver a round, which lands before the twin is taken.
                    2 => {
                        let (diff, exchange) = writer.next(*delivered);
                        page.deliver([(&diff, exchange)], &mut cover);
                        diff.apply(&mut mirror);
                        prop_assert_eq!(page.bytes(), &mirror[..]);
                        None
                    }
                    _ => None,
                };
                page.ensure_twin();
                let twin = page.twin.as_ref().unwrap().as_ptr();
                prop_assert!(twin == page.data.as_ptr(), "the twin does not share the page image");
                if k == 0 && *origin == 0 {
                    prop_assert!(twin == zero.as_ptr(), "the first twin is not the zero image");
                }
                if let Some(image) = adopted {
                    prop_assert!(twin == image, "the twin is not the adopted image");
                }
                let start = mirror.clone();
                prop_assert_eq!(page.bytes(), &start[..]);
                for &(kind, offset, len, value) in stores {
                    let (offset, src) = match kind {
                        0 => (offset, stored(len.min(1024 - offset), value)),
                        1 => (offset, start[offset..(offset + len).min(1024)].to_vec()),
                        2 => (0, stored(1024, value)),
                        _ => (0, start.clone()),
                    };
                    page.write_bytes(offset, &src);
                    mirror[offset..offset + src.len()].copy_from_slice(&src);
                }
                prop_assert_eq!(page.bytes(), &mirror[..]);
                let want = Diff::create(PageId(0), &start, &mirror);
                prop_assert_eq!(&page.make_diff(PageId(0)).unwrap(), &want);
                prop_assert!(page.make_diff_into(PageId(0), &mut recycled, &mut changed));
                prop_assert_eq!(&recycled, &want);
                page.drop_twin();
                // A diff kept into the next interval keeps a dense one's
                // image shared at the next twin; an emptied one leaves the
                // page its image alone.
                if !*hold {
                    recycled.clear();
                }
            }
        }

        /// A round of 1–8 diffs delivered newest first, onto a page with or
        /// without an earlier round already landed, shows exactly what
        /// applying every diff, oldest first, shows: bytes, pending count,
        /// read credit and whole-page adoption.  The page already holds an
        /// earlier delivery, so painting replaces attributions as well as
        /// adding them, and it keeps no member of either round.
        #[test]
        fn a_delivered_round_lands_as_ordered_application(
            earlier in member(),
            landed in member(),
            round in prop::collection::vec(member(), 1..9),
        ) {
            for land in [false, true] {
                let mut writer = Writer::new();
                let earlier = writer.next(earlier);
                let landed = land.then(|| writer.next(landed));
                let round: Vec<_> = round.iter().map(|&m| writer.next(m)).collect();
                let all: Vec<_> = [&earlier].into_iter().chain(&landed).chain(&round).collect();

                let mut reference = LocalPage::new_zeroed(1024);
                for (d, e) in &all {
                    reference.apply_diff(d, *e);
                }
                let mut page = LocalPage::new_zeroed(1024);
                page.apply_diff(&earlier.0, earlier.1);
                // Dirty scratch: its contents must not matter.
                let mut cover = vec![!0u64; 2];
                if let Some((d, e)) = &landed {
                    page.deliver([(d, *e)], &mut cover);
                }
                page.deliver(round.iter().rev().map(|(d, e)| (d, *e)), &mut cover);
                prop_assert!(all.iter().all(|(d, _)| Arc::strong_count(d) == 1), "the page keeps a member");
                let (got, want) = (observe(&mut page, &all), observe(&mut reference, &all));
                prop_assert!(got == want, "landed {land}: {got:?} != {want:?}");
            }
        }

        /// One writer's chain of 1–8 diffs, delivered as a round under one
        /// exchange id, lands exactly as the chain's merge applied under
        /// that id: bytes, pending count and read credit.  Members that
        /// contain their predecessors (shape 2), only partly overlap them
        /// (shapes 0, 1, 4) or rewrite the whole page, shared or packed
        /// (shape 3), mix freely; each round lands with and without an
        /// earlier round already landed.
        #[test]
        fn a_single_writer_round_lands_as_its_merged_chain(
            earlier in member(),
            landed in member(),
            chain in prop::collection::vec(member(), 1..9),
            exchange in 1u32..10,
        ) {
            for land in [false, true] {
                let mut writer = Writer::new();
                let earlier = writer.next(earlier);
                let landed = land.then(|| writer.next(landed));
                let chain: Vec<_> = chain.iter().map(|&m| writer.next(m).0).collect();
                let refs: Vec<&Diff> = chain.iter().map(|d| &**d).collect();

                let mut reference = LocalPage::new_zeroed(1024);
                for (d, e) in [&earlier].into_iter().chain(&landed) {
                    reference.apply_diff(d, *e);
                }
                reference.apply_diff(&Diff::merge(PageId(0), &refs), exchange);
                let mut page = LocalPage::new_zeroed(1024);
                page.apply_diff(&earlier.0, earlier.1);
                let mut cover = Vec::new();
                if let Some((d, e)) = &landed {
                    page.deliver([(d, *e)], &mut cover);
                }
                page.deliver(chain.iter().rev().map(|d| (d, exchange)), &mut cover);
                // No image is offered for the adoption check: the packed
                // merge adopts none.
                let (got, want) = (observe(&mut page, &[]), observe(&mut reference, &[]));
                prop_assert!(got == want, "landed {land}: {got:?} != {want:?}");
            }
        }

        /// A diff rebuilt in place over a recycled one of any earlier shape
        /// — packed or borrowing the page image, any span count, emptied
        /// first or not — encodes what a fresh `make_diff` and the twin
        /// compare encode.  An emptied diff holds no page image, so it pins
        /// none.
        #[test]
        fn a_diff_rebuilt_in_place_equals_a_fresh_one(
            earlier in member(),
            later in member(),
            emptied in any::<bool>(),
        ) {
            let mut writer = Writer::new();
            let mut recycled = writer.next(earlier).0;
            if emptied {
                Arc::get_mut(&mut recycled).unwrap().clear();
                prop_assert!(recycled.is_empty());
                // The only image the diff could hold is the writer's.
                prop_assert!(!writer.page.data.is_shared());
            }
            let twin = writer.write(later.0, later.1);
            let recycled = Arc::get_mut(&mut recycled).unwrap();
            prop_assert!(writer.page.make_diff_into(PageId(1), recycled, &mut Vec::new()));
            prop_assert_eq!(&*recycled, &writer.page.make_diff(PageId(1)).unwrap());
            prop_assert_eq!(&*recycled, &Diff::create(PageId(1), &twin, writer.page.bytes()));
        }

        /// A writer, a reference and two readers over one zero image, so
        /// that every image they build comes from one pool and every last
        /// drop feeds it, as in a run: published diffs retire in random
        /// order, one reader adopts whole-page images by `apply_diff` now
        /// and then, another lands rounds by `deliver`.  Every diff encodes
        /// what `Diff::create` encodes, both readers land what ordered
        /// `apply_diff` lands, and an image a reader adopted keeps its bytes
        /// across the writer's next whole-page store: the pool never hands
        /// out an image anybody still sees.  No reader keeps a diff, so every
        /// retired diff is pooled.
        #[test]
        fn pooled_images_are_never_ones_anybody_still_sees(
            seed in any::<u64>(),
            intervals in prop::collection::vec((0u8..4, 0usize..256, 1usize..64), 2..24),
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let zero = Image::zeroed(1024);
            let page = || LocalPage::showing(zero.clone());
            let (mut writer, mut reference) = (page(), page());
            let (mut adopter, mut deliverer) = (page(), page());
            // Published diffs the log still holds, the emptied ones it
            // pooled, and what each reader has not received yet.
            let (mut log, mut pool) = (Vec::<Arc<Diff>>::new(), Vec::<Arc<Diff>>::new());
            let (mut unadopted, mut undelivered) = (Vec::new(), Vec::new());
            let (mut cover, mut changed) = (Vec::new(), Vec::new());
            for (k, &(shape, word, words)) in intervals.iter().enumerate() {
                let shown = adopter.bytes().to_vec();
                let twin = writer.bytes().to_vec();
                writer.ensure_twin();
                let (lo, hi) = match shape {
                    // Whole-page stores, the dense diffs that borrow the image.
                    0 | 1 => (0, 1024),
                    2 => (word * WORD_SIZE, (word + words) * WORD_SIZE),
                    // A store of the value already there: an empty diff.
                    _ => (word * WORD_SIZE, word * WORD_SIZE + WORD_SIZE),
                };
                let hi = hi.min(1024);
                let src: Vec<u8> = if shape == 3 {
                    twin[lo..hi].to_vec()
                } else {
                    (lo..hi).map(|_| next() as u8).collect()
                };
                writer.write_bytes(lo, &src);
                prop_assert!(adopter.bytes() == &shown[..], "an adopted image changed under the writer's store");

                let mut diff = pool.pop().unwrap_or_else(|| Arc::new(Diff::empty(PageId(0))));
                prop_assert!(writer.make_diff_into(PageId(0), Arc::get_mut(&mut diff).unwrap(), &mut changed));
                writer.drop_twin();
                prop_assert_eq!(&*diff, &Diff::create(PageId(0), &twin, writer.bytes()));
                if diff.is_empty() {
                    pool.push(diff);
                    continue;
                }
                let exchange = k as u32;
                reference.apply_diff(&diff, exchange);
                unadopted.push((Arc::clone(&diff), exchange));
                undelivered.push((Arc::clone(&diff), exchange));
                log.push(diff);
                if next() % 2 == 0 {
                    for (d, e) in unadopted.drain(..) {
                        adopter.apply_diff(&d, e);
                    }
                }
                if next() % 2 == 0 {
                    deliverer.deliver(undelivered.iter().rev().map(|(d, e)| (d, *e)), &mut cover);
                    undelivered.clear();
                }
                // Retire a random selection in random order: a diff no
                // reader still has to receive is pooled, emptied.
                while !log.is_empty() && next() % 3 != 0 {
                    let mut diff = log.swap_remove(next() % log.len());
                    let pending = unadopted.iter().chain(&undelivered).any(|(d, _)| Arc::ptr_eq(d, &diff));
                    match Arc::get_mut(&mut diff) {
                        Some(unshared) => {
                            unshared.clear();
                            pool.push(diff);
                        }
                        None => prop_assert!(pending, "a reader kept a diff it received"),
                    }
                }
            }
            for (d, e) in unadopted.drain(..) {
                adopter.apply_diff(&d, e);
            }
            deliverer.deliver(undelivered.iter().rev().map(|(d, e)| (d, *e)), &mut cover);
            let want = observe(&mut reference, &[]);
            let (adopted, delivered) = (observe(&mut adopter, &[]), observe(&mut deliverer, &[]));
            prop_assert!(adopted == want, "{adopted:?} != {want:?}");
            prop_assert!(delivered == want, "{delivered:?} != {want:?}");
        }

        /// A store's page, which starts on the store's shared zero image,
        /// and a private zero-filled page driven through the same stores,
        /// twins, closes, applications, deliveries and reads show the same
        /// bytes, encode the same diffs and credit the same useful words.
        /// Afterwards the zero image is still all zeros, a page that was
        /// written or delivered to no longer shows it, and a page only read
        /// still does.
        #[test]
        fn a_page_over_the_shared_zero_image_acts_as_a_private_one(
            steps in prop::collection::vec(step(), 1..40),
        ) {
            let zero = Image::zeroed(1024);
            let mut store = PageStore::with_zero_image(PageLayout::new(1024, 2), zero.clone());
            let mut private = LocalPage::new_zeroed(1024);
            let mut writer = Writer::new();
            let mut covers = [Vec::new(), Vec::new()];
            let mut held: [Option<Diff>; 2] = [None, None];
            // Every diff delivered, held so that none is emptied.
            let mut delivered: Vec<(Arc<Diff>, u32)> = Vec::new();
            let mut written = false;
            let shared = store.page_mut(PageId(0));
            prop_assert!(shared.data.as_ptr() == zero.as_ptr());
            let mut pages = [shared, &mut private];
            for step in steps.iter().chain([&Step::Close(false)]) {
                if matches!(step, Step::Close(_) | Step::Apply(_) | Step::Deliver(_)) && pages[0].twinned() {
                    let keep = matches!(step, Step::Close(true));
                    let mut diffs = [Diff::empty(PageId(0)), Diff::empty(PageId(0))];
                    for ((page, diff), held) in pages.iter_mut().zip(&mut diffs).zip(&mut held) {
                        prop_assert!(page.make_diff_into(PageId(0), diff, &mut Vec::new()));
                        page.drop_twin();
                        *held = None;
                    }
                    prop_assert_eq!(&diffs[0], &diffs[1]);
                    if keep {
                        held = diffs.map(Some);
                    }
                }
                match *step {
                    Step::Store(offset, len, value) => {
                        let src = stored(len.min(1024 - offset), value);
                        pages.iter_mut().for_each(|page| page.write_bytes(offset, &src));
                        written = true;
                    }
                    Step::StoreWhole(value) => {
                        let src = stored(1024, value);
                        pages.iter_mut().for_each(|page| page.write_bytes(0, &src));
                        written = true;
                    }
                    Step::Twin => {
                        for page in pages.iter_mut() {
                            page.ensure_twin();
                        }
                    }
                    Step::Close(_) => {}
                    Step::Apply(m) => {
                        let (diff, exchange) = writer.next(m);
                        pages.iter_mut().for_each(|page| page.apply_diff(&diff, exchange));
                        delivered.push((diff, exchange));
                        written = true;
                    }
                    Step::Deliver(ref round) => {
                        let round: Vec<_> = round.iter().map(|&m| writer.next(m)).collect();
                        for (page, cover) in pages.iter_mut().zip(&mut covers) {
                            page.deliver(round.iter().rev().map(|(d, e)| (d, *e)), cover);
                        }
                        delivered.extend(round);
                        written = true;
                    }
                    Step::Read(offset, len) => {
                        let len = len.min(1024 - offset);
                        let mut seen = [(vec![0u8; len], Vec::new()), (vec![0u8; len], Vec::new())];
                        for (page, (bytes, credits)) in pages.iter_mut().zip(&mut seen) {
                            page.read_bytes(offset, bytes, |e, words| credits.push((e, words)));
                        }
                        prop_assert_eq!(&seen[0], &seen[1]);
                    }
                }
                prop_assert_eq!(pages[0].pending_attributions(), pages[1].pending_attributions());
            }
            let all: Vec<_> = delivered.iter().collect();
            let [shared, private] = pages;
            let (got, want) = (observe(shared, &all), observe(private, &all));
            prop_assert!(got == want, "{got:?} != {want:?}");

            prop_assert!(zero.iter().all(|&b| b == 0), "the zero image was written");
            let shows_zero = |store: &PageStore, page| store.page(page).unwrap().data.as_ptr() == zero.as_ptr();
            prop_assert!(!(written && shows_zero(&store, PageId(0))), "a written page shows the zero image");
            store.read(GlobalAddr(1024), &mut [0u8; 1024], |_, _| {});
            prop_assert!(shows_zero(&store, PageId(1)), "a read detached the zero image");
        }
    }
}
