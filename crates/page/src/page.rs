//! A processor's private copy of the shared address space.
//!
//! Every DSM processor holds its own [`PageStore`]: the local copies of the
//! shared pages, the twins used by the multiple-writer protocol, and the
//! *delivery attribution* used by the paper's instrumentation to decide,
//! for every word a diff delivered, whether it was eventually read (useful
//! data) or never read before being overwritten or the end of the run
//! (useless data).  A page keeps that attribution as one word mask per
//! exchange that still holds delivered words, so every delivery, read and
//! write settles it in a few block-wise mask operations.

use crate::diff::{Diff, BLOCKS};
use crate::image::Image;
use crate::layout::{GlobalAddr, PageId, PageLayout, PAGE_SIZE, WORD_SIZE};
use std::sync::Arc;

/// Sentinel attribution meaning "this word was not delivered by any exchange
/// (or its delivery has already been classified)".
pub const NO_EXCHANGE: u32 = u32::MAX;

/// Masks a page's first spill past its inline one makes room for, at
/// once: the benchmark's runs hold up to eight masks on a page (seven in
/// the eight-processor Ilink cells, one per other writer), and a `Vec`
/// growing from four would cost every page that reaches six a second
/// allocation.
const SPILL: usize = 7;

/// The words of a page that one exchange delivered and that have been
/// neither read nor overwritten since: bit `w % 64` of `bits[w / 64]` stands
/// for word `w`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Delivered {
    exchange: u32,
    bits: [u64; BLOCKS],
}

impl Delivered {
    /// No exchange and no word: the inline slot of a page that holds no
    /// mask.
    const NONE: Delivered = Delivered {
        exchange: NO_EXCHANGE,
        bits: [0; BLOCKS],
    };

    /// The words `bits` sets (a diff's mask), delivered by `exchange`.
    fn of(exchange: u32, bits: &[u64]) -> Delivered {
        let mut mask = Delivered {
            exchange,
            bits: [0; BLOCKS],
        };
        mask.bits.iter_mut().zip(bits).for_each(|(m, &b)| *m = b);
        mask
    }

    /// Every word of the page, delivered by `exchange`.
    fn whole(exchange: u32) -> Delivered {
        Delivered {
            exchange,
            bits: [!0; BLOCKS],
        }
    }

    fn is_empty(&self) -> bool {
        self.bits.iter().fold(0, |any, &b| any | b) == 0
    }

    fn words(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }
}

/// One hardware page as held by one processor: current contents, the
/// interval's twin, and delivery attribution.
///
/// The twin of the multiple-writer protocol is a copy-on-write snapshot: at
/// the first write of an interval, [`ensure_twin`](Self::ensure_twin) shares
/// the page image instead of copying it, and the first store after it pays
/// the copy as an ordinary detach — or, when it rewrites the whole page,
/// writes into a pooled image as it is and never copies at all.
/// The write path therefore does not know whether a twin is live.  At
/// interval close, [`make_diff_into`](Self::make_diff_into) compares page
/// and twin once and encodes the words that differ: the TreadMarks twin and
/// compare, bit-identical to [`Diff::create`] against the interval-start
/// bytes.
///
/// The page image itself is a shared [`Image`] so a dense diff published at
/// interval close can borrow it outright (no payload copy; see
/// [`Diff::rebuild_from_compare`]).  Any later mutation detaches it first,
/// as the twin's does.  A [`PageStore`]'s page starts on the store's all-zero
/// image, shared, so the same rules give it its first image of its own: a
/// read reads zeros, a delivery adopts the diff's image where the page
/// already agrees with it, and the first store detaches.  Every image a
/// page builds — a detach or a whole-page store into a shared image — comes
/// from the pool of the image it replaces, and goes back there on its last
/// drop.
#[derive(Debug)]
pub struct LocalPage {
    data: Image,
    /// The page image as it was at [`ensure_twin`](Self::ensure_twin), or
    /// `None`: a twin is live (the page is in the current interval's write
    /// set) exactly when this is not `None`.
    twin: Option<Image>,
    /// The delivery attribution: one mask per exchange that delivered words
    /// not yet read or overwritten here.  The masks are pairwise disjoint,
    /// none is empty, no two share an exchange and none is
    /// [`NO_EXCHANGE`]'s.  The first is held inline — a page that holds
    /// none has [`Delivered::NONE`] here — and the others in `more`, which
    /// keeps its capacity.
    first: Delivered,
    more: Vec<Delivered>,
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
    /// Create a zero-filled page of `page_size` bytes, which must be
    /// [`PAGE_SIZE`] (the parameter stays for the repository benchmark's
    /// probes, which pass it), over a zero image of its own, with a pool of
    /// its own.
    ///
    /// # Panics
    /// Panics if `page_size` is not [`PAGE_SIZE`].
    pub fn new_zeroed(page_size: usize) -> Self {
        crate::layout::check_page_size(page_size);
        Self::showing(Image::zeroed())
    }

    /// A page whose contents are `image`, which it may share: a
    /// [`PageStore`]'s pages start on the store's one zero image, and the
    /// copy-on-write rules give a page its own image when it first differs.
    fn showing(image: Image) -> Self {
        LocalPage {
            data: image,
            twin: None,
            first: Delivered::NONE,
            more: Vec::new(),
        }
    }

    /// Whether a twin is live.
    #[inline]
    fn twinned(&self) -> bool {
        self.twin.is_some()
    }

    /// The whole page image for a caller that overwrites every byte of it.
    /// When the current image is still shared (with a twin, a published
    /// diff or a reader), the page takes a pooled image as it is instead —
    /// the detach copy a partial write would pay never happens.
    fn overwritten(&mut self) -> &mut [u8] {
        if self.data.is_shared() {
            self.data = self.data.blank();
        }
        self.data.written()
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
        self.make_diff_into(page, &mut diff).then_some(diff)
    }

    /// [`make_diff`](Self::make_diff) rebuilt inside `diff`, whatever it
    /// held, keeping its buffers (see [`Diff::rebuild_from_compare`]): the
    /// interval close rebuilds retired diffs through here, and the compare
    /// writes straight into the diff's changed-word mask.  Returns `false`,
    /// leaving `diff` alone, if the page has no twin.
    pub fn make_diff_into(&self, page: PageId, diff: &mut Diff) -> bool {
        let Some(twin) = &self.twin else {
            return false;
        };
        diff.rebuild_from_compare(page, &self.data, twin);
        true
    }

    /// Retire the twin (the interval's modifications have been encoded; the
    /// twin is dead weight from here on — under lazy diff timing the stored
    /// encoding, not the twin, is what later requests serve from).  The
    /// pre-interval image goes back to its pool if the twin held it last.
    pub fn drop_twin(&mut self) {
        self.twin = None;
    }

    /// Write `src` at byte `offset` (see
    /// [`write_in_place`](Self::write_in_place)).
    pub fn write_bytes(&mut self, offset: usize, src: &[u8]) {
        copy_bytes(self.write_in_place(offset, src.len()), src);
    }

    /// The `len` bytes at byte `offset`, for a store that overwrites every
    /// one of them.  Any delivered-but-unread words they cover lose their
    /// attribution: the paper counts them as useless data ("overwritten
    /// before being read").  The image is detached first if anything else
    /// holds it, except for a whole-page store, which gets a pooled image
    /// as it is.
    #[inline]
    pub fn write_in_place(&mut self, offset: usize, len: usize) -> &mut [u8] {
        let end = offset + len;
        assert!(end <= PAGE_SIZE, "write outside page bounds");
        if len == 0 {
            return &mut [];
        }
        self.take_words(offset / WORD_SIZE, (end - 1) / WORD_SIZE, |_, _| {});
        if len == PAGE_SIZE {
            self.overwritten()
        } else {
            &mut self.data.detached()[offset..end]
        }
    }

    /// Read `dst.len()` bytes at byte `offset` into `dst` (see
    /// [`read_in_place`](Self::read_in_place)).
    pub fn read_bytes(&mut self, offset: usize, dst: &mut [u8], on_useful: impl FnMut(u32, u32)) {
        copy_bytes(dst, self.read_in_place(offset, dst.len(), on_useful));
    }

    /// The `len` bytes at byte `offset`, for a load.  For every covered
    /// word that still carries a delivery attribution, the word counts as
    /// read-before-overwritten (⇒ useful data) and the attribution is
    /// cleared so the word is only credited once.  `on_useful(exchange,
    /// words)` is invoked once per exchange with words in the range, in no
    /// particular order: per-exchange word totals are what a per-word
    /// callback would sum.
    pub fn read_in_place(
        &mut self,
        offset: usize,
        len: usize,
        on_useful: impl FnMut(u32, u32),
    ) -> &[u8] {
        let end = offset + len;
        assert!(end <= PAGE_SIZE, "read outside page bounds");
        if len > 0 {
            self.take_words(offset / WORD_SIZE, (end - 1) / WORD_SIZE, on_useful);
        }
        &self.data[offset..end]
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
        assert_eq!(src.len(), PAGE_SIZE, "src must be one page");
        debug_assert!(!self.twinned(), "delivery onto a twinned page");
        self.overwritten().copy_from_slice(src);
        self.attribute_page(exchange);
    }

    /// Apply a diff received from another processor — how the newest
    /// member of a [`deliver`](Self::deliver)ed round lands.  Every word the
    /// diff overwrites is attributed to `exchange`, or left unattributed for
    /// [`NO_EXCHANGE`] (a delivery that crossed no wire).  A diff that
    /// borrows its writer's image lands by adopting that image by reference
    /// when the page already holds its bytes on every word the diff does
    /// not write — a whole-page diff always does — and the next local
    /// write detaches as usual.  Otherwise the diff's runs overwrite the
    /// page.
    pub fn apply_diff(&mut self, diff: &Diff, exchange: u32) {
        debug_assert!(!self.twinned(), "delivery onto a twinned page");
        match diff.image_over(&self.data) {
            Some(image) => self.data = image.clone(),
            None => diff.apply(self.data.detached()),
        }
        self.attribute(exchange, diff.mask());
    }

    /// Every mask the page holds.
    fn masks(&self) -> impl Iterator<Item = &Delivered> {
        let first = (self.first.exchange != NO_EXCHANGE).then_some(&self.first);
        first.into_iter().chain(&self.more)
    }

    /// [`masks`](Self::masks), mutably.
    fn masks_mut(&mut self) -> impl Iterator<Item = &mut Delivered> {
        let first = (self.first.exchange != NO_EXCHANGE).then_some(&mut self.first);
        first.into_iter().chain(&mut self.more)
    }

    /// Attribute every word of the page to `exchange` ([`NO_EXCHANGE`]:
    /// to none): one whole mask in place of any the page held.
    fn attribute_page(&mut self, exchange: u32) {
        self.more.clear();
        self.first = if exchange == NO_EXCHANGE {
            Delivered::NONE
        } else {
            Delivered::whole(exchange)
        };
        self.check_masks();
    }

    /// Attribute the words `bits` sets (a diff's mask) to `exchange`, or
    /// clear them for [`NO_EXCHANGE`]: they leave every other exchange's
    /// mask and join the exchange's own.
    fn attribute(&mut self, exchange: u32, bits: &[u64]) {
        let mut held = exchange == NO_EXCHANGE;
        let mut emptied = false;
        for mask in self.masks_mut() {
            let own = mask.exchange == exchange;
            for (m, &b) in mask.bits.iter_mut().zip(bits) {
                *m = if own { *m | b } else { *m & !b };
            }
            held |= own;
            emptied |= !own && mask.is_empty();
        }
        if !held {
            let mask = Delivered::of(exchange, bits);
            if self.first.exchange == NO_EXCHANGE {
                self.first = mask;
            } else {
                if self.more.capacity() == 0 {
                    self.more.reserve_exact(SPILL);
                }
                self.more.push(mask);
            }
            emptied |= mask.is_empty();
        }
        if emptied {
            self.drop_empty();
        }
        self.check_masks();
    }

    /// Take the words `first..=last` out of every mask, calling
    /// `on_taken(exchange, words)` for each mask that held some of them.
    fn take_words(&mut self, first: usize, last: usize, mut on_taken: impl FnMut(u32, u32)) {
        if self.first.exchange == NO_EXCHANGE {
            return;
        }
        let (lo, hi) = (first / 64, last / 64);
        let mut emptied = false;
        for mask in self.masks_mut() {
            let mut words = 0;
            for (b, m) in mask.bits[lo..=hi].iter_mut().enumerate() {
                let mut range = !0u64;
                if b == 0 {
                    range &= !0 << (first % 64);
                }
                if b == hi - lo {
                    range &= !0 >> (63 - last % 64);
                }
                words += (*m & range).count_ones();
                *m &= !range;
            }
            if words > 0 {
                on_taken(mask.exchange, words);
                emptied |= mask.is_empty();
            }
        }
        if emptied {
            self.drop_empty();
        }
        self.check_masks();
    }

    /// Drop the masks that emptied, refilling the inline slot from `more`
    /// if it was one of them.
    fn drop_empty(&mut self) {
        self.more.retain(|mask| !mask.is_empty());
        if self.first.is_empty() {
            self.first = self.more.pop().unwrap_or(Delivered::NONE);
        }
    }

    /// The masks' invariant (see the field), asserted after every change
    /// in builds with debug assertions; `first` is [`Delivered::NONE`]
    /// exactly when no mask is held.  It allocates nothing, so the
    /// steady-state allocation bounds hold in those builds too.
    fn check_masks(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        if self.first.exchange == NO_EXCHANGE {
            assert!(
                self.first == Delivered::NONE && self.more.is_empty(),
                "masks held past an empty inline slot: {:?}",
                (&self.first, &self.more)
            );
        }
        let mut union = [0u64; BLOCKS];
        for (k, mask) in self.masks().enumerate() {
            assert!(
                mask.exchange != NO_EXCHANGE && !mask.is_empty(),
                "a held mask is empty or attributes to no exchange: {mask:?}"
            );
            assert!(
                self.masks()
                    .skip(k + 1)
                    .all(|m| m.exchange != mask.exchange),
                "two masks of exchange {}",
                mask.exchange
            );
            for (u, &m) in union.iter_mut().zip(&mask.bits) {
                assert!(
                    *u & m == 0,
                    "masks overlap: {:?}",
                    (&self.first, &self.more)
                );
                *u |= m;
            }
        }
    }

    /// Deliver one round of this page's fetched diffs, given newest first
    /// (reverse happens-before order) with their exchange ids, and land it
    /// whole.  Every older member lands only on the words no newer member
    /// writes: a reverse painter over one word-cover bitset, which starts
    /// as the newest member's changed-word mask, so the memory traffic is
    /// the union of the payloads, not their sum, and a member wholly under
    /// newer ones costs one pass over its mask.  The newest then lands
    /// through [`apply_diff`](Self::apply_diff), adopting its image if the
    /// page agrees with it off its words — as in a single writer's round,
    /// whose older members paint only words the writer's image already
    /// holds.  Page bytes, attribution and adoption are exactly those of
    /// `apply_diff` of every member, oldest first.
    pub fn deliver<'a>(&mut self, newest_first: impl IntoIterator<Item = (&'a Arc<Diff>, u32)>) {
        debug_assert!(!self.twinned(), "delivery onto a twinned page");
        let mut round = newest_first.into_iter();
        let Some((newest, exchange)) = round.next() else {
            return;
        };
        // An empty newest member would leave an older member's image
        // visible, to be painted where `apply_diff` adopts it.
        debug_assert!(!newest.is_empty(), "a published diff writes a word");
        let mut older = round.peekable();
        if older.peek().is_some() {
            let mut cover = [0; BLOCKS];
            cover[..newest.mask().len()].copy_from_slice(newest.mask());
            let mut covered = newest.payload_words();
            for (diff, exchange) in older {
                if covered == PAGE_SIZE / WORD_SIZE {
                    break;
                }
                covered += self.paint_uncovered(diff, exchange, &mut cover);
            }
        }
        self.apply_diff(newest, exchange);
    }

    /// Land the words of `diff` that `cover` lacks — content and
    /// attribution, as [`apply_diff`](Self::apply_diff) would — adding them
    /// to it, and return how many there were.  A member wholly under the
    /// cover detaches no image and attributes nothing.
    fn paint_uncovered(&mut self, diff: &Diff, exchange: u32, cover: &mut [u64; BLOCKS]) -> usize {
        let mut fresh = [0u64; BLOCKS];
        for ((f, &m), &c) in fresh.iter_mut().zip(diff.mask()).zip(&*cover) {
            *f = m & !c;
        }
        if fresh.iter().fold(0, |any, &f| any | f) == 0 {
            return 0;
        }
        let image = self.data.detached();
        let painted = diff.for_each_uncovered(cover, &mut |lo, bytes| {
            copy_bytes(&mut image[lo..lo + bytes.len()], bytes)
        });
        self.attribute(exchange, &fresh);
        painted
    }

    /// Number of words currently carrying a delivery attribution (delivered
    /// but neither read nor overwritten yet).
    pub fn pending_attributions(&self) -> usize {
        self.masks().map(Delivered::words).sum()
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
        Self::with_zero_image(layout, Image::zeroed())
    }

    /// Create an empty store whose pages start on `zero`, an all-zero image
    /// that other stores may share: a run builds one for all its
    /// processors, and its pool is the run's.
    pub fn with_zero_image(layout: PageLayout, zero: Image) -> Self {
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
    #[inline]
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
    use std::collections::BTreeMap;

    /// Words in a page.
    const WORDS: usize = PAGE_SIZE / WORD_SIZE;

    fn layout() -> PageLayout {
        PageLayout::new(PAGE_SIZE, 8)
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
        store.write(GlobalAddr(4000), &data);
        let mut out = vec![0u8; 300];
        store.read(GlobalAddr(4000), &mut out, |_, _| {});
        assert_eq!(out, data);
        assert_eq!(store.resident_pages(), 2); // bytes 4000..4300 touch pages 0 and 1
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
        assert_eq!(diff.runs().collect::<Vec<_>>(), [(8, &[1, 2, 3, 4][..])]);
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
        let twin = vec![0u8; PAGE_SIZE];
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
        let twin = vec![0u8; PAGE_SIZE];
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
        assert_eq!(diff.runs().collect::<Vec<_>>(), [(12, &[1, 2, 3, 4][..])]);
    }

    #[test]
    fn twin_buffer_is_recycled_across_intervals() {
        let mut store = PageStore::new(layout());
        let p = store.page_mut(PageId(0));
        p.ensure_twin();
        p.write_bytes(0, &[1, 1, 1, 1]);
        let d1 = p.make_diff(PageId(0)).unwrap();
        assert_eq!(d1.runs().next().unwrap().0, 0);
        p.drop_twin();
        // The recycled buffer must be re-seeded from the *current* contents,
        // not carry stale bytes from the previous interval.
        assert!(p.ensure_twin());
        p.write_bytes(8, &[2, 2, 2, 2]);
        let d2 = p.make_diff(PageId(0)).unwrap();
        assert_eq!(d2.runs().collect::<Vec<_>>(), [(8, &[2u8, 2, 2, 2][..])]);
    }

    /// A dense diff whose payload *is* the writer's page image, the image
    /// bytes it was made from, and the writer page still sharing it.
    fn page_sharing_its_image_with_a_published_diff() -> (LocalPage, Diff, Vec<u8>) {
        let mut writer = LocalPage::new_zeroed(PAGE_SIZE);
        writer.ensure_twin();
        let image: Vec<u8> = (0..PAGE_SIZE).map(|i| i as u8 | 1).collect();
        writer.write_bytes(0, &image);
        let published = writer.make_diff(PageId(0)).unwrap();
        writer.drop_twin();
        assert!(published.image().is_some());
        assert!(writer.data.is_shared(), "diff borrows the image");
        (writer, published, image)
    }

    /// A sparse diff touching every other word of the page's first 64: 32
    /// one-word runs.
    fn every_other_word() -> Diff {
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        for w in (0..64).step_by(2) {
            cur[w * 4..w * 4 + 4].copy_from_slice(&[0xA0 | w as u8; 4]);
        }
        let diff = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(diff.runs().count(), 32);
        diff
    }

    #[test]
    fn a_twin_over_a_shared_image_and_over_an_owned_one_is_a_snapshot() {
        let (mut page, published, image) = page_sharing_its_image_with_a_published_diff();
        page.ensure_twin();
        let shared = published.image().unwrap().as_ptr();
        assert_eq!(page.twin.as_ref().unwrap().as_ptr(), shared);
        page.write_bytes(8, &[0; 8]);
        let over_shared = page.make_diff(PageId(0)).unwrap();
        page.drop_twin();
        // Dropping the twin let go of the snapshot: the published diff holds
        // the pre-interval image alone, so its last drop pools it.
        assert!(!published.image().unwrap().is_shared());
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
        let zero = Image::zeroed();
        let mut page = LocalPage::showing(zero.clone());
        page.write_bytes(0, &[1; 4]);
        let owned = page.data.as_ptr();
        let spare = zero.filled(&[0xEE; PAGE_SIZE]);
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
        page.write_bytes(0, &[4; PAGE_SIZE]);
        let twin = page.twin.as_ref().unwrap();
        assert_eq!((twin.as_ptr(), twin[8]), (spare_at, 2));
        assert_eq!((page.data.as_ptr(), zero.pooled()), (owned, 0));
        assert_eq!(
            page.make_diff(PageId(0)).unwrap().payload_bytes(),
            PAGE_SIZE as u64
        );
    }

    #[test]
    fn visible_apply_detaches_a_shared_image_once_and_leaves_the_diff_alone() {
        let (mut page, published, image) = page_sharing_its_image_with_a_published_diff();
        let sparse = every_other_word();
        let pooled = page.data.filled(&[0xEE; PAGE_SIZE]);
        let at = pooled.as_ptr();
        drop(pooled);
        let before = page.data.pooled();
        assert_eq!(page.paint_uncovered(&sparse, 3, &mut [0; BLOCKS]), 32);

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
    fn a_member_under_newer_ones_is_skipped_and_a_fresh_word_is_painted() {
        // A diff writing `value + w` into each byte of word `w` of `words`.
        let diff = |words: std::ops::Range<usize>, value: u8| {
            let mut cur = vec![0u8; PAGE_SIZE];
            for w in words {
                cur[w * WORD_SIZE..(w + 1) * WORD_SIZE].fill(value + w as u8);
            }
            Arc::new(Diff::create(PageId(0), &[0; PAGE_SIZE], &cur))
        };
        let (newest, under, one_fresh) = (diff(0..8, 30), diff(2..6, 20), diff(5..9, 10));
        let zero = Image::zeroed();

        // A covered older member attributes nothing: the round's only
        // attribution is the newest's, which crossed no wire.
        let mut page = LocalPage::showing(zero.clone());
        page.deliver([(&newest, NO_EXCHANGE), (&under, 4)]);
        assert_eq!(page.masks().count(), 0, "a covered member attributed");
        assert_eq!(
            page.bytes()[..32],
            (0..32).map(|b| 30 + b as u8 / 4).collect::<Vec<_>>()
        );

        // Painted step by step over the newest's cover: the covered member
        // leaves the image shared and holds no mask, and the one with a
        // fresh word paints and attributes exactly that word.
        let mut page = LocalPage::showing(zero.clone());
        let mut cover: [u64; BLOCKS] = newest.mask().try_into().unwrap();
        assert_eq!(page.paint_uncovered(&under, 4, &mut cover), 0);
        assert_eq!(
            page.data.as_ptr(),
            zero.as_ptr(),
            "a covered member detached"
        );
        assert!(page.masks().count() == 0 && cover == newest.mask());
        assert_eq!(page.paint_uncovered(&one_fresh, 5, &mut cover), 1);
        let mut want = [0u8; PAGE_SIZE];
        want[8 * WORD_SIZE..9 * WORD_SIZE].fill(18);
        assert_eq!(page.bytes(), &want[..]);
        let masks: Vec<_> = page.masks().copied().collect();
        assert_eq!(masks, [Delivered::of(5, &[1 << 8])]);
        assert_eq!(page.pending_attributions(), 1);
    }

    #[test]
    fn a_readers_last_drop_reaches_the_pool() {
        /// One interval of `writer` storing `value` over the whole page;
        /// its diff borrows the image.
        fn interval(writer: &mut LocalPage, value: u8) -> Diff {
            writer.ensure_twin();
            writer.write_bytes(0, &[value; PAGE_SIZE]);
            let diff = writer.make_diff(PageId(0)).unwrap();
            writer.drop_twin();
            diff
        }
        let zero = Image::zeroed();
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
        writer.write_bytes(0, &[3; PAGE_SIZE]);
        assert_eq!((writer.data.as_ptr(), zero.pooled()), (adopted, 0));
        assert_eq!(reader.bytes(), &[2; PAGE_SIZE][..]);
    }

    #[test]
    fn a_twins_image_goes_back_at_drop_twin() {
        let zero = Image::zeroed();
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
        (
            0u8..5,
            (0usize..WORDS, 1usize..480),
            0u32..10,
            any::<bool>(),
        )
    }

    /// One writer's successive intervals on a page.  Every word an
    /// interval marks gets a value no earlier interval wrote, so the diff's
    /// words are exactly the marked ones.
    struct Writer {
        page: LocalPage,
        stamp: u32,
        written: [bool; WORDS],
    }

    impl Writer {
        fn new() -> Self {
            Writer {
                page: LocalPage::new_zeroed(PAGE_SIZE),
                stamp: 0,
                written: [false; WORDS],
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
            let run = |marks: &mut [bool; WORDS], lo: usize, n: usize, on: bool| {
                marks[lo.min(WORDS)..(lo + n).min(WORDS)].fill(on)
            };
            let mut marks = [false; WORDS];
            match shape {
                0 => run(&mut marks, start, len, true),
                1 => {
                    run(&mut marks, start, len, true);
                    run(&mut marks, (start + len + 3) % WORDS, len / 2 + 1, true);
                }
                2 => {
                    marks = self.written;
                    run(&mut marks, start, len, true);
                }
                3 => marks = [true; WORDS],
                _ => {
                    marks = [true; WORDS];
                    run(&mut marks, start, len / 4 + 1, false);
                }
            }
            self.stamp += 1;
            let twin = self.page.bytes().to_vec();
            self.page.ensure_twin();
            for w in (0..WORDS).filter(|&w| marks[w]) {
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
            (0usize..PAGE_SIZE, 1usize..PAGE_SIZE),
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

    type Observed = (bool, usize, Vec<u8>, BTreeMap<u32, u32>);

    /// What a page shows after a delivery: whether it adopted one of
    /// `diffs`' whole-page images by reference, its pending count, its bytes
    /// and the useful words a whole-page read credits to each exchange.
    /// Per-exchange totals, not the list of credits: a read credits each
    /// mask once, in the order the page holds them, and only the totals
    /// reach a run's statistics.
    fn observe(page: &mut LocalPage, diffs: &[&(Arc<Diff>, u32)]) -> Observed {
        let adopted = diffs.iter().any(|(d, _)| {
            d.image()
                .is_some_and(|image| image.as_ptr() == page.data.as_ptr())
        });
        let (pending, bytes) = (page.pending_attributions(), page.bytes().to_vec());
        let mut credited = BTreeMap::new();
        page.read_bytes(0, &mut [0u8; PAGE_SIZE], |e, words| {
            *credited.entry(e).or_default() += words
        });
        (adopted, pending, bytes, credited)
    }

    #[test]
    fn four_and_eight_byte_accesses_match_a_flat_model_at_any_offset() {
        let mut page = LocalPage::new_zeroed(PAGE_SIZE);
        let mut model = vec![0u8; PAGE_SIZE];
        for (i, off) in [0usize, 1, 3, 4, 100, 4087, 4088, 4092]
            .into_iter()
            .enumerate()
        {
            for len in [4usize, 8] {
                if off + len > PAGE_SIZE {
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
        let twin = vec![0u8; PAGE_SIZE];
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
        p.load_page(&[7u8; PAGE_SIZE], 9);
        assert_eq!(p.pending_attributions(), WORDS);
        p.load_page(&[7u8; PAGE_SIZE], NO_EXCHANGE);
        assert_eq!(p.pending_attributions(), 0);
    }

    /// The words a generated diff writes: one run (shape 0) of `len` words
    /// from `start`, every `stride`th word from `start`, `len` of them
    /// (shape 1), the whole page (shape 2), the whole page but a hole of up
    /// to eight words at `start` (shape 3), or a prefix of at least half the
    /// page that ends `len` words early (shape 4).  Shapes 2–4 are dense, so
    /// a close's diff of them borrows the writer's image, and shape 4's mask
    /// stops short of the page's last block.
    type Words = (u8, usize, usize, usize);

    fn words() -> impl Strategy<Value = Words> {
        (0u8..5, 0usize..1024, 1usize..300, 1usize..9)
    }

    /// The words `shape` marks (see [`Words`]).
    fn marked((shape, start, len, stride): Words) -> Vec<bool> {
        let start = start % WORDS;
        let mut marks = vec![false; WORDS];
        match shape {
            0 => marks[start..(start + len).min(WORDS)].fill(true),
            1 => (start..WORDS)
                .step_by(stride)
                .take(len)
                .for_each(|w| marks[w] = true),
            2 => marks.fill(true),
            3 => {
                marks.fill(true);
                marks[start..(start + len % 8 + 1).min(WORDS)].fill(false);
            }
            _ => marks[..(WORDS - len).max(WORDS / 2)].fill(true),
        }
        marks
    }

    /// The diff of one interval of `writer` that writes exactly the words
    /// `marks` sets, word `w` to `stamp << 16 | w` — a value it never held
    /// if every interval has a stamp of its own.
    fn interval(writer: &mut LocalPage, marks: &[bool], stamp: u32) -> Arc<Diff> {
        writer.ensure_twin();
        for w in (0..marks.len()).filter(|&w| marks[w]) {
            let value = stamp << 16 | w as u32;
            writer.write_bytes(w * WORD_SIZE, &value.to_le_bytes());
        }
        let diff = writer.make_diff(PageId(0)).unwrap();
        writer.drop_twin();
        Arc::new(diff)
    }

    /// An exchange: [`NO_EXCHANGE`] or one of three ids.
    fn exchange() -> impl Strategy<Value = u32> {
        (0u32..4).prop_map(|e| if e == 0 { NO_EXCHANGE } else { e })
    }

    /// One step of `attribution_matches_a_per_word_model`.
    #[derive(Debug, Clone)]
    enum Classify {
        Apply(Words, u32),
        /// A round, oldest member first.
        Deliver(Vec<(Words, u32)>),
        Load(u32),
        /// `read_bytes` of (up to) `len` bytes at byte `offset`.
        Read(usize, usize),
        Write(usize, usize),
    }

    fn classify() -> impl Strategy<Value = Classify> {
        let fields = (
            (words(), exchange()),
            prop::collection::vec((words(), exchange()), 1..5),
            (0usize..4096, 1usize..600),
        );
        (0u8..6, fields).prop_map(|(kind, (member, round, (offset, len)))| match kind {
            0 => Classify::Apply(member.0, member.1),
            1 => Classify::Deliver(round),
            2 => Classify::Load(member.1),
            3 => Classify::Write(offset, len),
            _ => Classify::Read(offset, len),
        })
    }

    /// The paper's classification word by word: the exchange that last
    /// delivered each word not read or overwritten since, and the words
    /// each exchange has had read.
    struct PerWord {
        attr: Vec<u32>,
        credited: BTreeMap<u32, u64>,
    }

    impl PerWord {
        fn deliver(&mut self, words: &[bool], exchange: u32) {
            for (a, _) in self.attr.iter_mut().zip(words).filter(|(_, &w)| w) {
                *a = exchange;
            }
        }

        /// Take the words `first..=last`, crediting them if `read`.
        fn take(&mut self, first: usize, last: usize, read: bool) {
            for a in &mut self.attr[first..=last] {
                if *a != NO_EXCHANGE && read {
                    *self.credited.entry(*a).or_default() += 1;
                }
                *a = NO_EXCHANGE;
            }
        }

        /// The words each exchange holds, as masks.
        fn masks(&self) -> BTreeMap<u32, [u64; BLOCKS]> {
            let mut masks = BTreeMap::new();
            for (w, &a) in self.attr.iter().enumerate() {
                if a != NO_EXCHANGE {
                    masks.entry(a).or_insert([0u64; BLOCKS])[w / 64] |= 1 << (w % 64);
                }
            }
            masks
        }

        /// Whether `page`, whose reads credited `credited`, classifies as
        /// this model does: the same credit, pending count and one mask per
        /// exchange with words, setting exactly those words.
        fn check(&self, page: &LocalPage, credited: &BTreeMap<u32, u64>) -> Result<(), String> {
            if *credited != self.credited {
                return Err(format!(
                    "credited {credited:?}, per word {:?}",
                    self.credited
                ));
            }
            let pending = self.attr.iter().filter(|&&a| a != NO_EXCHANGE).count();
            if page.pending_attributions() != pending {
                return Err(format!(
                    "{} pending, per word {pending}",
                    page.pending_attributions()
                ));
            }
            let mut masks = BTreeMap::new();
            for mask in page.masks() {
                if masks.insert(mask.exchange, mask.bits).is_some() {
                    return Err(format!("two masks of exchange {}", mask.exchange));
                }
            }
            let want = self.masks();
            if masks != want {
                return Err(format!("masks {masks:?}, per word {want:?}"));
            }
            Ok(())
        }
    }

    /// One step of `an_adopted_image_lands_what_a_copy_apply_lands`: a
    /// round of one or more diffs, oldest first, each the next interval of
    /// writer 0 or 1 with its exchange; or a local store or load of (up to)
    /// `len` bytes at byte `offset`.
    #[derive(Debug, Clone)]
    enum Land {
        Round(Vec<(usize, Words, u32)>),
        Write(usize, usize),
        Read(usize, usize),
    }

    fn land() -> impl Strategy<Value = Land> {
        let fields = (
            prop::collection::vec((0usize..2, words(), exchange()), 1..4),
            (0usize..4096, 1usize..600),
        );
        (0u8..4, fields).prop_map(|(kind, (round, (offset, len)))| match kind {
            0 | 1 => Land::Round(round),
            2 => Land::Write(offset, len),
            _ => Land::Read(offset, len),
        })
    }

    /// Whether `page` shows `diff`'s borrowed image itself.
    fn shows(page: &LocalPage, diff: &Diff) -> bool {
        diff.image()
            .is_some_and(|image| image.as_ptr() == page.data.as_ptr())
    }

    #[test]
    fn a_page_adopts_an_image_exactly_where_it_already_agrees() {
        let zero = Image::zeroed();
        let page = || LocalPage::showing(zero.clone());
        let (mut reader, mut a, mut b) = (page(), page(), page());
        let all_but = |hole: std::ops::Range<usize>| {
            let mut marks = [true; WORDS];
            marks[hole].fill(false);
            marks
        };
        // A first touch over the zero image adopts a near-whole diff whose
        // writer never wrote the hole: zeros agree with zeros.
        let first = interval(&mut a, &all_but(10..12), 1);
        reader.apply_diff(&first, 1);
        assert!(shows(&reader, &first), "a first touch copied");
        assert_eq!(reader.pending_attributions(), WORDS - 2);

        // A single-writer round adopts: its older members paint only words
        // the newest image holds too.
        let older = interval(&mut a, &all_but(0..90), 2);
        let newest = interval(&mut a, &all_but(90..100), 3);
        reader.deliver([(&newest, 3), (&older, 2)]);
        assert!(shows(&reader, &newest), "a single writer's round copied");
        assert_eq!(reader.bytes(), a.bytes());

        // A concurrent writer's words are not in `a`'s image: a round with
        // one of them under `a`'s newest falls back to copying.
        let other = interval(&mut b, &all_but(4..WORDS), 4);
        let next = interval(&mut a, &all_but(0..8), 5);
        reader.deliver([(&next, 5), (&other, 4)]);
        assert!(!shows(&reader, &next), "a concurrent round adopted");
        let mut want = a.bytes().to_vec();
        want[..4 * WORD_SIZE].copy_from_slice(&b.bytes()[..4 * WORD_SIZE]);
        assert_eq!(reader.bytes(), &want[..]);

        // A mask that stops short of the page's last block still has every
        // word past it compared: a reader whose last word differs copies.
        let (mut short, mut last) = (page(), page());
        let mut prefix = [false; WORDS];
        prefix[..600].fill(true);
        let trimmed = interval(&mut short, &prefix, 6);
        assert!(trimmed.image().is_some() && trimmed.mask().len() < BLOCKS);
        last.write_bytes(PAGE_SIZE - 4, &[1; 4]);
        last.apply_diff(&trimmed, 6);
        assert!(
            !shows(&last, &trimmed),
            "a word past a trimmed mask went unchecked"
        );
        assert_eq!(last.bytes()[PAGE_SIZE - 4..], [1; 4]);

        // A local store after an adoption detaches the reader; the diff and
        // its writer keep their bytes.
        reader.apply_diff(&interval(&mut a, &all_but(0..0), 7), 7);
        let adopted = a.bytes().to_vec();
        reader.write_bytes(40, &[9; 4]);
        assert_eq!(
            (a.bytes(), &reader.bytes()[40..44]),
            (&adopted[..], &[9; 4][..])
        );
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
                    prop::collection::vec((0u8..4, 0usize..PAGE_SIZE, 1usize..256, any::<u8>()), 1..6),
                ),
                1..8,
            ),
        ) {
            let zero = Image::zeroed();
            let mut page = LocalPage::showing(zero.clone());
            let mut writer = Writer::new();
            let mut mirror = vec![0u8; PAGE_SIZE];
            let mut recycled = Diff::empty(PageId(0));
            for (k, (origin, delivered, hold, stores)) in intervals.iter().enumerate() {
                let adopted = match origin {
                    // Adopt a whole-page image another writer published.
                    1 => {
                        let (diff, exchange) = writer.next((3, (0, 1), 1, false));
                        page.apply_diff(&diff, exchange);
                        diff.apply(&mut mirror);
                        diff.image().map(|image| image.as_ptr())
                    }
                    // Deliver a round, which lands before the twin is taken.
                    2 => {
                        let (diff, exchange) = writer.next(*delivered);
                        page.deliver([(&diff, exchange)]);
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
                        0 => (offset, stored(len.min(PAGE_SIZE - offset), value)),
                        1 => (offset, start[offset..(offset + len).min(PAGE_SIZE)].to_vec()),
                        2 => (0, stored(PAGE_SIZE, value)),
                        _ => (0, start.clone()),
                    };
                    page.write_bytes(offset, &src);
                    mirror[offset..offset + src.len()].copy_from_slice(&src);
                }
                prop_assert_eq!(page.bytes(), &mirror[..]);
                let want = Diff::create(PageId(0), &start, &mirror);
                prop_assert_eq!(&page.make_diff(PageId(0)).unwrap(), &want);
                prop_assert!(page.make_diff_into(PageId(0), &mut recycled));
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

                let mut reference = LocalPage::new_zeroed(PAGE_SIZE);
                for (d, e) in &all {
                    reference.apply_diff(d, *e);
                }
                let mut page = LocalPage::new_zeroed(PAGE_SIZE);
                page.apply_diff(&earlier.0, earlier.1);
                if let Some((d, e)) = &landed {
                    page.deliver([(d, *e)]);
                }
                page.deliver(round.iter().rev().map(|(d, e)| (d, *e)));
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

                let mut reference = LocalPage::new_zeroed(PAGE_SIZE);
                for (d, e) in [&earlier].into_iter().chain(&landed) {
                    reference.apply_diff(d, *e);
                }
                reference.apply_diff(&Diff::merge(PageId(0), &refs), exchange);
                let mut page = LocalPage::new_zeroed(PAGE_SIZE);
                page.apply_diff(&earlier.0, earlier.1);
                if let Some((d, e)) = &landed {
                    page.deliver([(d, *e)]);
                }
                page.deliver(chain.iter().rev().map(|d| (d, exchange)));
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
            prop_assert!(writer.page.make_diff_into(PageId(1), recycled));
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
            intervals in prop::collection::vec((0u8..4, 0usize..WORDS, 1usize..256), 2..24),
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let zero = Image::zeroed();
            let page = || LocalPage::showing(zero.clone());
            let (mut writer, mut reference) = (page(), page());
            let (mut adopter, mut deliverer) = (page(), page());
            // Published diffs the log still holds, the emptied ones it
            // pooled, and what each reader has not received yet.
            let (mut log, mut pool) = (Vec::<Arc<Diff>>::new(), Vec::<Arc<Diff>>::new());
            let (mut unadopted, mut undelivered) = (Vec::new(), Vec::new());
            for (k, &(shape, word, words)) in intervals.iter().enumerate() {
                let shown = adopter.bytes().to_vec();
                let twin = writer.bytes().to_vec();
                writer.ensure_twin();
                let (lo, hi) = match shape {
                    // Whole-page stores, the dense diffs that borrow the image.
                    0 | 1 => (0, PAGE_SIZE),
                    2 => (word * WORD_SIZE, (word + words) * WORD_SIZE),
                    // A store of the value already there: an empty diff.
                    _ => (word * WORD_SIZE, word * WORD_SIZE + WORD_SIZE),
                };
                let hi = hi.min(PAGE_SIZE);
                let src: Vec<u8> = if shape == 3 {
                    twin[lo..hi].to_vec()
                } else {
                    (lo..hi).map(|_| next() as u8).collect()
                };
                writer.write_bytes(lo, &src);
                prop_assert!(adopter.bytes() == &shown[..], "an adopted image changed under the writer's store");

                let mut diff = pool.pop().unwrap_or_else(|| Arc::new(Diff::empty(PageId(0))));
                prop_assert!(writer.make_diff_into(PageId(0), Arc::get_mut(&mut diff).unwrap()));
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
                    deliverer.deliver(undelivered.iter().rev().map(|(d, e)| (d, *e)));
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
            deliverer.deliver(undelivered.iter().rev().map(|(d, e)| (d, *e)));
            let want = observe(&mut reference, &[]);
            let (adopted, delivered) = (observe(&mut adopter, &[]), observe(&mut deliverer, &[]));
            prop_assert!(adopted == want, "{adopted:?} != {want:?}");
            prop_assert!(delivered == want, "{delivered:?} != {want:?}");
        }

        /// The masks classify every delivered word as the paper does, word
        /// by word: under any mix of partial, near-whole and whole-page
        /// applications (a page-backed one adopted or copied),
        /// multi-member rounds, whole-page loads, reads and writes over
        /// three exchanges and [`NO_EXCHANGE`], each exchange is credited
        /// the words a per-word model credits it,
        /// the pending count is the model's, and the page holds one mask per
        /// exchange with words, setting exactly those words, after every
        /// step.
        #[test]
        fn attribution_matches_a_per_word_model(
            steps in prop::collection::vec(classify(), 1..40),
        ) {
            let mut page = LocalPage::new_zeroed(PAGE_SIZE);
            let mut writer = LocalPage::new_zeroed(PAGE_SIZE);
            let mut model = PerWord { attr: vec![NO_EXCHANGE; WORDS], credited: BTreeMap::new() };
            let mut mirror = vec![0u8; PAGE_SIZE];
            let mut credited = BTreeMap::new();
            let mut stamp = 0u32;
            // The next diff of `writer`, writing exactly the words of
            // `shape`, each to a value it never held.
            let mut next = |shape: Words| {
                let marks = marked(shape);
                stamp += 1;
                (interval(&mut writer, &marks, stamp), marks)
            };
            for (k, step) in steps.iter().enumerate() {
                let range = |offset: usize, len: usize| {
                    let offset = offset % PAGE_SIZE;
                    (offset, len.min(PAGE_SIZE - offset))
                };
                match *step {
                    Classify::Apply(shape, exchange) => {
                        let (diff, marks) = next(shape);
                        page.apply_diff(&diff, exchange);
                        diff.apply(&mut mirror);
                        model.deliver(&marks, exchange);
                    }
                    Classify::Deliver(ref round) => {
                        let round: Vec<_> = round.iter().map(|&(shape, e)| (next(shape), e)).collect();
                        page.deliver(round.iter().rev().map(|((d, _), e)| (d, *e)));
                        for ((diff, marks), exchange) in &round {
                            diff.apply(&mut mirror);
                            model.deliver(marks, *exchange);
                        }
                    }
                    Classify::Load(exchange) => {
                        let src: Vec<u8> = (0..PAGE_SIZE).map(|b| (b ^ k) as u8 | 1).collect();
                        page.load_page(&src, exchange);
                        mirror.copy_from_slice(&src);
                        model.deliver(&[true; WORDS], exchange);
                    }
                    Classify::Read(offset, len) => {
                        let (offset, len) = range(offset, len);
                        let mut dst = vec![0u8; len];
                        page.read_bytes(offset, &mut dst, |e, words| {
                            *credited.entry(e).or_default() += words as u64
                        });
                        prop_assert_eq!(&dst[..], &mirror[offset..offset + len]);
                        model.take(offset / WORD_SIZE, (offset + len - 1) / WORD_SIZE, true);
                    }
                    Classify::Write(offset, len) => {
                        let (offset, len) = range(offset, len);
                        let src = vec![len as u8; len];
                        page.write_bytes(offset, &src);
                        mirror[offset..offset + len].copy_from_slice(&src);
                        model.take(offset / WORD_SIZE, (offset + len - 1) / WORD_SIZE, false);
                    }
                }
                prop_assert_eq!(page.bytes(), &mirror[..]);
                model.check(&page, &credited).map_err(|e| TestCaseError::fail(format!("after {step:?}: {e}")))?;
            }
        }

        /// With masks that stop short of the last block, from a page's first
        /// touch over the zero image on, every diff lands — applied alone or
        /// as the newest of a round, from one writer or two concurrent ones,
        /// between local stores and loads — exactly as a copy-apply of every
        /// member in order lands it: the same bytes, credit, pending count
        /// and masks.  The page shows the newest member's image itself
        /// exactly when that member borrows one and the page already held
        /// the image's bytes on every word the member does not write, and a
        /// local store after an adoption changes no byte of the image.
        #[test]
        fn an_adopted_image_lands_what_a_copy_apply_lands(
            steps in prop::collection::vec(land(), 1..24),
        ) {
            let len = PAGE_SIZE;
            let zero = Image::zeroed();
            let mut page = LocalPage::showing(zero.clone());
            let mut writers = [LocalPage::showing(zero.clone()), LocalPage::showing(zero.clone())];
            let mut model = PerWord { attr: vec![NO_EXCHANGE; WORDS], credited: BTreeMap::new() };
            let (mut mirror, mut credited) = (vec![0u8; len], BTreeMap::new());
            // The last image the page adopted, with its bytes then.
            let mut adopted: Option<(Arc<Diff>, Vec<u8>)> = None;
            let mut stamp = 0;
            for step in &steps {
                match step {
                    Land::Round(members) => {
                        let round: Vec<_> = members
                            .iter()
                            .map(|&(w, shape, exchange)| {
                                let marks = marked(shape);
                                stamp += 1;
                                (interval(&mut writers[w], &marks, stamp), marks, exchange)
                            })
                            .collect();
                        let (newest, older) = round.split_last().expect("a round has a member");
                        for (diff, marks, exchange) in older {
                            diff.apply(&mut mirror);
                            model.deliver(marks, *exchange);
                        }
                        let (diff, marks, exchange) = newest;
                        let agrees = diff.image().is_some_and(|image| {
                            (0..WORDS).filter(|&w| !marks[w]).all(|w| {
                                let at = w * WORD_SIZE..(w + 1) * WORD_SIZE;
                                mirror[at.clone()] == image[at]
                            })
                        });
                        diff.apply(&mut mirror);
                        model.deliver(marks, *exchange);
                        if older.is_empty() {
                            page.apply_diff(diff, *exchange);
                        } else {
                            page.deliver(round.iter().rev().map(|(d, _, e)| (d, *e)));
                        }
                        prop_assert!(shows(&page, diff) == agrees, "adopted: {}, agrees: {agrees}", !agrees);
                        if agrees {
                            adopted = Some((Arc::clone(diff), mirror.clone()));
                        }
                    }
                    &Land::Write(offset, n) => {
                        let offset = offset % len;
                        let n = n.min(len - offset);
                        let src = vec![0xA5; n];
                        page.write_bytes(offset, &src);
                        mirror[offset..offset + n].copy_from_slice(&src);
                        model.take(offset / WORD_SIZE, (offset + n - 1) / WORD_SIZE, false);
                        if let Some((diff, bytes)) = adopted.take() {
                            prop_assert!(!shows(&page, &diff), "a store wrote into an adopted image");
                            prop_assert_eq!(&diff.image().unwrap()[..], &bytes[..]);
                        }
                    }
                    &Land::Read(offset, n) => {
                        let offset = offset % len;
                        let mut dst = vec![0u8; n.min(len - offset)];
                        page.read_bytes(offset, &mut dst, |e, words| {
                            *credited.entry(e).or_default() += words as u64
                        });
                        prop_assert_eq!(&dst[..], &mirror[offset..offset + dst.len()]);
                        model.take(offset / WORD_SIZE, (offset + dst.len() - 1) / WORD_SIZE, true);
                    }
                }
                prop_assert_eq!(page.bytes(), &mirror[..]);
                model.check(&page, &credited).map_err(|e| TestCaseError::fail(format!("after {step:?}: {e}")))?;
            }
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
            let zero = Image::zeroed();
            let mut store = PageStore::with_zero_image(PageLayout::new(PAGE_SIZE, 2), zero.clone());
            let mut private = LocalPage::new_zeroed(PAGE_SIZE);
            let mut writer = Writer::new();
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
                        prop_assert!(page.make_diff_into(PageId(0), diff));
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
                        let src = stored(len.min(PAGE_SIZE - offset), value);
                        pages.iter_mut().for_each(|page| page.write_bytes(offset, &src));
                        written = true;
                    }
                    Step::StoreWhole(value) => {
                        let src = stored(PAGE_SIZE, value);
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
                        for page in pages.iter_mut() {
                            page.deliver(round.iter().rev().map(|(d, e)| (d, *e)));
                        }
                        delivered.extend(round);
                        written = true;
                    }
                    Step::Read(offset, len) => {
                        let len = len.min(PAGE_SIZE - offset);
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
            store.read(GlobalAddr(PAGE_SIZE as u64), &mut [0u8; PAGE_SIZE], |_, _| {});
            prop_assert!(shows_zero(&store, PageId(1)), "a read detached the zero image");
        }
    }
}
