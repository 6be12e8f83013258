//! Word-granularity run-length diffs.
//!
//! TreadMarks' multiple-writer protocol records the modifications a processor
//! made to a page by *twinning* the page on the first write and later
//! comparing the twin against the modified copy.  The result is a *diff*: a
//! run-length encoding of the 32-bit words that changed.  Diffs are what the
//! wire actually carries in response to page-fault requests, so their encoded
//! size is what the paper's "data" metric measures.
//!
//! In memory a diff is the compare's changed-word mask — one `u64` per 64
//! page words — plus one payload buffer.  The runs the wire carries are the
//! mask's maximal runs of set bits, and a packed payload holds their bytes
//! back to back, so a word's bytes sit after those of the mask bits below
//! it.  The close writes its compare straight into the mask of a pooled
//! diff, whose buffers keep their capacity: publishing a page allocates
//! nothing in the steady state.
//!
//! Dense diffs go one step further and skip the payload copy entirely: a
//! diff published at interval close can *borrow* the page image itself
//! (`Payload::Page`, a shared [`Image`]), its runs sliced out of it at their
//! page offsets.  The owning processor detaches (copy-on-next-write) only if
//! it writes the page again in a later interval, so the common
//! publish-then-move-on pattern never copies the payload at all.  Both
//! representations encode the same logical runs — equality, application,
//! accounting and merging are representation-blind.

use crate::image::Image;
use crate::layout::{PageId, WORD_SIZE};

/// A record of the modifications made to one hardware page, encoded as
/// maximal runs of changed 32-bit words.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Page this diff applies to.
    pub page: PageId,
    /// The changed-word mask: bit `w % 64` of `mask[w / 64]` is set iff
    /// the diff writes word `w`.  One block per 64 page words, at most up
    /// to the page's last word; a rebuilt mask stops at the block of the
    /// last word the diff writes.
    mask: Vec<u64>,
    /// The runs' new contents.
    payload: Payload,
}

/// Where a diff's run contents live.
#[derive(Debug, Clone)]
enum Payload {
    /// Packed back to back in page order, owned by the diff.
    Packed(Vec<u8>),
    /// Borrowed from a shared snapshot of the whole page image; runs are
    /// sliced out of it at their page offsets.  Taken by
    /// [`Diff::rebuild_from_compare`] for dense diffs, where sharing the
    /// 4 KB image beats copying most of it into a packed buffer.
    Page(Image),
}

/// Two diffs are equal when they record the same logical modifications —
/// same page, same runs, same run bytes — regardless of whether the
/// payload is packed or borrows a shared page image.
impl PartialEq for Diff {
    fn eq(&self, other: &Self) -> bool {
        self.page == other.page && self.runs().eq(other.runs())
    }
}

impl Eq for Diff {}

/// Per-run wire header: offset + length, as in the TreadMarks encoding.
pub const RUN_HEADER_BYTES: u64 = 8;
/// Per-diff wire header: page id + run count + interval identification.
pub const DIFF_HEADER_BYTES: u64 = 16;

/// Bytes of page covered by one mask block.
const BLOCK: usize = 64 * WORD_SIZE;

impl Diff {
    /// Compare `twin` (the page contents when the current writing interval
    /// started) against `current` (the contents now) and encode the changed
    /// words.
    ///
    /// This is the twin-compare *reference*: a plain word-by-word scan that
    /// the tests hold the simulator's constructor,
    /// [`rebuild_from_compare`](Self::rebuild_from_compare), against.  No
    /// run builds its diffs this way.
    ///
    /// # Panics
    /// Panics if the two buffers differ in length or are not word-aligned in
    /// size.
    pub fn create(page: PageId, twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
        assert_eq!(twin.len() % WORD_SIZE, 0, "page size must be word aligned");
        let words = twin.len() / WORD_SIZE;
        let mut mask = vec![0u64; words.div_ceil(64)];
        for w in 0..words {
            let (lo, hi) = (w * WORD_SIZE, (w + 1) * WORD_SIZE);
            if twin[lo..hi] != current[lo..hi] {
                mask[w / 64] |= 1 << (w % 64);
            }
        }
        Diff::packed_from(page, mask, current)
    }

    /// A diff of `page` writing the words `mask` sets, their bytes packed
    /// out of `source` (indexed by page offset).
    fn packed_from(page: PageId, mask: Vec<u64>, source: &[u8]) -> Diff {
        let mut payload = Vec::new();
        pack_payload_into(&mask, source, &mut payload);
        let payload = Payload::Packed(payload);
        Diff {
            page,
            mask,
            payload,
        }
    }

    /// A diff of `page` recording no modifications, owning no buffer yet.
    pub fn empty(page: PageId) -> Diff {
        Diff {
            page,
            mask: Vec::new(),
            payload: Payload::Packed(Vec::new()),
        }
    }

    /// Rebuild this diff, in place, as the twin compare of `image` (the
    /// page now) against `twin` (the page when the interval started): the
    /// compare writes the mask, and the runs are the mask's.  Dense diffs
    /// (payload at least half the page) borrow the image itself; sparse
    /// diffs copy their runs into one packed buffer, so a few changed words
    /// never pin a whole page in memory.  The encoded runs are
    /// bit-identical to [`create`](Self::create) either way.
    ///
    /// Whatever the diff held before is overwritten, but its mask keeps its
    /// buffer (grown only to the highest block a rebuild has needed), and
    /// so does a packed buffer the new runs pack into: the interval close
    /// rebuilds retired diffs through here, so publishing a dirty page
    /// allocates nothing in the steady state.
    ///
    /// # Panics
    /// Panics on an unaligned page size or a twin of another size.
    pub fn rebuild_from_compare(&mut self, page: PageId, image: &Image, twin: &[u8]) {
        assert_eq!(image.len() % WORD_SIZE, 0, "page size must be word aligned");
        assert_eq!(image.len(), twin.len(), "twin/page size mismatch");
        self.page = page;
        // The mask ends at the block of the last changed word: a sparse
        // diff low in the page gets a short one.
        let mut blocks = image.chunks(BLOCK).zip(twin.chunks(BLOCK));
        let last = blocks.rposition(|(page, twin)| page != twin);
        self.mask.resize(last.map_or(0, |b| b + 1), 0);
        changed_bits(image, twin, &mut self.mask);
        let total = self.payload_words() * WORD_SIZE;
        if total * 2 >= image.len() && total > 0 {
            self.payload = Payload::Page(image.clone());
        } else {
            pack_payload_into(&self.mask, image, packed(&mut self.payload));
        }
    }

    /// Empty the diff for reuse: no runs and no shared page image (a pooled
    /// diff never pins a page; the image goes back to its pool if the diff
    /// held it last), while the mask and packed buffer keep their capacity
    /// for the next [`rebuild_from_compare`](Self::rebuild_from_compare).
    pub fn clear(&mut self) {
        self.mask.clear();
        packed(&mut self.payload).clear();
    }

    /// The page image this diff borrows, if it borrows one.
    #[inline]
    pub fn image(&self) -> Option<&Image> {
        match &self.payload {
            Payload::Page(image) => Some(image),
            Payload::Packed(_) => None,
        }
    }

    /// The page image this diff borrows, if `page` already holds that
    /// image's bytes on every word the diff does not write: a page that
    /// adopts it shows exactly what [`apply`](Self::apply) would leave.  A
    /// diff that writes every word agrees with any page; otherwise only the
    /// words off the mask are compared — run by run, up to the page's last
    /// word past a trimmed mask, stopping at the first run that differs.
    pub(crate) fn image_over(&self, page: &[u8]) -> Option<&Image> {
        let image = self.image()?;
        debug_assert_eq!(image.len(), page.len(), "a diff of another page size");
        let words = image.len() / WORD_SIZE;
        let untouched = self.mask.iter().map(|m| !m).chain(std::iter::repeat(!0));
        let agrees = BitRuns::new(untouched.take(words.div_ceil(64))).all(|(lo, hi)| {
            let (lo, hi) = (lo * WORD_SIZE, hi.min(words) * WORD_SIZE);
            lo >= hi || page[lo..hi] == image[lo..hi]
        });
        agrees.then_some(image)
    }

    /// Iterate over the runs as `(page byte offset, payload bytes)` pairs.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            words: BitRuns::new(self.mask.iter().copied()),
            payload: &self.payload,
            cursor: 0,
        }
    }

    /// The changed-word mask (see the field), for a delivery's cover and
    /// attribution.
    #[inline]
    pub(crate) fn mask(&self) -> &[u64] {
        &self.mask
    }

    /// Apply the diff to `target`, overwriting the words it records.
    ///
    /// # Panics
    /// Panics if any run falls outside `target`.
    pub fn apply(&self, target: &mut [u8]) {
        for (offset, bytes) in self.runs() {
            let lo = offset as usize;
            let hi = lo + bytes.len();
            assert!(hi <= target.len(), "diff run outside page bounds");
            target[lo..hi].copy_from_slice(bytes);
        }
    }

    /// True if the diff records no modifications.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask.iter().all(|&m| m == 0)
    }

    /// Number of words the diff writes: the mask's set bits.
    #[inline]
    pub(crate) fn payload_words(&self) -> usize {
        self.mask.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Number of payload bytes (modified word contents only).  Identical
    /// for both representations: a page-backed diff's payload is the words
    /// its mask sets, exactly the bytes a packed copy would hold.
    #[inline]
    pub fn payload_bytes(&self) -> u64 {
        (self.payload_words() * WORD_SIZE) as u64
    }

    /// Size of the diff as it would travel on the wire: payload plus the
    /// per-run and per-diff headers of the TreadMarks encoding.  A run
    /// starts at each set bit of the mask whose lower neighbour is clear.
    pub fn wire_bytes(&self) -> u64 {
        let mut below = 0;
        let runs: u64 = self
            .mask
            .iter()
            .map(|&m| {
                let starts = m & !(m << 1 | below);
                below = m >> 63;
                starts.count_ones() as u64
            })
            .sum();
        DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + self.payload_bytes()
    }

    /// Call `paint(offset, bytes)` for each maximal interval of the words
    /// this diff writes that `cover` (one bit per page word) lacks, with
    /// the bytes the diff writes there, adding them to `cover`, and return
    /// how many words there were.  Walking diffs newest first over one
    /// cover is the "reverse painter" of [`merge`](Self::merge) and
    /// `LocalPage::deliver`: each diff lands only where no newer one
    /// writes, so the work is the union of the payloads, not their sum.  A
    /// diff wholly under the cover is settled by one pass over the two
    /// masks and calls nothing.  (`paint` is a `dyn` callback: a painter
    /// inlined into the cover walk measured slower on the delivery-heavy
    /// Jacobi sweep.)
    pub(crate) fn for_each_uncovered(
        &self,
        cover: &mut [u64],
        paint: &mut dyn FnMut(usize, &[u8]),
    ) -> usize {
        debug_assert!(
            self.mask.len() <= cover.len(),
            "a cover shorter than the page"
        );
        let fresh = self
            .mask
            .iter()
            .zip(&*cover)
            .fold(0, |any, (m, c)| any | m & !c);
        if fresh == 0 {
            return 0;
        }
        let (payload, packed) = match &self.payload {
            Payload::Packed(bytes) => (&bytes[..], true),
            Payload::Page(image) => (&image[..], false),
        };
        let fresh = self.mask.iter().zip(cover.iter_mut()).map(|(&m, c)| {
            let fresh = m & !*c;
            *c |= m;
            fresh
        });
        // A packed payload holds word `w` after the mask's bits below `w`:
        // the blocks below it are counted once, as the runs go up the page.
        let (mut counted, mut below) = (0, 0);
        let mut painted = 0;
        for (lo, hi) in BitRuns::new(fresh) {
            let from = if packed {
                for m in &self.mask[counted..lo / 64] {
                    below += m.count_ones() as usize;
                }
                counted = lo / 64;
                below + (self.mask[counted] & ((1 << (lo % 64)) - 1)).count_ones() as usize
            } else {
                lo
            } * WORD_SIZE;
            paint(lo * WORD_SIZE, &payload[from..from + (hi - lo) * WORD_SIZE]);
            painted += hi - lo;
        }
        painted
    }

    /// Merge a chain of diffs of the same page into their union: every word
    /// touched by any chain member carries the bytes of the *last* member
    /// that touches it.  Applying the merged diff is equivalent to applying
    /// the chain in order.  `chain` must be in application order (oldest
    /// first).
    ///
    /// No run calls this: a writer's chain reaches a page as a round of
    /// `LocalPage::deliver`, which lands the same union.  It is the test
    /// reference that round is held against, and stays public because the
    /// repository benchmark's `page.diff_merge_ns` probe times it.
    pub fn merge(page: PageId, chain: &[&Diff]) -> Diff {
        let blocks = chain.iter().map(|d| d.mask.len()).max().unwrap_or(0);
        let mut cover = vec![0u64; blocks];
        let mut buf = vec![0u8; blocks * BLOCK];
        for diff in chain.iter().rev() {
            debug_assert_eq!(diff.page, page);
            diff.for_each_uncovered(&mut cover, &mut |lo, bytes| {
                buf[lo..lo + bytes.len()].copy_from_slice(bytes)
            });
        }
        Diff::packed_from(page, cover, &buf)
    }
}

/// Iterator over a diff's `(page byte offset, payload bytes)` runs,
/// representation-blind: packed payloads are walked with a cursor, shared
/// page images are sliced at the run offsets.
pub struct Runs<'a> {
    words: BitRuns<std::iter::Copied<std::slice::Iter<'a, u64>>>,
    payload: &'a Payload,
    cursor: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = (u32, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let (lo, hi) = self.words.next()?;
        let (lo, len) = (lo * WORD_SIZE, (hi - lo) * WORD_SIZE);
        let bytes = match self.payload {
            Payload::Packed(payload) => {
                self.cursor += len;
                &payload[self.cursor - len..self.cursor]
            }
            Payload::Page(image) => &image[lo..lo + len],
        };
        Some((lo as u32, bytes))
    }
}

/// The maximal runs of set bits of a sequence of 64-bit blocks (bit `w %
/// 64` of block `w / 64` stands for word `w`), as `[lo, hi)` word
/// intervals in ascending order.  A run that crosses a block boundary
/// arrives whole, so the intervals are exactly what a word-by-word scan of
/// the same set would find.
struct BitRuns<I> {
    blocks: I,
    /// The bits of the current block not reported yet.
    bits: u64,
    /// The word of the current block's bit 0, and of the next block's.
    base: usize,
    next: usize,
}

impl<I: Iterator<Item = u64>> BitRuns<I> {
    fn new(blocks: I) -> Self {
        BitRuns {
            blocks,
            bits: 0,
            base: 0,
            next: 0,
        }
    }

    /// Take the next block as the current one.
    fn take_block(&mut self) -> Option<u64> {
        let block = self.blocks.next()?;
        (self.base, self.next) = (self.next, self.next + 64);
        Some(block)
    }
}

impl<I: Iterator<Item = u64>> Iterator for BitRuns<I> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.bits == 0 {
            self.bits = self.take_block()?;
        }
        let low = self.bits.trailing_zeros();
        let ones = (self.bits >> low).trailing_ones();
        let lo = self.base + low as usize;
        let mut hi = lo + ones as usize;
        // Adding the run's lowest bit carries through the run and clears it.
        self.bits &= self.bits.wrapping_add(1 << low);
        if low + ones == 64 {
            // The run reaches the block's top bit: it goes on through the
            // low bits of the blocks after it.
            while let Some(block) = self.take_block() {
                let ones = block.trailing_ones();
                hi += ones as usize;
                if ones < 64 {
                    self.bits = block & (!0 << ones);
                    break;
                }
            }
        }
        Some((lo, hi))
    }
}

/// Write into `bits` the compare of `page` against `twin`: bit `w % 64` of
/// `bits[w / 64]` set iff word `w` differs, for every word of the page.  A
/// block of 64 words is compared in byte lanes, one per word, that the
/// compiler vectorises on baseline x86-64, and gathered eight lanes at a
/// time into the block's bits by a multiply.  A block that is unchanged,
/// as most of a sparsely written page are, is settled by one slice compare.
fn changed_bits(page: &[u8], twin: &[u8], bits: &mut [u64]) {
    for ((blk, page), twin) in bits
        .iter_mut()
        .zip(page.chunks(BLOCK))
        .zip(twin.chunks(BLOCK))
    {
        *blk = if page == twin {
            0
        } else if let (Ok(page), Ok(twin)) = (page.try_into(), twin.try_into()) {
            block_bits(page, twin)
        } else {
            // A page's partial last block, compared as a whole one whose
            // missing words are equal.
            let (mut p, mut t) = ([0; BLOCK], [0; BLOCK]);
            p[..page.len()].copy_from_slice(page);
            t[..twin.len()].copy_from_slice(twin);
            block_bits(&p, &t)
        };
    }
}

/// Bit `k` set iff word `k` of the 64-word `page` block differs from
/// `twin`'s (see [`changed_bits`]).
fn block_bits(page: &[u8; BLOCK], twin: &[u8; BLOCK]) -> u64 {
    let word = |b: &[u8]| u32::from_ne_bytes(b.try_into().expect("a whole word"));
    let mut lanes = [0u8; 64];
    let words = page
        .chunks_exact(WORD_SIZE)
        .zip(twin.chunks_exact(WORD_SIZE));
    for (lane, (p, t)) in lanes.iter_mut().zip(words) {
        *lane = (word(p) != word(t)) as u8;
    }
    // Lane `j` of eight, a byte of 0 or 1 at bit `8 j`, moves to bit `56 +
    // j` of the product; no other partial product reaches the top byte.
    lanes
        .chunks_exact(8)
        .enumerate()
        .fold(0, |bits, (i, eight)| {
            let eight = u64::from_le_bytes(eight.try_into().expect("eight lanes"));
            bits | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
        })
}

/// The packed buffer of `payload`, replacing a shared page image (and
/// releasing it) with an empty one.
fn packed(payload: &mut Payload) -> &mut Vec<u8> {
    if let Payload::Page(_) = payload {
        *payload = Payload::Packed(Vec::new());
    }
    match payload {
        Payload::Packed(bytes) => bytes,
        Payload::Page(_) => unreachable!("replaced above"),
    }
}

/// Copy the bytes of the words `mask` sets out of `source` (indexed by
/// page offset) into one packed payload buffer, a recycled one (cleared,
/// then reserved to the payload's final size in one step).
fn pack_payload_into(mask: &[u64], source: &[u8], payload: &mut Vec<u8>) {
    let total: usize = mask.iter().map(|m| m.count_ones() as usize).sum();
    payload.clear();
    payload.reserve(total * WORD_SIZE);
    for (lo, hi) in BitRuns::new(mask.iter().copied()) {
        let run = &source[lo * WORD_SIZE..hi * WORD_SIZE];
        // Sparse diffs are mostly one- and two-word runs: append those as
        // constant-length copies, not `memcpy` calls.
        if let Ok(two_words) = <&[u8; 2 * WORD_SIZE]>::try_from(run) {
            payload.extend_from_slice(two_words);
        } else if let Ok(word) = <&[u8; WORD_SIZE]>::try_from(run) {
            payload.extend_from_slice(word);
        } else {
            payload.extend_from_slice(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn page_of(pattern: impl Fn(usize) -> u8, len: usize) -> Vec<u8> {
        (0..len).map(pattern).collect()
    }

    fn run_vec(d: &Diff) -> Vec<(u32, Vec<u8>)> {
        d.runs().map(|(o, b)| (o, b.to_vec())).collect()
    }

    #[test]
    fn identical_pages_produce_empty_diff() {
        let a = page_of(|i| (i % 251) as u8, 4096);
        let d = Diff::create(PageId(0), &a, &a);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[8] = 0xAB;
        let d = Diff::create(PageId(1), &twin, &cur);
        assert_eq!(run_vec(&d), vec![(8, vec![0xAB, 0, 0, 0])]);
        assert_eq!(d.payload_bytes(), 4);

        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        for b in 16..32 {
            cur[b] = 1;
        }
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(run_vec(&d), vec![(16, vec![1; 16])]);
    }

    #[test]
    fn disjoint_changes_produce_separate_runs() {
        let twin = vec![0u8; 128];
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[64] = 2;
        let d = Diff::create(PageId(0), &twin, &cur);
        let offsets: Vec<u32> = d.runs().map(|(offset, _)| offset).collect();
        assert_eq!(offsets, [0, 64]);
    }

    #[test]
    fn whole_page_change_is_one_full_run() {
        let twin = vec![0u8; 256];
        let cur = vec![0xFFu8; 256];
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.runs().count(), 1);
        assert_eq!(d.payload_bytes(), 256);
        assert_eq!(d.wire_bytes(), DIFF_HEADER_BYTES + RUN_HEADER_BYTES + 256);
    }

    #[test]
    fn sub_word_change_is_recorded_as_a_word() {
        // Changing a single byte dirties its whole 32-bit word, exactly as
        // the word-granular TreadMarks diff does.
        let twin = vec![7u8; 32];
        let mut cur = twin.clone();
        cur[5] = 8;
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(run_vec(&d), vec![(4, vec![7, 8, 7, 7])]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_lengths_panic() {
        Diff::create(PageId(0), &[0u8; 8], &[0u8; 12]);
    }

    #[test]
    fn from_changed_exact_bits_match_compare_scan() {
        let twin = page_of(|i| (i % 241) as u8, 1024);
        let mut cur = twin.clone();
        for w in [0usize, 1, 62, 63, 64, 120, 255] {
            cur[w * WORD_SIZE + 1] ^= 0x11;
        }
        let mut changed = [0u64; 4];
        for w in [0usize, 1, 62, 63, 64, 120, 255] {
            changed[w / 64] |= 1 << (w % 64);
        }
        let image = Image::zeroed(1024).filled(&cur);
        let mut d = Diff::empty(PageId(0));
        d.rebuild_from_compare(PageId(2), &image, &twin);
        assert_eq!(d.mask(), &changed[..]);
        assert_eq!(d, Diff::create(PageId(2), &twin, &cur));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn a_twin_of_another_size_panics() {
        let image = Image::zeroed(512);
        Diff::empty(PageId(0)).rebuild_from_compare(PageId(0), &image, &[0; 256]);
    }

    #[test]
    fn clearing_a_diff_lets_go_of_its_image() {
        let zero = Image::zeroed(64);
        let image = zero.filled(&[7; 64]);
        let at = image.as_ptr();
        let mut diff = Diff::empty(PageId(0));
        diff.rebuild_from_compare(PageId(0), &image, &[0; 64]);
        assert!(diff.image().is_some());
        drop(image);
        diff.clear();
        assert!(diff.is_empty() && diff.image().is_none());
        assert_eq!(zero.pooled(), 1);
        let next = zero.filled(&[0; 64]);
        assert_eq!(next.as_ptr(), at, "the diff held its image last");
    }

    /// Words of the merge test page: four 64-word blocks, so runs straddle
    /// the blocks of the cover bitset.
    const WORDS: usize = 256;

    /// A diff of page 0 writing exactly the words set in `words`, each to a
    /// nonzero value drawn from `state`: a chain of such diffs applied to a
    /// zero page is nonzero exactly on the union of their words.
    fn diff_writing(words: &[bool], state: &mut u64) -> Diff {
        let mut cur = vec![0u8; WORDS * WORD_SIZE];
        for w in (0..WORDS).filter(|&w| words[w]) {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (*state >> 32) as u32 | 1;
            cur[w * WORD_SIZE..(w + 1) * WORD_SIZE].copy_from_slice(&v.to_ne_bytes());
        }
        Diff::create(PageId(0), &[0u8; WORDS * WORD_SIZE], &cur)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random same-page chains of 1–8 diffs whose runs straddle 64-word
        /// blocks: partial writers (kind 0), members that contain every
        /// older one (kind 1) and near misses that leave out one older word
        /// (kind 2).  Their merge is the chain applied in order.
        #[test]
        fn merge_equals_ordered_application(
            members in prop::collection::vec((0u8..3, any::<u64>()), 1..=8),
        ) {
            let mut union = vec![false; WORDS];
            let mut chain: Vec<Diff> = Vec::new();
            for &(kind, seed) in &members {
                let mut state = seed | 1;
                let mut next = |bound: usize| {
                    state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    (state >> 33) as usize % bound
                };
                let mut words = if kind == 0 { vec![false; WORDS] } else { union.clone() };
                if kind == 2 {
                    let older: Vec<usize> = (0..WORDS).filter(|&w| union[w]).collect();
                    if !older.is_empty() {
                        words[older[next(older.len())]] = false;
                    }
                }
                for _ in 0..1 + next(3) {
                    let lo = next(WORDS);
                    let hi = (lo + 1 + next(96)).min(WORDS);
                    words[lo..hi].iter_mut().for_each(|w| *w = true);
                }
                (0..WORDS).for_each(|w| union[w] |= words[w]);
                chain.push(diff_writing(&words, &mut state));
            }
            let refs: Vec<&Diff> = chain.iter().collect();
            let mut page = vec![0u8; WORDS * WORD_SIZE];
            refs.iter().for_each(|d| d.apply(&mut page));
            let ordered = Diff::create(PageId(0), &[0u8; WORDS * WORD_SIZE], &page);
            prop_assert_eq!(Diff::merge(PageId(0), &refs), ordered);
        }

        /// On any page of 8 B to 4 KiB (so with and without a partial last
        /// mask block), a diff rebuilt from the compare — over a recycled
        /// diff that held a dense, a sparse or no encoding — has the runs of
        /// a word-by-word scan, the wire and payload sizes they imply, and
        /// equals `Diff::create`, under sub-word, value-restoring and
        /// whole-page stores.
        #[test]
        fn a_rebuilt_diff_encodes_the_word_by_word_compare(
            words in 2usize..=1024,
            seed in any::<u64>(),
            earlier in 0u8..3,
            stores in prop::collection::vec((0u8..4, 0usize..4096, 1usize..64), 0..12),
        ) {
            let len = words * WORD_SIZE;
            let mut state = seed | 1;
            let mut bytes = |n: usize| -> Vec<u8> {
                (0..n)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (state >> 59) as u8
                    })
                    .collect()
            };
            let twin = bytes(len);
            let mut cur = twin.clone();
            for &(kind, offset, n) in &stores {
                let offset = offset % len;
                let n = n.min(len - offset);
                match kind {
                    0 => cur[offset..offset + n].copy_from_slice(&bytes(n)),
                    1 => cur[offset..offset + n].copy_from_slice(&twin[offset..offset + n]),
                    2 => cur = bytes(len),
                    _ => cur.copy_from_slice(&twin),
                }
            }
            let zero = Image::zeroed(len);
            let mut diff = Diff::empty(PageId(0));
            if earlier > 0 {
                let mut other = twin.clone();
                other[..len / (1 + 3 * (earlier as usize - 1))].fill(0xFF);
                diff.rebuild_from_compare(PageId(0), &zero.filled(&other), &twin);
            }
            diff.rebuild_from_compare(PageId(1), &zero.filled(&cur), &twin);

            let mut scanned: Vec<(u32, Vec<u8>)> = Vec::new();
            for (w, (t, c)) in twin.chunks(WORD_SIZE).zip(cur.chunks(WORD_SIZE)).enumerate() {
                let at = (w * WORD_SIZE) as u32;
                match scanned.last_mut() {
                    _ if t == c => {}
                    Some((o, run)) if *o as usize + run.len() == at as usize => run.extend_from_slice(c),
                    _ => scanned.push((at, c.to_vec())),
                }
            }
            let payload: usize = scanned.iter().map(|(_, run)| run.len()).sum();
            let reference = Diff::create(PageId(1), &twin, &cur);
            prop_assert_eq!(&run_vec(&reference), &scanned);
            prop_assert_eq!(&run_vec(&diff), &scanned);
            prop_assert_eq!(diff.payload_bytes(), payload as u64);
            prop_assert_eq!(
                diff.wire_bytes(),
                DIFF_HEADER_BYTES + scanned.len() as u64 * RUN_HEADER_BYTES + payload as u64
            );
            prop_assert_eq!(reference.wire_bytes(), diff.wire_bytes());
            prop_assert_eq!(diff.is_empty(), scanned.is_empty());
            prop_assert_eq!(&diff, &reference);
        }
    }
}
