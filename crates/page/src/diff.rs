//! Word-granularity run-length diffs.
//!
//! TreadMarks' multiple-writer protocol records the modifications a processor
//! made to a page by *twinning* the page on the first write and later
//! comparing the twin against the modified copy.  The result is a *diff*: a
//! run-length encoding of the 32-bit words that changed.  Diffs are what the
//! wire actually carries in response to page-fault requests, so their encoded
//! size is what the paper's "data" metric measures.
//!
//! The in-memory layout is flat: one packed payload buffer per diff plus a
//! small span table, rather than one allocation per run.  A diff with a
//! dozen runs costs two allocations, not thirteen — diff creation and
//! retirement are both on the simulator's hot path.
//!
//! Dense diffs go one step further and skip the payload copy entirely: a
//! diff published at interval close can *borrow* the page image itself
//! (`Payload::Page`, a shared [`Image`]) with its spans indexing
//! the image by page offset.  The owning processor detaches
//! (copy-on-next-write) only if it writes the page again in a later
//! interval, so the common publish-then-move-on pattern never copies the
//! payload at all.  Both representations encode the same logical runs —
//! equality, application, accounting and merging are representation-blind.

use crate::image::Image;
use crate::layout::{PageId, WORD_SIZE};

/// One maximal run of consecutive modified words: the byte offset of the
/// first modified word within the page, and the run's payload length in
/// bytes.  The payload bytes of a diff's runs are packed back to back in
/// its payload buffer, in span order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpan {
    /// Byte offset of the first modified word within the page.
    pub offset: u32,
    /// Number of payload bytes (always a multiple of the word size).
    pub len: u32,
}

impl RunSpan {
    /// Exclusive end offset of the run within the page.
    #[inline]
    pub fn end(&self) -> u32 {
        self.offset + self.len
    }
}

/// A record of the modifications made to one hardware page, encoded as
/// maximal runs of changed 32-bit words.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Page this diff applies to.
    pub page: PageId,
    /// Maximal runs of modified words, in increasing offset order.
    spans: Vec<RunSpan>,
    /// The runs' new contents.
    payload: Payload,
}

/// Where a diff's run contents live.
#[derive(Debug, Clone)]
enum Payload {
    /// Packed back to back in span order, owned by the diff.
    Packed(Vec<u8>),
    /// Borrowed from a shared snapshot of the whole page image; runs are
    /// sliced out of it at their page offsets.  Taken by
    /// [`Diff::rebuild_from_changed`] for dense diffs, where sharing the
    /// 4 KB image beats copying most of it into a packed buffer.
    Page(Image),
}

/// Two diffs are equal when they record the same logical modifications —
/// same page, same span table, same run bytes — regardless of whether the
/// payload is packed or borrows a shared page image.
impl PartialEq for Diff {
    fn eq(&self, other: &Self) -> bool {
        self.page == other.page
            && self.spans == other.spans
            && self.runs().zip(other.runs()).all(|(a, b)| a.1 == b.1)
    }
}

impl Eq for Diff {}

/// Per-run wire header: offset + length, as in the TreadMarks encoding.
pub const RUN_HEADER_BYTES: u64 = 8;
/// Per-diff wire header: page id + run count + interval identification.
pub const DIFF_HEADER_BYTES: u64 = 16;

impl Diff {
    /// Compare `twin` (the page contents when the current writing interval
    /// started) against `current` (the contents now) and encode the changed
    /// words.
    ///
    /// This is the twin-compare *reference*: a plain word-by-word scan that
    /// the tests hold the simulator's constructor,
    /// [`rebuild_from_changed`](Self::rebuild_from_changed), against.  No
    /// run builds its diffs this way.
    ///
    /// # Panics
    /// Panics if the two buffers differ in length or are not word-aligned in
    /// size.
    pub fn create(page: PageId, twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
        assert_eq!(twin.len() % WORD_SIZE, 0, "page size must be word aligned");
        let words = twin.len() / WORD_SIZE;
        let mut diff = Diff::empty(page);
        let mut w = 0;
        while w < words {
            let lo = w * WORD_SIZE;
            let hi = lo + WORD_SIZE;
            if twin[lo..hi] != current[lo..hi] {
                // start of a run; extend while words keep differing
                let start = w;
                while w < words
                    && twin[w * WORD_SIZE..(w + 1) * WORD_SIZE]
                        != current[w * WORD_SIZE..(w + 1) * WORD_SIZE]
                {
                    w += 1;
                }
                diff.push_run(
                    (start * WORD_SIZE) as u32,
                    &current[start * WORD_SIZE..w * WORD_SIZE],
                );
            } else {
                w += 1;
            }
        }
        diff
    }

    /// A diff of `page` recording no modifications, owning no buffer yet.
    pub fn empty(page: PageId) -> Diff {
        Diff {
            page,
            spans: Vec::new(),
            payload: Payload::Packed(Vec::new()),
        }
    }

    /// Rebuild this diff, in place, from an **exact** changed-word bitset
    /// (bit `w % 64` of `changed[w / 64]` set ⇔ word `w` of `image` differs
    /// from its value when the interval started) and an `Arc`-shared
    /// snapshot of the page image.  No compare scan happens: runs are
    /// extracted straight from the bits.  Dense diffs (payload at least
    /// half the page) borrow the snapshot itself; sparse diffs copy their
    /// runs into one packed buffer, so a few changed words never pin a
    /// whole page in memory.  With an exact bitset — as maintained by the
    /// write path's per-word pre-image tracking — the encoded runs are
    /// bit-identical to [`create`](Self::create) against the interval-start
    /// twin either way.
    ///
    /// Whatever the diff held before is overwritten, but its span table
    /// keeps its capacity, and so does a packed buffer the new runs pack
    /// into: the interval close rebuilds retired diffs through here, so
    /// publishing a dirty page allocates nothing in the steady state.
    ///
    /// # Panics
    /// Panics on an unaligned page size or a bitset shorter than the page's
    /// word count.
    pub fn rebuild_from_changed(&mut self, page: PageId, image: &Image, changed: &[u64]) {
        assert_eq!(image.len() % WORD_SIZE, 0, "page size must be word aligned");
        let words = image.len() / WORD_SIZE;
        assert!(
            changed.len() * 64 >= words,
            "changed bitset shorter than page"
        );
        self.page = page;
        spans_from_bits_into(changed, &mut self.spans);
        let total: usize = self.spans.iter().map(|s| s.len as usize).sum();
        if total * 2 >= image.len() && total > 0 {
            self.payload = Payload::Page(image.clone());
        } else {
            pack_payload_into(&self.spans, image, packed(&mut self.payload));
        }
    }

    /// Empty the diff for reuse: no runs and no shared page image (a pooled
    /// diff never pins a page; the image goes back to its pool if the diff
    /// held it last), while the span table and packed buffer keep their
    /// capacity for the next
    /// [`rebuild_from_changed`](Self::rebuild_from_changed).
    pub fn clear(&mut self) {
        self.spans.clear();
        packed(&mut self.payload).clear();
    }

    /// The shared page snapshot, when this diff rewrites the *entire* page
    /// out of one: a single run at offset 0 covering every byte of a
    /// `Payload::Page` image.  Receivers then adopt the snapshot
    /// wholesale instead of copying the page — their contents after
    /// adoption are bit-identical to an [`apply`](Self::apply), because the
    /// lone run *is* the image.
    #[inline]
    pub fn whole_page_shared_image(&self) -> Option<&Image> {
        match &self.payload {
            Payload::Page(image) if self.covers_page(image.len()) => Some(image),
            _ => None,
        }
    }

    /// True if the diff rewrites every byte of a `page_len`-byte page: a
    /// single run at offset 0 of the page's length.
    #[inline]
    pub fn covers_page(&self, page_len: usize) -> bool {
        matches!(self.spans.as_slice(), [s] if s.offset == 0 && s.len as usize == page_len)
    }

    /// Append a run to the diff (spans must arrive in increasing offset
    /// order and never touch — callers produce maximal runs).  Only the
    /// packed representation grows incrementally.
    fn push_run(&mut self, offset: u32, bytes: &[u8]) {
        debug_assert!(!bytes.is_empty());
        debug_assert!(self.spans.last().map_or(true, |s| s.end() < offset));
        self.spans.push(RunSpan {
            offset,
            len: bytes.len() as u32,
        });
        match &mut self.payload {
            Payload::Packed(payload) => payload.extend_from_slice(bytes),
            Payload::Page(_) => unreachable!("page-backed diffs are built whole"),
        }
    }

    /// Iterate over the runs as `(page byte offset, payload bytes)` pairs.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            spans: self.spans.iter(),
            payload: &self.payload,
            cursor: 0,
        }
    }

    /// The run span table (offsets and lengths, no payload).
    #[inline]
    pub fn spans(&self) -> &[RunSpan] {
        &self.spans
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
        self.spans.is_empty()
    }

    /// Number of payload bytes (modified word contents only).  Identical
    /// for both representations: a page-backed diff's payload is the sum of
    /// its span lengths, exactly the bytes a packed copy would hold.
    #[inline]
    pub fn payload_bytes(&self) -> u64 {
        match &self.payload {
            Payload::Packed(payload) => payload.len() as u64,
            Payload::Page(_) => self.spans.iter().map(|s| s.len as u64).sum(),
        }
    }

    /// Size of the diff as it would travel on the wire: payload plus the
    /// per-run and per-diff headers of the TreadMarks encoding.
    pub fn wire_bytes(&self) -> u64 {
        DIFF_HEADER_BYTES + self.spans.len() as u64 * RUN_HEADER_BYTES + self.payload_bytes()
    }

    /// Call `paint(offset, bytes)` for each maximal interval of the words
    /// this diff writes that `cover` (one bit per page word) lacks, with
    /// the bytes the diff writes there, adding them to `cover`, and return
    /// how many words there were.  Walking diffs newest first over one
    /// cover is the "reverse painter" of [`merge`](Self::merge) and
    /// `LocalPage::deliver`: each diff lands only where no newer one
    /// writes, so the work is the union of the payloads, not their sum.
    /// (`paint` is a `dyn` callback: a painter inlined into the cover walk
    /// measured slower on the delivery-heavy Jacobi sweep.)
    pub(crate) fn for_each_uncovered(
        &self,
        cover: &mut [u64],
        paint: &mut dyn FnMut(usize, &[u8]),
    ) -> usize {
        let (payload, packed) = match &self.payload {
            Payload::Packed(bytes) => (&bytes[..], true),
            Payload::Page(image) => (&image[..], false),
        };
        // Where the current span's bytes start in a packed payload.
        let mut cursor = 0;
        let mut covered = 0;
        for s in &self.spans {
            let (offset, start) = (
                s.offset as usize,
                if packed { cursor } else { s.offset as usize },
            );
            covered += subtract_cover(s.offset, s.len as usize, cover, |lo, hi| {
                let from = start + (lo as usize - offset);
                paint(lo as usize, &payload[from..from + (hi - lo) as usize]);
            });
            cursor += s.len as usize;
        }
        covered
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
        let end = chain
            .iter()
            .flat_map(|d| d.spans.iter())
            .map(|s| s.end() as usize)
            .max()
            .unwrap_or(0);
        let mut cover = vec![0u64; (end / WORD_SIZE).div_ceil(64)];
        let mut buf = vec![0u8; end];
        for diff in chain.iter().rev() {
            debug_assert_eq!(diff.page, page);
            diff.for_each_uncovered(&mut cover, &mut |lo, bytes| {
                buf[lo..lo + bytes.len()].copy_from_slice(bytes)
            });
        }
        let mut merged = Diff::empty(page);
        spans_from_bits_into(&cover, &mut merged.spans);
        pack_payload_into(&merged.spans, &buf, packed(&mut merged.payload));
        merged
    }
}

/// Iterator over a diff's `(page byte offset, payload bytes)` runs,
/// representation-blind: packed payloads are walked with a cursor, shared
/// page images are sliced at the span offsets.
pub struct Runs<'a> {
    spans: std::slice::Iter<'a, RunSpan>,
    payload: &'a Payload,
    cursor: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = (u32, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.spans.next()?;
        let bytes = match self.payload {
            Payload::Packed(payload) => {
                let lo = self.cursor;
                self.cursor += s.len as usize;
                &payload[lo..lo + s.len as usize]
            }
            Payload::Page(image) => &image[s.offset as usize..s.end() as usize],
        };
        Some((s.offset, bytes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl ExactSizeIterator for Runs<'_> {}

/// Call `paint(lo, hi)` for each byte interval of the words of run
/// `[offset, offset + len)` whose bits are not yet set in the word-cover
/// bitset `cov`, setting them as it goes, and return how many words that
/// was.  The bit kernel of [`Diff::for_each_uncovered`].
fn subtract_cover(offset: u32, len: usize, cov: &mut [u64], paint: impl FnMut(u32, u32)) -> usize {
    if len == 0 {
        return 0;
    }
    let mut new_words = 0usize;
    let w0 = offset as usize / WORD_SIZE;
    let w1 = w0 + len / WORD_SIZE; // exclusive
    let (first_b, last_b) = (w0 / 64, (w1 - 1) / 64);
    let fresh = (first_b..=last_b).map(|b| {
        let lo = if b == first_b { w0 % 64 } else { 0 };
        let hi = if b == last_b { (w1 - 1) % 64 } else { 63 };
        let mask = (!0u64 >> (63 - (hi - lo))) << lo;
        let fresh = mask & !cov[b];
        cov[b] |= mask;
        new_words += fresh.count_ones() as usize;
        (b, fresh)
    });
    for_each_bit_run(fresh, paint);
    new_words
}

/// Call `f(lo, hi)` for each maximal byte interval of set-bit words in
/// `blocks`, `(block index, 64 word bits)` pairs in ascending block order.
/// A run that crosses a block boundary arrives whole, so the intervals are
/// exactly what a word-by-word scan of the same set would find.
fn for_each_bit_run(blocks: impl Iterator<Item = (usize, u64)>, mut f: impl FnMut(u32, u32)) {
    // The run found last, reported once the next one does not extend it.
    let mut open: Option<(u32, u32)> = None;
    for (b, mut m) in blocks {
        while m != 0 {
            let start = m.trailing_zeros();
            let len = (m >> start).trailing_ones();
            let from = ((b * 64 + start as usize) * WORD_SIZE) as u32;
            let to = from + len * WORD_SIZE as u32;
            match &mut open {
                Some((_, end)) if *end == from => *end = to,
                _ => {
                    if let Some((lo, hi)) = open.replace((from, to)) {
                        f(lo, hi);
                    }
                }
            }
            if start + len >= 64 {
                break;
            }
            m &= !(((1u64 << len) - 1) << start);
        }
    }
    if let Some((lo, hi)) = open {
        f(lo, hi);
    }
}

/// The maximal runs of set-bit words of `bits` as a span table, written
/// into a recycled buffer (cleared first, then reserved to the run count in
/// one step: a run starts at each set bit whose lower neighbour is clear).
fn spans_from_bits_into(bits: &[u64], spans: &mut Vec<RunSpan>) {
    spans.clear();
    let mut below = 0;
    let runs: u32 = bits
        .iter()
        .map(|&m| {
            let starts = m & !(m << 1 | below);
            below = m >> 63;
            starts.count_ones()
        })
        .sum();
    spans.reserve(runs as usize);
    for_each_bit_run(bits.iter().copied().enumerate(), |offset, end| {
        spans.push(RunSpan {
            offset,
            len: end - offset,
        })
    });
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

/// Copy the spans' bytes out of `source` (indexed by page offset) into one
/// packed payload buffer, a recycled one (cleared, then reserved to the
/// payload's final size in one step).
fn pack_payload_into(spans: &[RunSpan], source: &[u8], payload: &mut Vec<u8>) {
    let total: usize = spans.iter().map(|s| s.len as usize).sum();
    payload.clear();
    payload.reserve(total);
    for s in spans {
        let run = &source[s.offset as usize..s.end() as usize];
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
        assert_eq!(d.spans().len(), 1);
        assert_eq!(d.spans()[0].offset, 8);
        assert_eq!(d.spans()[0].len as usize, WORD_SIZE);
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
        assert_eq!(d.spans().len(), 1);
        assert_eq!(d.spans()[0].offset, 16);
        assert_eq!(d.spans()[0].len, 16);
    }

    #[test]
    fn disjoint_changes_produce_separate_runs() {
        let twin = vec![0u8; 128];
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[64] = 2;
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.spans().len(), 2);
        assert_eq!(d.spans()[0].offset, 0);
        assert_eq!(d.spans()[1].offset, 64);
    }

    #[test]
    fn whole_page_change_is_one_full_run() {
        let twin = vec![0u8; 256];
        let cur = vec![0xFFu8; 256];
        let d = Diff::create(PageId(0), &twin, &cur);
        assert_eq!(d.spans().len(), 1);
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
        let mut changed = vec![0u64; 4];
        for w in [0usize, 1, 62, 63, 64, 120, 255] {
            changed[w / 64] |= 1 << (w % 64);
        }
        let image = Image::zeroed(1024).filled(&cur);
        let mut d = Diff::empty(PageId(0));
        d.rebuild_from_changed(PageId(2), &image, &changed);
        assert_eq!(d, Diff::create(PageId(2), &twin, &cur));
    }

    #[test]
    #[should_panic(expected = "shorter than page")]
    fn short_dirty_bitset_panics() {
        let image = Image::zeroed(512);
        Diff::empty(PageId(0)).rebuild_from_changed(PageId(0), &image, &[0u64; 1]);
    }

    #[test]
    fn clearing_a_diff_lets_go_of_its_image() {
        let zero = Image::zeroed(64);
        let image = zero.filled(&[7; 64]);
        let at = image.as_ptr();
        let mut diff = Diff::empty(PageId(0));
        diff.rebuild_from_changed(PageId(0), &image, &[(1 << 16) - 1]);
        assert!(diff.whole_page_shared_image().is_some());
        drop(image);
        diff.clear();
        assert!(diff.is_empty() && diff.whole_page_shared_image().is_none());
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
    }
}
