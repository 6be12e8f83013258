//! # tm-page — paged shared-memory substrate
//!
//! This crate provides the memory substrate underneath the `tdsm-core`
//! software DSM, reproducing the mechanisms TreadMarks builds on top of the
//! operating system's virtual memory:
//!
//! * a paged **global address space** ([`PageLayout`], [`GlobalAddr`],
//!   [`PageId`]),
//! * per-processor **local copies** of the shared pages ([`PageStore`],
//!   [`LocalPage`]),
//! * **twinning and diffing** — the multiple-writer protocol's write
//!   detection ([`Diff`], [`RunSpan`]),
//! * **home copies** — the authoritative per-page master copies of the
//!   home-based single-writer protocol, kept current by applying flushed
//!   diffs in place without twinning ([`HomeStore`]),
//! * a shared-region **bump allocator** ([`RegionAllocator`]), and
//! * the per-word **delivery attribution** used by the paper's
//!   instrumentation to classify delivered data as *useful* (read before
//!   overwritten) or *useless*.
//!
//! The crate knows nothing about consistency models, synchronization, or the
//! network; those live in `tdsm-core` and `tm-net`.
//!
//! ## Quick example
//!
//! ```
//! use tm_page::{Align, Diff, PageId, PageLayout, RegionAllocator};
//!
//! // Carve a 4-page shared space and place an allocation on a fresh page.
//! let layout = PageLayout::new(4096, 4);
//! let mut alloc = RegionAllocator::new(layout);
//! let addr = alloc.alloc(128, Align::Page).unwrap();
//! assert_eq!(layout.page_of(addr), PageId(0));
//!
//! // Twin/diff: record exactly the words an interval modified.
//! let twin = vec![0u8; 4096];
//! let mut current = twin.clone();
//! current[64..72].copy_from_slice(&[7; 8]);
//! let diff = Diff::create(PageId(0), &twin, &current);
//! assert_eq!(diff.payload_bytes(), 8);
//!
//! // Applying the diff onto the twin reconstructs the modified page — the
//! // multiple-writer protocol's fundamental invariant.
//! let mut rebuilt = twin.clone();
//! diff.apply(&mut rebuilt);
//! assert_eq!(rebuilt, current);
//! ```

// The two foundational crates (tdsm-core, tm-page) hard-enforce rustdoc
// coverage; the doc build itself is kept warning-clean by CI
// (RUSTDOCFLAGS="-D warnings").
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod diff;
pub mod home;
pub mod layout;
pub mod page;

pub use alloc::{Align, OutOfSharedMemory, RegionAllocator};
pub use diff::{subtract_cover, Diff, RunSpan, DIFF_HEADER_BYTES, RUN_HEADER_BYTES};
pub use home::HomeStore;
pub use layout::{GlobalAddr, PageId, PageLayout, WORD_SIZE};
pub use page::{LocalPage, PageStore, NO_EXCHANGE};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn word_aligned_page() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 64..=256).prop_map(|mut v| {
            let len = v.len() / WORD_SIZE * WORD_SIZE;
            v.truncate(len.max(WORD_SIZE));
            v
        })
    }

    proptest! {
        // Bounded so the whole-workspace test run stays fast in CI; raise
        // locally with PROPTEST_CASES for deeper sweeps.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Applying the diff of (twin, current) onto a copy of the twin must
        /// reconstruct `current` exactly — the fundamental multiple-writer
        /// protocol invariant.
        #[test]
        fn diff_roundtrip(twin in word_aligned_page(), seed in any::<u64>()) {
            let mut current = twin.clone();
            // Mutate a pseudo-random subset of bytes.
            let mut state = seed | 1;
            for (i, b) in current.iter_mut().enumerate() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if state % 3 == 0 {
                    *b = (state >> 32) as u8 ^ (i as u8);
                }
            }
            let diff = Diff::create(PageId(0), &twin, &current);
            let mut rebuilt = twin.clone();
            diff.apply(&mut rebuilt);
            prop_assert_eq!(rebuilt, current);
        }

        /// A diff never carries more payload than the page size and its runs
        /// are sorted, disjoint, word-aligned and maximal.
        #[test]
        fn diff_runs_are_canonical(twin in word_aligned_page(), seed in any::<u64>()) {
            let mut current = twin.clone();
            let mut state = seed | 1;
            for b in current.iter_mut() {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                if state % 5 == 0 {
                    *b = (state >> 24) as u8;
                }
            }
            let diff = Diff::create(PageId(0), &twin, &current);
            prop_assert!(diff.payload_bytes() as usize <= twin.len());
            let mut prev_end: Option<usize> = None;
            for (offset, bytes) in diff.runs() {
                prop_assert_eq!(offset as usize % WORD_SIZE, 0);
                prop_assert_eq!(bytes.len() % WORD_SIZE, 0);
                prop_assert!(!bytes.is_empty());
                if let Some(end) = prev_end {
                    // Maximality: adjacent runs would have been merged.
                    prop_assert!(offset as usize > end);
                }
                prev_end = Some(offset as usize + bytes.len());
            }
        }

        /// Allocations from the bump allocator never overlap and respect
        /// their alignment.
        #[test]
        fn allocator_non_overlapping(sizes in prop::collection::vec(1u64..500, 1..20)) {
            let layout = PageLayout::new(4096, 64);
            let mut alloc = RegionAllocator::new(layout);
            let mut regions: Vec<(u64, u64)> = Vec::new();
            for (i, sz) in sizes.iter().enumerate() {
                let align = match i % 3 {
                    0 => Align::Word,
                    1 => Align::Bytes(64),
                    _ => Align::Page,
                };
                let addr = alloc.alloc(*sz, align).unwrap();
                for &(b, e) in &regions {
                    prop_assert!(addr.0 >= e || addr.0 + sz <= b, "overlap");
                }
                regions.push((addr.0, addr.0 + sz));
            }
        }

        /// The virtual-twin write path (per-word pre-image tracking) must
        /// yield diffs bit-identical to an eager twin copy plus compare
        /// scan, under any sequence of overlapping, unaligned and
        /// value-restoring writes — including words whose original value is
        /// restored across several partial writes.
        #[test]
        fn tracked_writes_match_eager_twin_compare(
            seed in any::<u64>(),
            writes in prop::collection::vec(
                (0usize..256, prop::collection::vec(any::<u8>(), 1..40)),
                0..30,
            ),
        ) {
            let page_size = 256usize;
            let mut store = PageStore::new(PageLayout::new(page_size, 1));
            let p = store.page_mut(PageId(0));
            let mut state = seed | 1;
            let init: Vec<u8> = (0..page_size)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) as u8 ^ i as u8
                })
                .collect();
            p.write_bytes(0, &init);
            p.ensure_twin();
            let twin = p.bytes().to_vec();
            let mut reference = twin.clone();
            for (off0, data) in &writes {
                let len = data.len().min(page_size);
                let off = (*off0).min(page_size - len);
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                // A third of the writes restore the pre-interval bytes, so
                // the exact-tracking bit-clearing path is exercised.
                let src: Vec<u8> = if state % 3 == 0 {
                    twin[off..off + len].to_vec()
                } else {
                    data[..len].to_vec()
                };
                p.write_bytes(off, &src);
                reference[off..off + len].copy_from_slice(&src);
            }
            prop_assert_eq!(p.bytes(), &reference[..]);
            let tracked = p.make_diff(PageId(0)).unwrap();
            let eager = Diff::create(PageId(0), &twin, &reference);
            prop_assert_eq!(tracked, eager);
        }

        /// Snapshot-sharing payloads are byte-identical to eager owned
        /// payloads under interleaved writes, publishes and GC retirement.
        /// Each simulated interval publishes its diff twice — once through
        /// the copy-on-next-write path ([`LocalPage::make_diff`], which may
        /// borrow the page image) and once eagerly from a twin copy
        /// ([`Diff::create`]) — and both must encode the same runs, apply to
        /// the same bytes, and deliver identically through the whole-page
        /// adoption, deferred-park and recycled-buffer paths.  Published
        /// diffs are retired (dropped) pseudo-randomly between intervals so
        /// the owning page flips between shared and uniquely-owned images,
        /// exercising the detach ("copy" of copy-on-next-write) and the
        /// free exact pre-image it enables.
        #[test]
        fn snapshot_sharing_matches_eager_payloads(
            seed in any::<u64>(),
            intervals in prop::collection::vec(
                prop::collection::vec(
                    (0usize..4096, prop::collection::vec(any::<u8>(), 1..96)),
                    1..6,
                ),
                1..8,
            ),
        ) {
            use std::sync::Arc;

            let page_size = 4096usize;
            let mut writer = LocalPage::new_zeroed(page_size);
            let mut receiver = LocalPage::new_zeroed(page_size);
            let mut mirror = vec![0u8; page_size];
            let mut state = seed | 1;
            let init: Vec<u8> = (0..page_size)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) as u8 ^ i as u8
                })
                .collect();
            writer.write_bytes(0, &init);
            receiver.write_bytes(0, &init);
            mirror.copy_from_slice(&init);

            // Simulated interval log: published diffs stay alive (pinning
            // the writer's image) until "GC" drops them below.
            let mut log: Vec<Arc<Diff>> = Vec::new();
            let mut pool: Vec<(Vec<RunSpan>, Vec<u8>)> = Vec::new();
            let mut scratch = vec![0u8; page_size];
            // Deliberately dirty fold scratch: its contents must not matter.
            let (mut cov, mut visible) = (vec![!0u64; 3], vec![(4u32, 8u32)]);

            for (k, writes) in intervals.iter().enumerate() {
                let twin = writer.bytes().to_vec();
                writer.ensure_twin();
                for (off0, data) in writes {
                    // Occasionally blast the whole page so dense diffs (the
                    // ones that actually share the image) occur often.
                    state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    if state % 4 == 0 {
                        for (i, b) in scratch.iter_mut().enumerate() {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            *b = (state >> 25) as u8 ^ i as u8;
                        }
                        writer.write_bytes(0, &scratch);
                    } else {
                        let len = data.len().min(page_size);
                        let off = (*off0).min(page_size - len);
                        writer.write_bytes(off, &data[..len]);
                    }
                }

                let eager = Diff::create(PageId(0), &twin, writer.bytes());
                if let Some(shared) = writer.make_diff(PageId(0)) {
                    prop_assert_eq!(&shared, &eager);
                    // Recycled span/payload buffers change nothing.
                    let (spans, packed) = pool.pop().unwrap_or_default();
                    let recycled = writer.make_diff_in(PageId(0), spans, packed).unwrap();
                    prop_assert_eq!(&recycled, &eager);
                    pool.push(recycled.into_buffers());

                    // Delivery: alternate the eager and the parked
                    // (deferred) apply paths; both must land the receiver on
                    // the mirror that eager application produces.
                    eager.apply(&mut mirror);
                    let shared = Arc::new(shared);
                    if k % 2 == 0 {
                        receiver.apply_diff(&shared, NO_EXCHANGE);
                    } else {
                        receiver.apply_diff_deferred(&shared, NO_EXCHANGE, &mut cov, &mut visible);
                        // Force materialization (bytes() asserts no parked
                        // content) through the read path.
                        receiver.read_bytes(0, &mut scratch, |_, _| {});
                        prop_assert_eq!(&scratch[..], &mirror[..]);
                    }
                    prop_assert_eq!(receiver.bytes(), &mirror[..]);
                    log.push(shared);
                } else {
                    prop_assert!(eager.is_empty());
                }
                writer.drop_twin();

                // GC: retire a pseudo-random prefix of the published diffs,
                // salvaging their buffers exactly as the interval log does.
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let keep = (state % (log.len() as u64 + 1)) as usize;
                for retired in log.drain(..log.len() - keep) {
                    if let Ok(diff) = Arc::try_unwrap(retired) {
                        pool.push(diff.into_buffers());
                    }
                }
            }
            // Final contents agree across all three representations.
            prop_assert_eq!(writer.bytes(), &mirror[..]);
            prop_assert_eq!(receiver.bytes(), &mirror[..]);
        }

        /// PageStore write/read roundtrip at arbitrary (addr, len).
        #[test]
        fn store_roundtrip(offset in 0u64..7000, data in prop::collection::vec(any::<u8>(), 1..600)) {
            let layout = PageLayout::new(4096, 4);
            prop_assume!(offset + data.len() as u64 <= layout.total_bytes());
            let mut store = PageStore::new(layout);
            store.write(GlobalAddr(offset), &data);
            let mut out = vec![0u8; data.len()];
            store.read(GlobalAddr(offset), &mut out, |_, _| {});
            prop_assert_eq!(out, data);
        }
    }
}
