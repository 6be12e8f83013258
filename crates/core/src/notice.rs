//! A processor's pending write notices: one slab of `(writer, seq)` slots
//! with a FIFO list per page threaded through it.
//!
//! Under lazy release consistency every acquire and barrier hands a
//! processor the write notices it lacks; each is filed against the page it
//! names and stays pending until a fault on the page (or a GC validation
//! flush) fetches the diffs and clears the page's list.  The slab files a
//! notice without allocating: a cleared list's slots join the free list, and
//! only when that is empty does the slab grow, by one fixed block of
//! [`BLOCK`] slots.  It never grows by doubling — a reallocation copies
//! every slot, and an allocation count (the repo benchmark's `alloc_mib`)
//! charges its whole new size — so what a rank requests is one block per
//! [`BLOCK`] notices it ever has pending at once, and the table of blocks.

use tm_page::PageId;

/// Slots per block of the slab.
const BLOCK: usize = 64;

/// End of a list (an empty list's head and tail, a last slot's `next`).
const NIL: u32 = u32::MAX;

/// The `writer` of a slot on the free list.  No rank has this id: a cluster
/// has at most [`crate::MAX_PROCS`] processors.
const FREE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    writer: u32,
    seq: u32,
    /// The next slot of the same page's list, or of the free list.
    next: u32,
}

/// One page's pending notices: the first and last slot of its list.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// The pending write notices of one processor, by page.
#[derive(Debug)]
pub(crate) struct NoticeSlab {
    /// One list per page of the shared space, notices in arrival order.
    lists: Vec<List>,
    /// Slot `i` is `blocks[i / BLOCK][i % BLOCK]`.
    blocks: Vec<Box<[Slot]>>,
    /// First slot of the free list.
    free: u32,
    /// Notices pending over all pages.
    len: usize,
}

impl NoticeSlab {
    /// An empty slab for a shared space of `pages` pages.  Allocates the
    /// list heads only; the first notice brings the first block.
    pub(crate) fn new(pages: usize) -> Self {
        NoticeSlab {
            lists: vec![List::EMPTY; pages],
            blocks: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    fn slot(&self, at: u32) -> &Slot {
        &self.blocks[at as usize / BLOCK][at as usize % BLOCK]
    }

    fn slot_mut(&mut self, at: u32) -> &mut Slot {
        &mut self.blocks[at as usize / BLOCK][at as usize % BLOCK]
    }

    /// Notices pending over all pages, in O(1): the GC validation flush's
    /// trigger.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `page` has no notice pending.
    pub(crate) fn is_clear(&self, page: PageId) -> bool {
        self.lists[page.index()].head == NIL
    }

    /// File the notice of interval `seq` of `writer` at the back of `page`'s
    /// list.
    pub(crate) fn push(&mut self, page: PageId, writer: u32, seq: u32) {
        debug_assert_ne!(writer, FREE, "a rank id collides with the free mark");
        if self.free == NIL {
            self.grow();
        }
        let at = self.free;
        let slot = self.slot_mut(at);
        let next_free = slot.next;
        *slot = Slot {
            writer,
            seq,
            next: NIL,
        };
        self.free = next_free;
        let list = self.lists[page.index()];
        if list.head == NIL {
            self.lists[page.index()].head = at;
        } else {
            self.slot_mut(list.tail).next = at;
        }
        self.lists[page.index()].tail = at;
        self.len += 1;
    }

    /// Add one block of slots, all on the free list (which is empty).
    fn grow(&mut self) {
        debug_assert_eq!(self.free, NIL, "the slab grows only when full");
        let base = (self.blocks.len() * BLOCK) as u32;
        let last = base + BLOCK as u32 - 1;
        let block = (base..=last)
            .map(|at| Slot {
                writer: FREE,
                seq: 0,
                next: if at == last { NIL } else { at + 1 },
            })
            .collect();
        self.blocks.push(block);
        self.free = base;
    }

    /// `page`'s pending notices as `(writer, seq)`, in arrival order.
    pub(crate) fn iter(&self, page: PageId) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut at = self.lists[page.index()].head;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let slot = self.slot(at);
                at = slot.next;
                (slot.writer, slot.seq)
            })
        })
    }

    /// Clear `page`'s list.  Its slots are marked free on the way (the walk
    /// the fetch that clears a page has already paid for once) and join the
    /// free list as one chain.
    pub(crate) fn clear(&mut self, page: PageId) {
        let list = std::mem::replace(&mut self.lists[page.index()], List::EMPTY);
        if list.head == NIL {
            return;
        }
        let mut at = list.head;
        while at != NIL {
            let slot = self.slot_mut(at);
            slot.writer = FREE;
            at = slot.next;
            self.len -= 1;
        }
        let free = self.free;
        self.slot_mut(list.tail).next = free;
        self.free = list.head;
    }

    /// Every pending notice as `(writer, seq)`, in slot order: a walk over
    /// the slab that skips free slots and stops after the last pending one,
    /// so it costs at most the slab's size — the most notices this processor
    /// ever had pending at once, rounded up to a block — never the number of
    /// pages or processors.
    pub(crate) fn live(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.blocks
            .iter()
            .flat_map(|block| block.iter())
            .filter(|slot| slot.writer != FREE)
            .map(|slot| (slot.writer, slot.seq))
            .take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Slots on the free list, counted by walking it.
    fn free_slots(slab: &NoticeSlab) -> usize {
        let mut at = slab.free;
        let mut n = 0;
        while at != NIL {
            assert_eq!(
                slab.slot(at).writer,
                FREE,
                "a free-listed slot is marked free"
            );
            at = slab.slot(at).next;
            n += 1;
        }
        n
    }

    #[test]
    fn a_new_slab_owns_no_block_and_a_cleared_list_is_reused_whole() {
        let mut slab = NoticeSlab::new(4);
        assert_eq!(
            (slab.blocks.len(), slab.len(), slab.live().count()),
            (0, 0, 0)
        );
        for seq in 1..=BLOCK as u32 {
            slab.push(PageId(seq % 4), 7, seq);
        }
        assert_eq!((slab.blocks.len(), free_slots(&slab)), (1, 0));
        slab.clear(PageId(1));
        assert!(slab.is_clear(PageId(1)));
        assert_eq!(free_slots(&slab), BLOCK / 4);
        for seq in 0..(BLOCK / 4) as u32 {
            slab.push(PageId(2), 9, 1000 + seq);
        }
        assert_eq!(slab.blocks.len(), 1, "freed slots come before a new block");
        slab.push(PageId(2), 9, 2000);
        assert_eq!(slab.blocks.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pushes and clears over a few pages agree with one
        /// `Vec<(writer, seq)>` per page: every page lists its notices in
        /// arrival order, `len` is their total, the live walk yields each
        /// pending notice once, and a block is only ever added while no
        /// freed slot is left.
        #[test]
        fn the_slab_files_notices_as_one_vec_per_page_would(
            pages in 1usize..12,
            ops in prop::collection::vec((0u8..8, 0usize..12, 0u32..1024, 1u32..64), 1..600),
        ) {
            let mut slab = NoticeSlab::new(pages);
            let mut reference: Vec<Vec<(u32, u32)>> = vec![Vec::new(); pages];
            for &(op, page, writer, seq) in &ops {
                let page = page % pages;
                if op == 0 {
                    slab.clear(PageId(page as u32));
                    reference[page].clear();
                } else {
                    let (blocks, free) = (slab.blocks.len(), free_slots(&slab));
                    slab.push(PageId(page as u32), writer, seq);
                    reference[page].push((writer, seq));
                    if slab.blocks.len() != blocks {
                        prop_assert!(free == 0, "a block added while {} slots were free", free);
                        prop_assert_eq!(slab.blocks.len(), blocks + 1);
                    }
                }
                let total: usize = reference.iter().map(Vec::len).sum();
                prop_assert_eq!(slab.len(), total);
                prop_assert_eq!(slab.blocks.len() * BLOCK, total + free_slots(&slab));
                for (page, want) in reference.iter().enumerate() {
                    let got: Vec<(u32, u32)> = slab.iter(PageId(page as u32)).collect();
                    prop_assert!(&got == want, "page {}: {:?}, want {:?}", page, got, want);
                    prop_assert_eq!(slab.is_clear(PageId(page as u32)), want.is_empty());
                }
                let mut live: Vec<(u32, u32)> = slab.live().collect();
                let mut want: Vec<(u32, u32)> = reference.concat();
                live.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(live, want);
            }
        }
    }
}
