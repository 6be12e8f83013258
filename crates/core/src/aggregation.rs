//! The paper's dynamic aggregation algorithm (§4).
//!
//! Each processor monitors which pages it faulted on during the current
//! interval.  At every synchronization operation the pages faulted on since
//! the previous synchronization are grouped — in fault order, up to a maximum
//! group size, and *not necessarily contiguously* — into *page groups*.  When
//! the processor later faults on any member of a group, the diffs of **all**
//! pages of the group are requested at once (requests to the same responder
//! are combined), but every page other than the faulting one stays invalid
//! until its own first access so that changes in the access pattern keep
//! being observed.

use crate::fasthash::FastHashMap;
use tm_page::PageId;

/// Per-processor state of the dynamic aggregation algorithm.
#[derive(Debug, Clone)]
pub struct DynamicAggregator {
    max_group: usize,
    /// The faults of the last synchronization interval that had any, in
    /// first-fault order: its `max_group`-page chunks are the page groups,
    /// except a chunk of one page, which is no group.
    order: Vec<PageId>,
    /// Page → index of its chunk of `order`, for the pages of a group.
    /// Deterministically hashed (the workspace lint forbids `RandomState`
    /// maps in simulation crates), though only ever probed, never iterated.
    page_to_group: FastHashMap<PageId, usize>,
    /// Pages faulted on during the current interval, in first-fault order.
    faulted: Vec<PageId>,
    /// Membership set for `faulted` (cheap duplicate suppression).
    faulted_set: FastHashMap<PageId, ()>,
}

impl DynamicAggregator {
    /// Create an aggregator with the given maximum pages per group.
    pub fn new(max_group_pages: u32) -> Self {
        DynamicAggregator {
            max_group: max_group_pages.max(1) as usize,
            order: Vec::new(),
            page_to_group: FastHashMap::default(),
            faulted: Vec::new(),
            faulted_set: FastHashMap::default(),
        }
    }

    /// Record that the processor faulted on `page` during the current
    /// interval (called from the fault handler).
    pub fn note_fault(&mut self, page: PageId) {
        if self.faulted_set.insert(page, ()).is_none() {
            self.faulted.push(page);
        }
    }

    /// Rebuild the page groups from the faults observed since the previous
    /// synchronization.  Called at every synchronization operation.
    ///
    /// Pages faulted on consecutively end up in the same group — exactly the
    /// "pages accessed together before the synchronization" heuristic of the
    /// paper — and the groups are rebuilt from scratch, which is what makes
    /// the scheme adapt (with one interval of hysteresis) when the access
    /// pattern changes.  The fault list becomes the group list and the two
    /// buffers trade places, so a rebuild allocates nothing once both grew.
    ///
    /// A synchronization interval during which the processor faulted on
    /// nothing teaches the algorithm nothing, so the existing groups are kept
    /// (otherwise programs with several synchronizations per computation
    /// phase would never accumulate a group).
    pub fn rebuild_groups(&mut self) {
        if self.faulted.is_empty() {
            return;
        }
        std::mem::swap(&mut self.order, &mut self.faulted);
        self.faulted.clear();
        self.faulted_set.clear();
        self.page_to_group.clear();
        for (g, chunk) in self.order.chunks(self.max_group).enumerate() {
            // Singleton groups carry no aggregation benefit; skip them so the
            // fast path (no group) stays cheap.
            if chunk.len() > 1 {
                for &p in chunk {
                    self.page_to_group.insert(p, g);
                }
            }
        }
    }

    /// Every member of `page`'s group, `page` included, in fault order
    /// (empty if the page is ungrouped).
    pub fn group_of(&self, page: PageId) -> &[PageId] {
        self.page_to_group
            .get(&page)
            .and_then(|&g| self.order.chunks(self.max_group).nth(g))
            .unwrap_or(&[])
    }

    /// Current number of (non-singleton) groups.
    pub fn group_count(&self) -> usize {
        self.order
            .chunks(self.max_group)
            .filter(|chunk| chunk.len() > 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(ids: &[u32]) -> Vec<PageId> {
        ids.iter().map(|&i| PageId(i)).collect()
    }

    #[test]
    fn groups_form_from_fault_order_and_need_not_be_contiguous() {
        let mut agg = DynamicAggregator::new(4);
        for &p in &[10u32, 3, 77, 5, 6] {
            agg.note_fault(PageId(p));
        }
        agg.rebuild_groups();
        // First chunk of four (10,3,77,5); the trailing singleton (6) is not
        // grouped.
        assert_eq!(agg.group_count(), 1);
        assert_eq!(agg.group_of(PageId(3)), pages(&[10, 3, 77, 5]));
        assert!(agg.group_of(PageId(6)).is_empty());
    }

    #[test]
    fn duplicate_faults_are_recorded_once() {
        let mut agg = DynamicAggregator::new(8);
        agg.note_fault(PageId(1));
        agg.note_fault(PageId(1));
        agg.note_fault(PageId(2));
        agg.rebuild_groups();
        assert_eq!(agg.group_of(PageId(1)), pages(&[1, 2]));
    }

    #[test]
    fn rebuild_replaces_previous_groups() {
        let mut agg = DynamicAggregator::new(4);
        agg.note_fault(PageId(1));
        agg.note_fault(PageId(2));
        agg.rebuild_groups();
        assert_eq!(agg.group_of(PageId(1)), pages(&[1, 2]));

        // Next interval the processor touches different pages: the old
        // grouping disappears (this is the paper's adaptation-with-hysteresis
        // behaviour).
        agg.note_fault(PageId(9));
        agg.rebuild_groups();
        assert!(agg.group_of(PageId(1)).is_empty());
        assert!(agg.group_of(PageId(9)).is_empty()); // singleton
    }

    #[test]
    fn groups_respect_max_size() {
        let mut agg = DynamicAggregator::new(2);
        for p in 0..5u32 {
            agg.note_fault(PageId(p));
        }
        agg.rebuild_groups();
        // 5 pages, max 2 per group -> groups {0,1}, {2,3}, singleton 4.
        assert_eq!(agg.group_count(), 2);
        assert_eq!(agg.group_of(PageId(0)), pages(&[0, 1]));
        assert_eq!(agg.group_of(PageId(3)), pages(&[2, 3]));
        assert!(agg.group_of(PageId(4)).is_empty());
    }

    #[test]
    fn a_faultless_interval_keeps_the_groups_and_only_chunks_of_two_count() {
        let mut agg = DynamicAggregator::new(3);
        for &p in &[4u32, 8, 15, 16, 23, 42, 7] {
            agg.note_fault(PageId(p));
        }
        agg.rebuild_groups();
        // Chunks {4,8,15}, {16,23,42} and the trailing singleton {7}.
        assert_eq!(agg.group_count(), 2);
        assert_eq!(agg.group_of(PageId(42)), pages(&[16, 23, 42]));
        assert!(agg.group_of(PageId(7)).is_empty());

        // An interval without a fault teaches nothing: the groups stay.
        agg.rebuild_groups();
        assert_eq!(agg.group_count(), 2);
        assert_eq!(agg.group_of(PageId(4)), pages(&[4, 8, 15]));

        // One page per group makes every chunk a singleton: no group.
        let mut single = DynamicAggregator::new(1);
        single.note_fault(PageId(1));
        single.note_fault(PageId(2));
        single.rebuild_groups();
        assert_eq!(single.group_count(), 0);
        assert!(single.group_of(PageId(1)).is_empty());
    }

    #[test]
    fn no_faults_means_no_groups() {
        let mut agg = DynamicAggregator::new(4);
        agg.rebuild_groups();
        assert_eq!(agg.group_count(), 0);
        assert!(agg.group_of(PageId(0)).is_empty());
    }
}
