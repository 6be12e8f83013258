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
    /// Current page groups (rebuilt at every synchronization).
    groups: Vec<Vec<PageId>>,
    /// Page → index into `groups`.  Deterministically hashed (the workspace
    /// lint forbids `RandomState` maps in simulation crates), though only
    /// ever probed, never iterated.
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
            groups: Vec::new(),
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
    /// paper — and the group list is rebuilt from scratch, which is what
    /// makes the scheme adapt (with one interval of hysteresis) when the
    /// access pattern changes.
    ///
    /// A synchronization interval during which the processor faulted on
    /// nothing teaches the algorithm nothing, so the existing groups are kept
    /// (otherwise programs with several synchronizations per computation
    /// phase would never accumulate a group).
    pub fn rebuild_groups(&mut self) {
        if self.faulted.is_empty() {
            return;
        }
        self.groups.clear();
        self.page_to_group.clear();
        for chunk in self.faulted.chunks(self.max_group) {
            // Singleton groups carry no aggregation benefit; skip them so the
            // fast path (no group) stays cheap.
            if chunk.len() > 1 {
                let idx = self.groups.len();
                self.groups.push(chunk.to_vec());
                for &p in chunk {
                    self.page_to_group.insert(p, idx);
                }
            }
        }
        self.faulted.clear();
        self.faulted_set.clear();
    }

    /// Every member of `page`'s group, `page` included, in fault order
    /// (empty if the page is ungrouped).
    pub fn group_of(&self, page: PageId) -> &[PageId] {
        match self.page_to_group.get(&page) {
            Some(&g) => &self.groups[g],
            None => &[],
        }
    }

    /// Current number of (non-singleton) groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
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
    fn no_faults_means_no_groups() {
        let mut agg = DynamicAggregator::new(4);
        agg.rebuild_groups();
        assert_eq!(agg.group_count(), 0);
        assert!(agg.group_of(PageId(0)).is_empty());
    }
}
