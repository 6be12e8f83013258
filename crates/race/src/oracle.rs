//! The flat-memory oracle: every read of a race-free run checked against a
//! plain byte array, written in host order — no page, diff or interval in
//! sight.  Sound because one rank runs at a time: under DRF the latest write
//! in host order is the happens-before-latest one (DESIGN.md, "The
//! flat-memory check").

use crate::{AccessKind, Observer, RaceRecord, WORD_BYTES};

/// The shared space as written in host order, and the first read that
/// disagreed with it.
#[derive(Debug)]
pub struct FlatOracle {
    memory: Vec<u8>,
    /// Per word of `memory`, its last writer (`u32::MAX`: never written).
    writers: Vec<u32>,
    first: Option<Mismatch>,
}

/// A read that returned something other than the latest write in host order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The reading rank.
    pub rank: u32,
    /// Byte offset of the read in the shared space.
    pub offset: u64,
    /// What the flat memory holds there.
    pub expected: Vec<u8>,
    /// What the read returned.
    pub actual: Vec<u8>,
    /// Last writer of the first differing word (`None`: never written).
    pub writer: Option<u32>,
}

impl FlatOracle {
    /// An oracle over a zero-filled shared space of `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        FlatOracle {
            memory: vec![0; bytes],
            writers: vec![u32::MAX; bytes.div_ceil(WORD_BYTES)],
            first: None,
        }
    }

    /// The first divergent read, unless the run's race set `races` is not
    /// empty: lazy release consistency owes a racy run nothing.
    pub fn mismatch(&self, races: &[RaceRecord]) -> Option<&Mismatch> {
        self.first.as_ref().filter(|_| races.is_empty())
    }
}

impl Observer for FlatOracle {
    /// Apply every write; compare every read outside a benign-race scope.
    fn access(&mut self, rank: u32, offset: u64, bytes: &[u8], kind: AccessKind, benign: bool) {
        let at = offset as usize;
        let memory = &mut self.memory[at..at + bytes.len()];
        match kind {
            _ if bytes.is_empty() => {}
            AccessKind::Write => {
                memory.copy_from_slice(bytes);
                let words = at / WORD_BYTES..(at + bytes.len()).div_ceil(WORD_BYTES);
                self.writers[words].fill(rank);
            }
            AccessKind::Read if benign || memory == bytes || self.first.is_some() => {}
            AccessKind::Read => {
                let differs = memory.iter().zip(bytes).position(|(m, b)| m != b);
                let word = (at + differs.expect("unequal")) / WORD_BYTES;
                self.first = Some(Mismatch {
                    rank,
                    offset,
                    expected: memory.to_vec(),
                    actual: bytes.to_vec(),
                    writer: Some(self.writers[word]).filter(|&w| w != u32::MAX),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RaceDetector, SyncEvent};

    /// Rank 0 writes 1..=8 at byte 4 and releases lock 0; rank 1 (after
    /// acquiring it when `ordered`) reads the range back stale: its first
    /// word current, its second still zero.
    fn stale_read(ordered: bool) -> (RaceDetector, FlatOracle) {
        let mut run = (RaceDetector::new(2, 2, 8), FlatOracle::new(64));
        run.access(0, 4, &[1, 2, 3, 4, 5, 6, 7, 8], AccessKind::Write, false);
        if ordered {
            run.sync(0, SyncEvent::Release(0));
            run.sync(1, SyncEvent::Acquire(0));
        }
        run.access(1, 4, &[1, 2, 3, 4, 0, 0, 0, 0], AccessKind::Read, false);
        run
    }

    #[test]
    fn a_stale_read_of_a_race_free_run_is_reported() {
        let (mut detector, oracle) = stale_read(true);
        let races = detector.take_races();
        assert!(races.is_empty());
        let m = oracle.mismatch(&races).expect("the stale read is caught");
        assert_eq!((m.rank, m.offset, m.writer), (1, 4, Some(0)));
        assert_eq!(m.expected, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.actual, [1, 2, 3, 4, 0, 0, 0, 0]);
    }

    #[test]
    fn the_same_stale_read_is_discarded_once_a_race_is_recorded() {
        let (mut detector, oracle) = stale_read(false);
        let races = detector.take_races();
        assert!(!races.is_empty(), "unordered write and read race");
        assert_eq!(oracle.mismatch(&races), None);
        assert!(oracle.mismatch(&[]).is_some(), "the mismatch was seen");
    }

    #[test]
    fn benign_reads_are_not_compared_but_benign_writes_are_applied() {
        let mut oracle = FlatOracle::new(16);
        oracle.access(0, 0, &[9; 4], AccessKind::Write, true);
        oracle.access(1, 0, &[7; 4], AccessKind::Read, true);
        assert_eq!(oracle.mismatch(&[]), None);
        oracle.access(1, 0, &[9; 4], AccessKind::Read, false);
        assert_eq!(oracle.mismatch(&[]), None);
        oracle.access(1, 0, &[0; 4], AccessKind::Read, false);
        assert_eq!(oracle.mismatch(&[]).unwrap().writer, Some(0));
    }

    #[test]
    fn never_written_bytes_compare_against_zero() {
        let mut oracle = FlatOracle::new(16);
        oracle.access(0, 8, &[0; 8], AccessKind::Read, false);
        oracle.access(0, 3, &[], AccessKind::Write, false);
        assert_eq!(oracle.mismatch(&[]), None);
        oracle.access(0, 2, &[0, 5], AccessKind::Read, false);
        let m = oracle.mismatch(&[]).unwrap();
        assert_eq!(
            (m.offset, m.writer),
            (2, None),
            "an empty write writes nothing"
        );
        assert_eq!(m.expected, [0, 0]);
    }

    /// 32-byte pages for the detector; the oracle has none.  A read of bytes
    /// 28..36 is checked in full: the write to the second page's first word
    /// is what it misses.
    #[test]
    fn a_read_spanning_a_page_boundary_is_checked_across_it() {
        let mut run = (RaceDetector::new(2, 2, 8), FlatOracle::new(64));
        run.access(0, 28, &[1; 4], AccessKind::Write, false);
        run.access(1, 32, &[2; 4], AccessKind::Write, false);
        for event in [SyncEvent::BarrierArrive, SyncEvent::BarrierDepart] {
            run.sync(0, event);
            run.sync(1, event);
        }
        run.access(0, 28, &[1, 1, 1, 1, 2, 2, 2, 2], AccessKind::Read, false);
        assert_eq!(run.1.mismatch(&[]), None);
        run.access(0, 28, &[1, 1, 1, 1, 2, 2, 2, 0], AccessKind::Read, false);
        let (races, oracle) = (run.0.take_races(), run.1);
        let m = oracle.mismatch(&races).expect("race-free, and stale");
        assert_eq!((m.rank, m.offset, m.writer), (0, 28, Some(1)));
    }
}
