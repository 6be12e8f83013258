//! Message taxonomy and exchange records.
//!
//! The simulated cluster does not serialize real packets; instead every
//! protocol interaction is *accounted*: which kind of message, how many bytes
//! on the wire, and — for diff traffic — how much of the delivered payload
//! turned out to be useful.  These records are the raw material for the
//! paper's useful/useless breakdowns.

/// Identifier of a DSM processor (0-based rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Rank as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Kinds of messages the TreadMarks-style protocol sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Page-fault request for the diffs of one or more pages (one per
    /// concurrent writer contacted).
    DiffRequest,
    /// Reply carrying the requested diffs.
    DiffReply,
    /// Lock acquire request sent to the lock's statically assigned manager.
    LockRequest,
    /// Manager forwarding the request to the last holder.
    LockForward,
    /// Grant from the last holder, carrying the write notices the acquirer
    /// has not yet seen.
    LockGrant,
    /// Barrier arrival, carrying the client's new write notices to the
    /// barrier manager.
    BarrierArrive,
    /// Barrier departure, carrying the union of write notices back.
    BarrierDepart,
    /// Home-based protocol only: a writer eagerly flushing the diffs of its
    /// closed interval to the pages' home processors (one message per home
    /// contacted per interval close).  Page-fault traffic in that protocol
    /// reuses the request/reply exchange shape with whole-page payloads.
    HomeUpdate,
}

impl MsgKind {
    /// True for the message kinds that carry page data (diff payload).
    pub fn carries_data(self) -> bool {
        matches!(self, MsgKind::DiffReply | MsgKind::HomeUpdate)
    }
}

/// Fixed wire overhead charged per message (UDP/IP + TreadMarks headers).
pub const MSG_HEADER_BYTES: u64 = 42;

/// One request/reply *diff exchange* between a faulting processor and one
/// concurrent writer.  The exchange is the unit the paper classifies as a
/// useful or useless message pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffExchange {
    /// Requester-local exchange id; also used as the delivery-attribution tag
    /// in the requester's page store.
    pub id: u32,
    /// Processor that served the diffs.
    pub responder: ProcId,
    /// Pages whose diffs were requested in this exchange.
    pub pages_requested: u32,
    /// Diffs carried in the reply.
    pub diffs_carried: u32,
    /// Wire bytes of the request message.
    pub request_bytes: u64,
    /// Wire bytes of the reply message (headers + encoded diffs).
    pub reply_bytes: u64,
    /// Diff payload bytes delivered (modified-word contents only).
    pub delivered_payload: u64,
    /// Of the delivered payload, bytes that were read before being
    /// overwritten (credited lazily as the application reads).
    pub useful_payload: u64,
}

impl DiffExchange {
    /// An exchange is *useful* if it delivered at least one word that the
    /// application later read before overwriting; otherwise the whole
    /// request/reply pair is a useless message exchange.
    pub fn is_useful(&self) -> bool {
        self.useful_payload > 0
    }

    /// Payload bytes that were never read before being overwritten (or never
    /// read at all) — the paper's useless data.
    pub fn useless_payload(&self) -> u64 {
        self.delivered_payload - self.useful_payload
    }

    /// Total wire bytes of the exchange (request plus reply).
    pub fn wire_bytes(&self) -> u64 {
        self.request_bytes + self.reply_bytes
    }
}

/// The record of one page/consistency-unit fault, used to build the
/// false-sharing signature (Figure 3 of the paper).
#[derive(Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Number of concurrent writers the faulting processor had to contact
    /// (the number of diff exchanges issued by this fault).
    pub concurrent_writers: u32,
    /// Requester-local ids of the exchanges issued by this fault: one
    /// fault's exchanges are logged consecutively, so they are a range of
    /// indices into the per-processor exchange log.
    pub exchange_ids: std::ops::Range<u32>,
    /// Number of hardware pages validated by this fault (1 for the plain
    /// page protocol, more under static or dynamic aggregation).
    pub pages_validated: u32,
}

/// Renders `exchange_ids` as the list of ids it stands for: the statistics
/// digests pinned in `tests/schedule_golden.rs` hash this text, and what they
/// pin is the ids, not how the record stores them.
impl std::fmt::Debug for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRecord")
            .field("concurrent_writers", &self.concurrent_writers)
            .field("exchange_ids", &Vec::from_iter(self.exchange_ids.clone()))
            .field("pages_validated", &self.pages_validated)
            .finish()
    }
}

/// A control message (lock or barrier traffic) — accounted but never
/// classified as useless: synchronization traffic is always necessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlMsg {
    /// What kind of control message.
    pub kind: MsgKind,
    /// Wire bytes (header plus any piggybacked write notices).
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_usefulness() {
        let mut e = DiffExchange {
            id: 0,
            responder: ProcId(1),
            pages_requested: 1,
            diffs_carried: 1,
            request_bytes: MSG_HEADER_BYTES,
            reply_bytes: MSG_HEADER_BYTES + 128,
            delivered_payload: 128,
            useful_payload: 0,
        };
        assert!(!e.is_useful());
        assert_eq!(e.useless_payload(), 128);
        e.useful_payload = 4;
        assert!(e.is_useful());
        assert_eq!(e.useless_payload(), 124);
        assert_eq!(e.wire_bytes(), 2 * MSG_HEADER_BYTES + 128);
    }

    #[test]
    fn only_diff_replies_and_home_updates_carry_data() {
        assert!(MsgKind::DiffReply.carries_data());
        assert!(MsgKind::HomeUpdate.carries_data());
        assert!(!MsgKind::DiffRequest.carries_data());
        assert!(!MsgKind::LockGrant.carries_data());
        assert!(!MsgKind::BarrierDepart.carries_data());
    }

    #[test]
    fn proc_id_display_and_index() {
        assert_eq!(ProcId(3).to_string(), "P3");
        assert_eq!(ProcId(3).index(), 3);
    }
}
