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

/// Kinds of control messages the TreadMarks-style protocol sends.  (Diff
/// traffic is accounted per request/reply pair, as a [`DiffExchange`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
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
    /// Number of kinds (one past the last one): the length of a per-kind
    /// table indexed by `kind as usize`.
    pub const COUNT: usize = MsgKind::HomeUpdate as usize + 1;
}

/// Fixed wire overhead charged per message (UDP/IP + TreadMarks headers).
pub const MSG_HEADER_BYTES: u64 = 42;

/// One request/reply *diff exchange* between a faulting processor and one
/// concurrent writer.  The exchange is the unit the paper classifies as a
/// useful or useless message pair.  Its position in the requester's exchange
/// log is its id — the delivery-attribution tag in the requester's page
/// store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffExchange {
    /// Wire bytes of the request and the reply together (headers + encoded
    /// diffs).
    pub wire_bytes: u64,
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
}

/// The record of one page/consistency-unit fault, used to build the
/// false-sharing signature (Figure 3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The exchanges issued by this fault, one per concurrent writer the
    /// faulting processor had to contact: one fault's exchanges are logged
    /// consecutively, so they are a range of indices into the per-processor
    /// exchange log.
    pub exchange_ids: std::ops::Range<u32>,
}

/// The control messages (lock or barrier traffic) of one [`MsgKind`] a
/// processor caused — accounted but never classified as useless:
/// synchronization traffic is always necessary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlTally {
    /// How many messages.
    pub messages: u64,
    /// Their wire bytes (headers plus any piggybacked write notices).
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_usefulness() {
        let mut e = DiffExchange {
            wire_bytes: 2 * MSG_HEADER_BYTES + 128,
            delivered_payload: 128,
            useful_payload: 0,
        };
        assert!(!e.is_useful());
        assert_eq!(e.useless_payload(), 128);
        e.useful_payload = 4;
        assert!(e.is_useful());
        assert_eq!(e.useless_payload(), 124);
    }

    #[test]
    fn proc_id_display_and_index() {
        assert_eq!(ProcId(3).to_string(), "P3");
        assert_eq!(ProcId(3).index(), 3);
    }
}
