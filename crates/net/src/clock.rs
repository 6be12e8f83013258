//! Per-processor logical clocks.
//!
//! Execution time in the simulated cluster is *modeled*, not measured: every
//! processor advances a logical clock by the cost-model charge of each event
//! (computation, faults, synchronization stalls).  Synchronization operations
//! merge clocks — a barrier sets everyone to the latest arrival plus the
//! barrier latency; a lock hand-off makes the acquirer wait for the releaser.

/// A monotonically increasing logical clock in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogicalClock {
    ns: u64,
}

impl LogicalClock {
    /// A clock at time zero.
    pub fn zero() -> Self {
        LogicalClock { ns: 0 }
    }

    /// Current value in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns
    }

    /// Advance the clock by `delta_ns` (saturating: a clock pinned at
    /// `u64::MAX` stays there instead of panicking in debug builds, so an
    /// absurd cost model degrades gracefully on the large workload tier).
    #[inline]
    pub fn advance(&mut self, delta_ns: u64) {
        self.ns = self.ns.saturating_add(delta_ns);
    }

    /// Move the clock forward to `other_ns` if that is later (used when a
    /// processor waits for an event that completes at a known remote time).
    #[inline]
    pub fn wait_until(&mut self, other_ns: u64) {
        if other_ns > self.ns {
            self.ns = other_ns;
        }
    }
}

impl std::fmt::Display for LogicalClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.ns as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_wait() {
        let mut c = LogicalClock::zero();
        c.advance(100);
        assert_eq!(c.now_ns(), 100);
        c.wait_until(50); // never goes backwards
        assert_eq!(c.now_ns(), 100);
        c.wait_until(300);
        assert_eq!(c.now_ns(), 300);
    }

    #[test]
    fn advance_saturates_at_the_end_of_time() {
        let mut c = LogicalClock::zero();
        c.advance(u64::MAX - 5);
        c.advance(100);
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn display_in_milliseconds() {
        let mut c = LogicalClock::zero();
        c.advance(1_500_000);
        assert_eq!(c.to_string(), "1.500ms");
    }
}
