//! Per-rank communication statistics.

/// Counters a rank accumulates while communicating. Returned with each
/// rank's result so experiments can report communication volume alongside
/// time (the paper notes loop 2's integer exchange is "substantially less
/// communication" than loop 1's string exchange — these counters show it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Bytes this rank contributed to collectives.
    pub bytes_sent: u64,
    /// Bytes this rank received from its peers in collectives.
    pub bytes_received: u64,
    /// Collective operations participated in (barriers included).
    pub collectives: u64,
    /// Retransmissions of dropped messages injected by a fault plan.
    pub retries: u64,
    /// Message delays injected by a fault plan.
    pub delays: u64,
}

impl CommStats {
    /// Merge another rank's counters into this one (for cluster totals).
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.collectives += other.collectives;
        self.retries += other.retries;
        self.delays += other.delays;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds() {
        let mut a = CommStats {
            bytes_sent: 10,
            bytes_received: 20,
            collectives: 3,
            retries: 4,
            delays: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.bytes_sent, 20);
        assert_eq!(a.collectives, 6);
        assert_eq!(a.retries, 8);
        assert_eq!(a.delays, 10);
    }

    #[test]
    fn default_is_zero() {
        let s = CommStats::default();
        assert_eq!(
            s.bytes_sent + s.bytes_received + s.collectives + s.retries + s.delays,
            0
        );
    }
}
