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
    /// Crashes of this rank injected by a fault plan (0 or 1 per attempt).
    pub crashes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = CommStats::default();
        assert_eq!(
            s.bytes_sent + s.bytes_received + s.collectives + s.retries + s.delays + s.crashes,
            0
        );
    }
}
