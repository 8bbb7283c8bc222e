//! Per-rank virtual clocks.
//!
//! A [`VClock`] accumulates simulated seconds. Compute sections charge it
//! with measured (or replayed) durations; communication primitives advance
//! it to the synchronized completion time of the operation. Virtual time is
//! completely decoupled from wall-clock time, which is what makes scaling
//! experiments reproducible on any host.

/// A monotone virtual clock, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VClock {
    now: f64,
}

impl VClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VClock { now: 0.0 }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Charge `seconds` of work to this clock.
    ///
    /// Negative or non-finite charges are ignored (timers can produce 0.0;
    /// they never legitimately produce negatives).
    #[inline]
    pub fn charge(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.now += seconds;
        }
    }

    /// Advance to an absolute time, never moving backwards.
    #[inline]
    pub fn advance_to(&mut self, t: f64) {
        if t.is_finite() && t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut c = VClock::new();
        c.charge(1.5);
        c.charge(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_bad_charges() {
        let mut c = VClock::new();
        c.charge(-1.0);
        c.charge(f64::NAN);
        c.charge(f64::INFINITY);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn advance_is_monotone() {
        let mut c = VClock::new();
        c.advance_to(5.0);
        c.advance_to(3.0);
        assert_eq!(c.now(), 5.0);
        c.advance_to(f64::NAN);
        assert_eq!(c.now(), 5.0);
    }
}
