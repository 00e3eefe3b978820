//! The [`Timekeeper`] trait and its implementations.

use crate::time::TimeMicros;

/// A clock that may (or may not) keep counting across power failures.
///
/// The simulation harness drives a timekeeper with two events:
/// [`advance_on`](Timekeeper::advance_on) while the MCU executes, and
/// [`power_cycle`](Timekeeper::power_cycle) when a failure with a known
/// *true* off duration occurs. Between events, [`now`](Timekeeper::now)
/// reports the device's belief about elapsed time — which, depending on
/// the implementation, may have drifted or reset.
pub trait Timekeeper {
    /// The device's current belief about elapsed time since the first boot.
    fn now(&self) -> TimeMicros;

    /// Powered execution time passes (`us` microseconds).
    ///
    /// Within a power-on period, [`now`](Timekeeper::now) advances by
    /// exactly the on-time: `us` microseconds, however the time is split
    /// into calls. Drift, resets and estimation error enter only at
    /// [`power_cycle`](Timekeeper::power_cycle). A runtime relies on
    /// this to turn a deadline in device time into a cycle once.
    fn advance_on(&mut self, us: u64);

    /// A power failure occurs; the device is off for `true_off_us`
    /// microseconds of real time and then reboots.
    fn power_cycle(&mut self, true_off_us: u64);

    /// Whether the reported time is trustworthy. [`VolatileClock`] returns
    /// `false` after its first power cycle; [`CapacitorRtc`] after an
    /// outage exceeding its budget.
    fn is_time_known(&self) -> bool {
        true
    }

    /// Returns the clock to its exact as-constructed state (time zero,
    /// trust restored, any internal RNG re-wound to its seed). Machine
    /// recycling relies on this being indistinguishable from building a
    /// fresh timekeeper of the same configuration.
    fn reset(&mut self);
}

/// Ground-truth wall clock. The simulation oracle.
///
/// ```
/// use tics_clock::{PerfectClock, Timekeeper};
/// let mut c = PerfectClock::new();
/// c.advance_on(10);
/// c.power_cycle(90);
/// assert_eq!(c.now().as_micros(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfectClock {
    now: TimeMicros,
}

impl PerfectClock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> PerfectClock {
        PerfectClock::default()
    }
}

impl Timekeeper for PerfectClock {
    fn now(&self) -> TimeMicros {
        self.now
    }
    fn advance_on(&mut self, us: u64) {
        self.now += TimeMicros(us);
    }
    fn power_cycle(&mut self, true_off_us: u64) {
        self.now += TimeMicros(true_off_us);
    }
    fn reset(&mut self) {
        *self = PerfectClock::default();
    }
}

/// The MCU's internal timer: resets to zero on every reboot.
///
/// This is what an unmodified legacy program reads via `time()`; it is the
/// source of the paper's timely-branching, misalignment, and expiration
/// violations (Figure 3 b–d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VolatileClock {
    since_boot: TimeMicros,
    ever_failed: bool,
}

impl VolatileClock {
    /// Creates a clock at time zero.
    #[must_use]
    pub fn new() -> VolatileClock {
        VolatileClock::default()
    }
}

impl Timekeeper for VolatileClock {
    fn now(&self) -> TimeMicros {
        self.since_boot
    }
    fn advance_on(&mut self, us: u64) {
        self.since_boot += TimeMicros(us);
    }
    fn power_cycle(&mut self, _true_off_us: u64) {
        self.since_boot = TimeMicros::ZERO;
        self.ever_failed = true;
    }
    fn is_time_known(&self) -> bool {
        !self.ever_failed
    }
    fn reset(&mut self) {
        *self = VolatileClock::default();
    }
}

/// A real-time clock kept alive through outages by a small capacitor.
///
/// While the outage is within the capacitor's `budget`, time is kept
/// perfectly; a longer outage exhausts the capacitor and the RTC restarts
/// from zero with [`is_time_known`](Timekeeper::is_time_known) = `false`
/// until the application resynchronizes (modeled by [`CapacitorRtc::resync`]).
///
/// ```
/// use tics_clock::{CapacitorRtc, Timekeeper};
/// let mut rtc = CapacitorRtc::new(1_000_000); // 1 s budget
/// rtc.advance_on(500);
/// rtc.power_cycle(900_000); // within budget
/// assert_eq!(rtc.now().as_micros(), 900_500);
/// rtc.power_cycle(2_000_000); // exceeds budget
/// assert!(!rtc.is_time_known());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitorRtc {
    now: TimeMicros,
    budget_us: u64,
    known: bool,
}

impl CapacitorRtc {
    /// Creates an RTC whose capacitor sustains outages up to `budget_us`.
    #[must_use]
    pub fn new(budget_us: u64) -> CapacitorRtc {
        CapacitorRtc {
            now: TimeMicros::ZERO,
            budget_us,
            known: true,
        }
    }

    /// Resynchronizes the RTC to an externally supplied time (e.g. from a
    /// basestation beacon), restoring trust.
    pub fn resync(&mut self, to: TimeMicros) {
        self.now = to;
        self.known = true;
    }
}

impl Timekeeper for CapacitorRtc {
    fn now(&self) -> TimeMicros {
        self.now
    }
    fn advance_on(&mut self, us: u64) {
        self.now += TimeMicros(us);
    }
    fn power_cycle(&mut self, true_off_us: u64) {
        if true_off_us <= self.budget_us {
            self.now += TimeMicros(true_off_us);
        } else {
            self.now = TimeMicros::ZERO;
            self.known = false;
        }
    }
    fn is_time_known(&self) -> bool {
        self.known
    }
    fn reset(&mut self) {
        self.now = TimeMicros::ZERO;
        self.known = true;
    }
}

/// A remanence-based off-time estimator (TARDIS / CusTARD style).
///
/// SRAM cell decay lets the device *estimate* how long it was off, with
/// multiplicative error and a maximum measurable duration. Beyond the
/// maximum the estimate saturates — the device only knows it was off "at
/// least that long", so from that point its absolute time is a lower
/// bound, not a measurement, and
/// [`is_time_known`](Timekeeper::is_time_known) reports `false` forever
/// after (there is no resynchronization source to restore trust). The
/// error is deterministic per outage (seeded xorshift) so experiments
/// are reproducible.
///
/// ```
/// use tics_clock::{RemanenceTimer, Timekeeper};
/// let mut t = RemanenceTimer::new(10_000_000, 0.05, 42);
/// t.power_cycle(1_000_000);
/// let est = t.now().as_micros() as f64;
/// assert!((est - 1e6).abs() <= 0.05 * 1e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemanenceTimer {
    now: TimeMicros,
    max_measurable_us: u64,
    error_frac: f64,
    seed: u64,
    rng_state: u64,
    saturated: bool,
    ever_saturated: bool,
}

impl RemanenceTimer {
    /// Creates a remanence timer.
    ///
    /// * `max_measurable_us` — longest off-time it can distinguish,
    /// * `error_frac` — maximum multiplicative estimation error (e.g.
    ///   `0.05` = ±5 %),
    /// * `seed` — seed for the deterministic per-outage error draw.
    ///
    /// # Panics
    ///
    /// Panics if `error_frac` is negative or not finite.
    #[must_use]
    pub fn new(max_measurable_us: u64, error_frac: f64, seed: u64) -> RemanenceTimer {
        assert!(
            error_frac.is_finite() && error_frac >= 0.0,
            "error_frac must be a non-negative finite number"
        );
        RemanenceTimer {
            now: TimeMicros::ZERO,
            max_measurable_us,
            error_frac,
            seed,
            rng_state: seed | 1,
            saturated: false,
            ever_saturated: false,
        }
    }

    /// Whether the *last* outage exceeded the measurable range (its true
    /// duration is unknown — the timer only advanced by the saturation
    /// floor). Resets on the next in-range outage, unlike
    /// [`is_time_known`](Timekeeper::is_time_known), which stays `false`
    /// once any outage has saturated.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    fn next_unit(&mut self) -> f64 {
        // xorshift64*; uniform in [-1, 1).
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let v = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (v >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

impl Timekeeper for RemanenceTimer {
    fn now(&self) -> TimeMicros {
        self.now
    }
    fn advance_on(&mut self, us: u64) {
        self.now += TimeMicros(us);
    }
    fn power_cycle(&mut self, true_off_us: u64) {
        if true_off_us > self.max_measurable_us {
            // The true duration is unknown; advance by the measurable
            // floor (a lower bound) and mark absolute time untrusted.
            self.now += TimeMicros(self.max_measurable_us);
            self.saturated = true;
            self.ever_saturated = true;
        } else {
            let err = 1.0 + self.error_frac * self.next_unit();
            // Round to the nearest microsecond: truncation would bias
            // every estimate low and could push the quantized error just
            // past the ±error_frac bound.
            let est = (true_off_us as f64 * err).round().max(0.0) as u64;
            self.now += TimeMicros(est);
            self.saturated = false;
        }
    }
    fn is_time_known(&self) -> bool {
        // A saturated outage advanced `now` by a lower bound, not a
        // measurement — every timestamp after that is fabricated, and
        // nothing can resynchronize a remanence timer.
        !self.ever_saturated
    }
    fn reset(&mut self) {
        self.now = TimeMicros::ZERO;
        self.rng_state = self.seed | 1;
        self.saturated = false;
        self.ever_saturated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_truth() {
        let mut c = PerfectClock::new();
        c.advance_on(100);
        c.power_cycle(400);
        c.advance_on(1);
        assert_eq!(c.now(), TimeMicros(501));
        assert!(c.is_time_known());
    }

    #[test]
    fn volatile_clock_resets_and_loses_trust() {
        let mut c = VolatileClock::new();
        c.advance_on(100);
        assert!(c.is_time_known());
        c.power_cycle(1);
        assert_eq!(c.now(), TimeMicros::ZERO);
        assert!(!c.is_time_known());
        c.advance_on(7);
        assert_eq!(c.now(), TimeMicros(7));
    }

    #[test]
    fn rtc_within_budget_keeps_time() {
        let mut rtc = CapacitorRtc::new(1_000);
        rtc.advance_on(10);
        rtc.power_cycle(1_000);
        assert_eq!(rtc.now(), TimeMicros(1_010));
        assert!(rtc.is_time_known());
    }

    #[test]
    fn rtc_over_budget_loses_time_and_resyncs() {
        let mut rtc = CapacitorRtc::new(1_000);
        rtc.advance_on(10);
        rtc.power_cycle(1_001);
        assert!(!rtc.is_time_known());
        assert_eq!(rtc.now(), TimeMicros::ZERO);
        rtc.resync(TimeMicros(5_000));
        assert!(rtc.is_time_known());
        assert_eq!(rtc.now(), TimeMicros(5_000));
    }

    #[test]
    fn remanence_error_is_bounded() {
        let mut t = RemanenceTimer::new(u64::MAX, 0.1, 7);
        let mut truth = 0u64;
        for i in 0..200 {
            let off = 10_000 + i * 37;
            truth += off;
            t.power_cycle(off);
        }
        let est = t.now().as_micros();
        let bound = (truth as f64 * 0.1) as u64;
        assert!(est.abs_diff(truth) <= bound, "est {est}, truth {truth}");
        assert!(!t.saturated());
    }

    #[test]
    fn remanence_saturates_beyond_max() {
        let mut t = RemanenceTimer::new(1_000, 0.0, 1);
        t.power_cycle(50_000);
        assert_eq!(t.now(), TimeMicros(1_000));
        assert!(t.saturated());
    }

    #[test]
    fn remanence_per_outage_error_is_within_error_frac() {
        // Property: over many seeds and off-durations, each individual
        // in-range estimate stays within ±error_frac of the truth
        // (modulo 1 µs of rounding quantization), and never saturates.
        for seed in 0..32u64 {
            for frac in [0.0, 0.01, 0.1, 0.5] {
                let mut t = RemanenceTimer::new(u64::MAX, frac, seed);
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..64 {
                    // Cheap xorshift for varied off-durations.
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let off = 1 + state % 10_000_000;
                    let before = t.now().as_micros();
                    t.power_cycle(off);
                    let est = t.now().as_micros() - before;
                    let bound = frac * off as f64 + 1.0;
                    assert!(
                        (est.abs_diff(off)) as f64 <= bound,
                        "seed {seed} frac {frac}: off {off} estimated as {est}"
                    );
                    assert!(!t.saturated());
                    assert!(t.is_time_known());
                }
            }
        }
    }

    #[test]
    fn remanence_saturation_is_reported_as_unknown_time() {
        let mut t = RemanenceTimer::new(1_000, 0.05, 9);
        t.power_cycle(500);
        assert!(t.is_time_known());
        // Saturated outage: duration unknown, timestamp is a lower
        // bound, and trust is lost...
        t.power_cycle(50_000);
        assert!(t.saturated());
        assert!(!t.is_time_known());
        // ...permanently: a later in-range outage resets `saturated()`
        // (it measured fine) but cannot restore absolute-time trust.
        t.power_cycle(500);
        assert!(!t.saturated());
        assert!(!t.is_time_known());
    }

    #[test]
    fn remanence_zero_error_is_exact() {
        let mut t = RemanenceTimer::new(u64::MAX, 0.0, 3);
        t.power_cycle(12_345);
        t.advance_on(5);
        assert_eq!(t.now(), TimeMicros(12_350));
    }

    #[test]
    fn reset_is_indistinguishable_from_fresh() {
        // Drive each clock through history, reset it, and replay the
        // same history on a freshly constructed twin: every observable
        // must match at every step.
        fn exercise(c: &mut dyn Timekeeper) -> Vec<(u64, bool)> {
            let mut log = Vec::new();
            for (on, off) in [(100, 900), (50, 2_000_000), (7, 3)] {
                c.advance_on(on);
                c.power_cycle(off);
                log.push((c.now().as_micros(), c.is_time_known()));
            }
            log
        }
        let mut clocks: Vec<(Box<dyn Timekeeper>, Box<dyn Timekeeper>)> = vec![
            (Box::new(PerfectClock::new()), Box::new(PerfectClock::new())),
            (
                Box::new(VolatileClock::new()),
                Box::new(VolatileClock::new()),
            ),
            (
                Box::new(CapacitorRtc::new(1_000_000)),
                Box::new(CapacitorRtc::new(1_000_000)),
            ),
            (
                Box::new(RemanenceTimer::new(10_000_000, 0.1, 42)),
                Box::new(RemanenceTimer::new(10_000_000, 0.1, 42)),
            ),
        ];
        for (used, fresh) in &mut clocks {
            exercise(used.as_mut());
            used.reset();
            assert_eq!(exercise(used.as_mut()), exercise(fresh.as_mut()));
        }
    }

    #[test]
    fn on_time_advances_now_exactly() {
        // Whatever an outage did to the clock, the next power-on period
        // advances `now` by exactly its on-time, in one call or many.
        let clocks: [Box<dyn Timekeeper>; 4] = [
            Box::new(PerfectClock::new()),
            Box::new(VolatileClock::new()),
            Box::new(CapacitorRtc::new(1_000)),
            Box::new(RemanenceTimer::new(50_000, 0.25, 7)),
        ];
        for mut c in clocks {
            for off in [0, 999, 5_000, 12_345, 80_000] {
                c.power_cycle(off);
                let (start, mut on) = (c.now().as_micros(), 0);
                for us in [1, 97, 1_009, 331] {
                    c.advance_on(us);
                    on += us;
                    assert_eq!(c.now().as_micros(), start + on);
                }
            }
        }
    }

    #[test]
    fn remanence_is_deterministic_per_seed() {
        let mut a = RemanenceTimer::new(u64::MAX, 0.2, 99);
        let mut b = RemanenceTimer::new(u64::MAX, 0.2, 99);
        for off in [100, 200, 300] {
            a.power_cycle(off);
            b.power_cycle(off);
        }
        assert_eq!(a.now(), b.now());
    }
}
