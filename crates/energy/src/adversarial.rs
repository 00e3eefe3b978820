//! Adversarial power schedules for fault injection.
//!
//! The trace-driven supplies cut power on a fixed cadence, which means a
//! checkpoint commit that happens to straddle a period boundary is the
//! *only* place a runtime's two-phase protocol ever gets exercised. An
//! [`AdversarialSupply`] instead executes a [`FaultPlan`] — an explicit
//! list of absolute on-time cycles at which power dies — so a harness can
//! sweep the cut point across every cycle of a golden run, bisect toward
//! the exact store that tears, and then replay the minimal plan
//! deterministically.

use crate::trace::{OnPeriod, PowerSupply};

/// What the supply does once every planned cut has fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Continuous power: the run completes (or hits the executor budget).
    /// This is what the consistency oracle wants — after the planned
    /// failures, let the program finish so traces can be compared.
    Continuous,
    /// Keep failing on a fixed cadence forever. Useful with the
    /// executor's forward-progress guard to diagnose live-lock.
    Periodic {
        /// On-time per period (µs).
        on_us: u64,
        /// Off-time per period (µs).
        off_us: u64,
    },
    /// The supply ends (executor reports out-of-energy).
    End,
}

/// Brown-out corruption parameters carried by a [`FaultPlan`].
///
/// Plain data: `tics-energy` does not depend on the memory system, so
/// the fault harness reads these fields and arms the machine's
/// memory-level corruption model from them. Same seed, same plan, same
/// corruption — chaos runs replay bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corruption {
    /// At-risk window before each cut, in cycles: stores issued with
    /// fewer than `window` cycles of on-time left may corrupt.
    pub window: u64,
    /// Probability an at-risk store suffers a single random bit flip.
    pub flip_prob: f64,
    /// Probability an at-risk store is dropped entirely.
    pub drop_prob: f64,
    /// Per-byte probability that SRAM decays across an outage
    /// (`1.0` = full deterministic clobber).
    pub sram_decay: f64,
    /// Seed for the corruption RNG stream.
    pub seed: u64,
}

impl Corruption {
    /// A spec where at-risk stores corrupt with total probability
    /// `rate`, split evenly between bit flips and dropped stores, with
    /// full SRAM clobber. The single-knob form the chaos grid sweeps.
    #[must_use]
    pub fn with_rate(window: u64, rate: f64, seed: u64) -> Corruption {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        Corruption {
            window,
            flip_prob: rate / 2.0,
            drop_prob: rate / 2.0,
            sram_decay: 1.0,
            seed,
        }
    }
}

/// A deterministic fault plan: power dies exactly when the machine's
/// cumulative on-time reaches each cut, in order.
///
/// Cuts are *absolute* cycle counts of on-time (the machine's `cycles()`
/// axis), not per-period durations — so a plan read out of a journal row
/// replays the same failures regardless of how the run got there.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Strictly increasing absolute cut cycles.
    pub cuts: Vec<u64>,
    /// Outage length after each cut (µs).
    pub off_us: u64,
    /// Behavior after the last cut.
    pub tail: Tail,
    /// Optional brown-out corruption riding on each cut.
    pub corruption: Option<Corruption>,
}

/// `splitmix64` — the standard seed expander; deterministic and
/// dependency-free. `tics-energy` depends on no other crate, so this is
/// its own stateful copy of `tics_mcu::splitmix64`: each call advances
/// `state` by the golden-ratio increment and mixes it.
#[must_use]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan from raw cut cycles: sorted, deduplicated, zero removed
    /// (a cut at cycle 0 would be a period of no execution at all).
    #[must_use]
    pub fn new(mut cuts: Vec<u64>, off_us: u64) -> FaultPlan {
        cuts.sort_unstable();
        cuts.dedup();
        cuts.retain(|&c| c > 0);
        FaultPlan {
            cuts,
            off_us,
            tail: Tail::Continuous,
            corruption: None,
        }
    }

    /// A single-cut plan.
    #[must_use]
    pub fn single(cut: u64, off_us: u64) -> FaultPlan {
        FaultPlan::new(vec![cut], off_us)
    }

    /// The same plan with a different tail.
    #[must_use]
    pub fn with_tail(mut self, tail: Tail) -> FaultPlan {
        self.tail = tail;
        self
    }

    /// The same plan with brown-out corruption riding on its cuts.
    #[must_use]
    pub fn with_corruption(mut self, corruption: Corruption) -> FaultPlan {
        self.corruption = Some(corruption);
        self
    }

    /// `n` single-cut plans sweeping the window `[1, span]` on an even
    /// stride — the exhaustive half of a cut-point search.
    #[must_use]
    pub fn sweep(span: u64, n: u64, off_us: u64) -> Vec<FaultPlan> {
        let n = n.max(1);
        (0..n)
            .map(|i| FaultPlan::single(1 + i * span.saturating_sub(1) / n, off_us))
            .collect()
    }

    /// A seeded plan of up to `k` cuts drawn uniformly from `[1, span]`
    /// (splitmix64 — same seed, same plan).
    #[must_use]
    pub fn random(seed: u64, span: u64, k: usize, off_us: u64) -> FaultPlan {
        let mut s = seed;
        let span = span.max(1);
        let cuts = (0..k).map(|_| 1 + splitmix64(&mut s) % span).collect();
        FaultPlan::new(cuts, off_us)
    }

    /// The plan minus the cut at `index` — the shrinker's step.
    #[must_use]
    pub fn without(&self, index: usize) -> FaultPlan {
        let mut cuts = self.cuts.clone();
        if index < cuts.len() {
            cuts.remove(index);
        }
        FaultPlan {
            cuts,
            off_us: self.off_us,
            tail: self.tail,
            corruption: self.corruption,
        }
    }
}

/// A [`PowerSupply`] that executes a [`FaultPlan`]: each period's
/// on-time is the gap to the next cut, so the machine's cumulative
/// cycle count hits every cut exactly.
#[derive(Debug, Clone)]
pub struct AdversarialSupply {
    plan: FaultPlan,
    next: usize,
    last_cut: u64,
}

impl AdversarialSupply {
    /// A supply that will kill power at each cut of `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> AdversarialSupply {
        AdversarialSupply {
            plan,
            next: 0,
            last_cut: 0,
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl PowerSupply for AdversarialSupply {
    fn next_period(&mut self) -> Option<OnPeriod> {
        if let Some(&cut) = self.plan.cuts.get(self.next) {
            self.next += 1;
            let on_us = cut - self.last_cut; // strictly positive: cuts increase
            self.last_cut = cut;
            return Some(OnPeriod {
                on_us,
                off_us: self.plan.off_us,
            });
        }
        match self.plan.tail {
            Tail::Continuous => Some(OnPeriod {
                on_us: u64::MAX / 2,
                off_us: 0,
            }),
            Tail::Periodic { on_us, off_us } => Some(OnPeriod { on_us, off_us }),
            Tail::End => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods_are_gaps_between_cuts() {
        let mut s = AdversarialSupply::new(FaultPlan::new(vec![100, 250, 400], 50));
        assert_eq!(
            s.next_period().unwrap(),
            OnPeriod {
                on_us: 100,
                off_us: 50
            }
        );
        assert_eq!(
            s.next_period().unwrap(),
            OnPeriod {
                on_us: 150,
                off_us: 50
            }
        );
        assert_eq!(
            s.next_period().unwrap(),
            OnPeriod {
                on_us: 150,
                off_us: 50
            }
        );
        // Tail: continuous.
        let tail = s.next_period().unwrap();
        assert!(tail.on_us > 1 << 60);
        assert_eq!(tail.off_us, 0);
    }

    #[test]
    fn plan_normalizes_cuts() {
        let p = FaultPlan::new(vec![400, 0, 100, 100, 250], 10);
        assert_eq!(p.cuts, vec![100, 250, 400]);
    }

    #[test]
    fn end_tail_exhausts_the_supply() {
        let plan = FaultPlan::single(10, 0).with_tail(Tail::End);
        let mut s = AdversarialSupply::new(plan);
        assert!(s.next_period().is_some());
        assert!(s.next_period().is_none());
    }

    #[test]
    fn periodic_tail_repeats() {
        let plan = FaultPlan::new(vec![], 0).with_tail(Tail::Periodic {
            on_us: 7,
            off_us: 3,
        });
        let mut s = AdversarialSupply::new(plan);
        for _ in 0..4 {
            assert_eq!(
                s.next_period().unwrap(),
                OnPeriod {
                    on_us: 7,
                    off_us: 3
                }
            );
        }
    }

    #[test]
    fn sweep_covers_the_window() {
        let plans = FaultPlan::sweep(1_000, 10, 5);
        assert_eq!(plans.len(), 10);
        assert!(plans.iter().all(|p| p.cuts.len() == 1));
        assert!(plans.first().unwrap().cuts[0] >= 1);
        assert!(plans.last().unwrap().cuts[0] < 1_000);
        // Strictly increasing cut points across the sweep.
        for w in plans.windows(2) {
            assert!(w[0].cuts[0] < w[1].cuts[0]);
        }
    }

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(42, 10_000, 4, 100);
        let b = FaultPlan::random(42, 10_000, 4, 100);
        let c = FaultPlan::random(43, 10_000, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.cuts.iter().all(|&x| (1..=10_000).contains(&x)));
    }

    #[test]
    fn without_removes_one_cut() {
        let p = FaultPlan::new(vec![10, 20, 30], 5);
        assert_eq!(p.without(1).cuts, vec![10, 30]);
        assert_eq!(p.without(9).cuts, vec![10, 20, 30]);
    }

    #[test]
    fn corruption_rides_through_shrinking() {
        let c = Corruption::with_rate(500, 0.4, 99);
        assert!((c.flip_prob - 0.2).abs() < 1e-12);
        assert!((c.drop_prob - 0.2).abs() < 1e-12);
        let p = FaultPlan::new(vec![10, 20], 5).with_corruption(c);
        assert_eq!(p.without(0).corruption, Some(c));
        assert_eq!(FaultPlan::new(vec![10], 5).corruption, None);
    }
}
