//! Fleet-scale streaming Monte Carlo (the `exp_fleet` engine).
//!
//! A fleet run simulates N independent devices of one (app × system ×
//! clock × supply) configuration, each with its own splitmix64-derived
//! supply seed, and folds every device into fixed-memory aggregates:
//! counters, streaming log-bucket histograms for reactive-time and
//! runtime-overhead distributions, and a reservoir sample of the worst
//! offenders. Aggregator state is independent of N, so a million-device
//! sweep runs in the same memory as a thousand-device one.
//!
//! The engine is built on the machine-recycling refactor: a shard
//! worker builds one [`MachineImage`] (program, layout, cost model,
//! sensor trace — all shared, immutable) and **one** [`Machine`], then
//! recycles that machine across its whole device range with
//! [`Machine::reset`] — proven trace-identical to fresh construction by
//! the `machine_recycling` differential suite. Per-device cost is the
//! mutable block only: zeroing memory images and re-seeding RNGs, with
//! zero allocation after the first device.
//!
//! Sharding is deterministic: device `d`'s seed depends only on the
//! fleet seed and `d`, never on shard boundaries or thread count, so
//! `run_shard(0, 40)` equals `run_shard(0, 20)` merged with
//! `run_shard(20, 20)` — the property that makes journaled shard rows
//! resumable ([`JournalRow::shard`]).
//!
//! [`JournalRow::shard`]: crate::journal::JournalRow

use tics_apps::{build_app, App, SystemUnderTest};
use tics_minic::opt::OptLevel;
use tics_trace::SpanKind;
use tics_vm::{
    DispatchEngine, ExecStats, Executor, Machine, MachineConfig, MachineImage, RunOutcome,
};

use crate::json::Json;
use crate::oracle::count_violations;
use crate::sweep::{
    cell_seed, recycled_machine, splitmix64, standard_sensor_trace, ClockKind, SupplySpec,
};

/// Offender exemplars kept per shard (and in the merged report).
pub const RESERVOIR_K: usize = 16;

// ---- streaming histogram ----

/// Sub-bucket resolution bits: 32 sub-buckets per power of two, i.e.
/// ~3 % relative error on any recorded value.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB * 2` are exact; above, `shift = exponent - SUB_BITS`
/// ranges over `0..=63 - SUB_BITS`, each contributing `SUB` buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-memory log-bucket histogram of `u64` samples (HDR-histogram
/// style): exact below 64, ~3 % relative-error buckets above, ~15 KiB
/// of state regardless of how many samples are recorded. Merging two
/// histograms is element-wise addition, so shard aggregates fold into
/// fleet totals without loss.
///
/// [`StreamingHistogram::percentile`] returns the *bucket bounds*
/// containing the requested rank; the exactness property test checks
/// the sorted-ground-truth value always lies inside them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> StreamingHistogram {
        StreamingHistogram::default()
    }

    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let exponent = 63 - u64::from(v.leading_zeros());
            let shift = exponent - u64::from(SUB_BITS);
            let sub = ((v >> shift) as usize) - SUB;
            SUB + (shift as usize) * SUB + sub
        }
    }

    /// The value range `[lo, hi]` a bucket covers (inclusive).
    #[must_use]
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        if index < SUB {
            (index as u64, index as u64)
        } else {
            let shift = ((index - SUB) / SUB) as u32;
            let sub = ((index - SUB) % SUB) as u64;
            let lo = (sub + SUB as u64) << shift;
            (lo, lo + ((1u64 << shift) - 1))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact minimum recorded value (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded value (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean of the recorded values (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The rank a percentile denotes over `total` samples — shared with
    /// the exactness property test so both sides agree on the
    /// nearest-rank convention.
    #[must_use]
    pub fn rank_of(percentile: f64, total: u64) -> u64 {
        if total == 0 {
            return 0;
        }
        let frac = (percentile / 100.0).clamp(0.0, 1.0);
        let rank = (frac * ((total - 1) as f64)).round();
        (rank as u64).min(total - 1)
    }

    /// The `[lo, hi]` bucket bounds containing the value at percentile
    /// `p` (0–100, nearest rank); `None` when empty. The true value at
    /// that rank is guaranteed to lie within the bounds.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<(u64, u64)> {
        if self.total == 0 {
            return None;
        }
        let rank = Self::rank_of(p, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                let (lo, hi) = Self::bucket_bounds(i);
                // The exact extrema tighten the edge buckets for free.
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        unreachable!("rank below total implies a containing bucket");
    }

    /// Folds another histogram in (element-wise; lossless).
    pub fn merge(&mut self, other: &StreamingHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sparse wire form: only non-empty buckets are listed, so a
    /// journal row stays small even though the dense state is ~15 KiB.
    /// `sum`/`min`/`max` travel as hex strings (the journal's u64
    /// convention — JSON numbers stop at `i64::MAX`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::from(i), Json::from(c)]))
            .collect();
        Json::obj()
            .field("n", self.total)
            .field("sum", format!("{:#x}", self.sum))
            .field(
                "min",
                format!("{:#x}", if self.total > 0 { self.min } else { 0 }),
            )
            .field("max", format!("{:#x}", self.max))
            .field("buckets", Json::Arr(buckets))
            .build()
    }

    /// Parses the sparse wire form back.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<StreamingHistogram> {
        let hex = |key: &str| -> Option<u64> {
            u64::from_str_radix(v.get(key)?.as_str()?.trim_start_matches("0x"), 16).ok()
        };
        let mut h = StreamingHistogram::new();
        h.total = v.get("n")?.as_u64()?;
        h.sum = hex("sum")?;
        h.max = hex("max")?;
        h.min = if h.total > 0 { hex("min")? } else { u64::MAX };
        for pair in v.get("buckets")?.as_arr()? {
            let [i, c] = pair.as_arr()? else { return None };
            h.counts[usize::try_from(i.as_u64()?).ok()?] = c.as_u64()?;
        }
        Some(h)
    }
}

// ---- offender reservoir ----

/// One worst-offender exemplar: enough coordinates to re-simulate the
/// exact device (`device` + the fleet seed reproduce its supply, clock,
/// and sensor schedule bit-for-bit) plus the headline numbers that made
/// it an offender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Global device index within the fleet.
    pub device: u64,
    /// The device's derived seed.
    pub seed: u64,
    /// Time-consistency violations the oracle counted.
    pub violations: u64,
    /// The device's worst send-after-sample reactive time (µs).
    pub worst_reactive_us: u64,
    /// How the device's run ended (`finished`, `livelocked`, ...).
    pub outcome: String,
}

impl Exemplar {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            Json::from(self.device),
            Json::Str(format!("{:#x}", self.seed)),
            Json::from(self.violations),
            Json::from(self.worst_reactive_us),
            Json::Str(self.outcome.clone()),
        ])
    }

    fn from_json(v: &Json) -> Option<Exemplar> {
        let [device, seed, violations, worst, outcome] = v.as_arr()? else {
            return None;
        };
        Some(Exemplar {
            device: device.as_u64()?,
            seed: u64::from_str_radix(seed.as_str()?.trim_start_matches("0x"), 16).ok()?,
            violations: violations.as_u64()?,
            worst_reactive_us: worst.as_u64()?,
            outcome: outcome.as_str()?.to_string(),
        })
    }

    /// Sort key for deterministic worst-K selection: most violations
    /// first, then slowest reaction, then lowest device index.
    fn badness(&self) -> (std::cmp::Reverse<u64>, std::cmp::Reverse<u64>, u64) {
        (
            std::cmp::Reverse(self.violations),
            std::cmp::Reverse(self.worst_reactive_us),
            self.device,
        )
    }
}

/// Algorithm-R reservoir over offender devices: a uniform sample of at
/// most [`RESERVOIR_K`] offenders in O(K) memory, deterministic per
/// shard (splitmix64 stream seeded from the shard seed). Merging across
/// shards switches to deterministic worst-K selection — a uniform
/// merged sample would need the per-shard acceptance history.
#[derive(Debug, Clone)]
pub struct Reservoir {
    items: Vec<Exemplar>,
    seen: u64,
    rng: u64,
}

/// Equality over the *observable* sample (items + seen); the private
/// replacement-RNG state is not wire state and a deserialized reservoir
/// is only ever merged, never offered to.
impl PartialEq for Reservoir {
    fn eq(&self, other: &Reservoir) -> bool {
        self.items == other.items && self.seen == other.seen
    }
}

impl Eq for Reservoir {}

impl Reservoir {
    /// An empty reservoir whose replacement stream derives from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Reservoir {
        Reservoir {
            items: Vec::with_capacity(RESERVOIR_K),
            seen: 0,
            rng: splitmix64(seed ^ 0x0FFE_17DE_5EED_0001),
        }
    }

    /// Offers one offender; kept with probability `K / seen`.
    pub fn offer(&mut self, item: Exemplar) {
        self.seen += 1;
        if self.items.len() < RESERVOIR_K {
            self.items.push(item);
        } else {
            self.rng = splitmix64(self.rng);
            let j = self.rng % self.seen;
            if (j as usize) < RESERVOIR_K {
                self.items[j as usize] = item;
            }
        }
    }

    /// Offenders offered so far (kept or not).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sampled exemplars (unordered).
    #[must_use]
    pub fn items(&self) -> &[Exemplar] {
        &self.items
    }

    /// Folds another reservoir in: concatenate, sort by badness, keep
    /// the worst K. Deterministic in shard-merge order and content.
    pub fn merge(&mut self, other: &Reservoir) {
        self.items.extend(other.items.iter().cloned());
        self.items.sort_by_key(Exemplar::badness);
        self.items.truncate(RESERVOIR_K);
        self.seen += other.seen;
    }
}

// ---- the per-shard aggregate ----

/// Everything a shard (or the whole merged fleet) reports. All state is
/// fixed-size — counters, two histograms, a bounded reservoir — so the
/// aggregate for a million devices is as big as for a hundred.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Devices simulated.
    pub devices: u64,
    /// Devices whose program ran to completion.
    pub finished: u64,
    /// Devices whose supply window closed first.
    pub out_of_energy: u64,
    /// Devices that hit the simulated-time budget.
    pub budget_exhausted: u64,
    /// Devices starved of forward progress (livelock).
    pub livelocked: u64,
    /// Devices whose run trapped (VM error).
    pub errored: u64,
    /// Devices with at least one time-consistency violation.
    pub violating_devices: u64,
    /// Total violations across the shard.
    pub violations: u64,
    /// Devices that performed at least one self-healing recovery.
    pub recovered_devices: u64,
    /// Power failures across the shard.
    pub power_failures: u64,
    /// Checkpoints committed across the shard.
    pub checkpoints: u64,
    /// Bytecode instructions executed — deterministic per device, the
    /// host-independent quantity `exp_fleet --check` gates on.
    pub instructions: u64,
    /// Simulated on-time cycles across the shard.
    pub cycles: u64,
    /// Distribution of send-after-sample reactive times (µs).
    pub reactive_us: StreamingHistogram,
    /// Distribution of per-device runtime overhead (‰ of cycles spent
    /// outside application/ISR spans).
    pub overhead_permille: StreamingHistogram,
    /// Reservoir-sampled worst offenders.
    pub offenders: Reservoir,
}

impl ShardStats {
    /// An empty aggregate whose reservoir derives from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ShardStats {
        ShardStats {
            devices: 0,
            finished: 0,
            out_of_energy: 0,
            budget_exhausted: 0,
            livelocked: 0,
            errored: 0,
            violating_devices: 0,
            violations: 0,
            recovered_devices: 0,
            power_failures: 0,
            checkpoints: 0,
            instructions: 0,
            cycles: 0,
            reactive_us: StreamingHistogram::new(),
            overhead_permille: StreamingHistogram::new(),
            offenders: Reservoir::new(seed),
        }
    }

    /// Folds one finished device run into the aggregate.
    fn fold_device(
        &mut self,
        device: u64,
        seed: u64,
        machine: &Machine,
        outcome: &Result<RunOutcome, tics_vm::VmError>,
        atomic_timestamps: bool,
    ) {
        self.devices += 1;
        let outcome_label = match outcome {
            Ok(RunOutcome::Finished(_)) => {
                self.finished += 1;
                "finished"
            }
            Ok(RunOutcome::OutOfEnergy) => {
                self.out_of_energy += 1;
                "out-of-energy"
            }
            Ok(RunOutcome::BudgetExhausted) => {
                self.budget_exhausted += 1;
                "budget-exhausted"
            }
            Ok(RunOutcome::Starved { .. }) => {
                self.livelocked += 1;
                "livelocked"
            }
            Err(_) => {
                self.errored += 1;
                "error"
            }
        };

        let stats = machine.stats();
        self.power_failures += stats.power_failures;
        self.checkpoints += stats.checkpoints;
        self.instructions += stats.instructions;
        self.cycles += machine.cycles();
        if stats.recoveries > 0 {
            self.recovered_devices += 1;
        }

        let worst_reactive = self.fold_reactive(stats);

        let cycles = machine.cycles();
        let spans = machine.mem.span_cycles_all();
        let overhead: u64 = SpanKind::ALL
            .iter()
            .filter(|k| k.is_runtime())
            .map(|k| spans[k.index()])
            .sum();
        if let Some(permille) = (overhead * 1000).checked_div(cycles) {
            self.overhead_permille.record(permille);
        }

        let v = count_violations(machine.trace().records(), atomic_timestamps);
        self.violations += v.total();
        let livelocked = matches!(outcome, Ok(RunOutcome::Starved { .. }));
        if v.total() > 0 {
            self.violating_devices += 1;
        }
        if v.total() > 0 || livelocked {
            self.offenders.offer(Exemplar {
                device,
                seed,
                violations: v.total(),
                worst_reactive_us: worst_reactive,
                outcome: outcome_label.to_string(),
            });
        }
    }

    /// Records every send's reactive time (send minus the latest
    /// preceding sample) and returns the device's worst one.
    fn fold_reactive(&mut self, stats: &ExecStats) -> u64 {
        let samples = &stats.samples_timed;
        let mut si = 0usize;
        let mut worst = 0u64;
        for &(value, at_us) in &stats.sends_timed {
            if value < 0 {
                continue; // alerts measure deadline latency, not reaction
            }
            while si < samples.len() && samples[si] <= at_us {
                si += 1;
            }
            if si > 0 {
                let reactive = at_us - samples[si - 1];
                self.reactive_us.record(reactive);
                worst = worst.max(reactive);
            }
        }
        worst
    }

    /// Folds another shard in (commutative on every field except the
    /// reservoir, which is deterministic in merge order — fold shards
    /// in shard-index order).
    pub fn merge(&mut self, other: &ShardStats) {
        self.devices += other.devices;
        self.finished += other.finished;
        self.out_of_energy += other.out_of_energy;
        self.budget_exhausted += other.budget_exhausted;
        self.livelocked += other.livelocked;
        self.errored += other.errored;
        self.violating_devices += other.violating_devices;
        self.violations += other.violations;
        self.recovered_devices += other.recovered_devices;
        self.power_failures += other.power_failures;
        self.checkpoints += other.checkpoints;
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.reactive_us.merge(&other.reactive_us);
        self.overhead_permille.merge(&other.overhead_permille);
        self.offenders.merge(&other.offenders);
    }

    /// Serializes the aggregate into journal `extra` fields, histograms
    /// sparse — a resumed sweep rebuilds the whole fleet report from
    /// journal rows without re-simulating a single device.
    #[must_use]
    pub fn to_extra(&self) -> Vec<(String, Json)> {
        vec![
            ("devices".into(), Json::from(self.devices)),
            ("finished".into(), Json::from(self.finished)),
            ("out_of_energy".into(), Json::from(self.out_of_energy)),
            ("budget_exhausted".into(), Json::from(self.budget_exhausted)),
            ("livelocked".into(), Json::from(self.livelocked)),
            ("errored".into(), Json::from(self.errored)),
            (
                "violating_devices".into(),
                Json::from(self.violating_devices),
            ),
            ("violations".into(), Json::from(self.violations)),
            (
                "recovered_devices".into(),
                Json::from(self.recovered_devices),
            ),
            (
                "fleet_power_failures".into(),
                Json::from(self.power_failures),
            ),
            ("fleet_checkpoints".into(), Json::from(self.checkpoints)),
            ("instructions".into(), Json::from(self.instructions)),
            ("fleet_cycles".into(), Json::from(self.cycles)),
            ("reactive_us".into(), self.reactive_us.to_json()),
            ("overhead_permille".into(), self.overhead_permille.to_json()),
            (
                "offenders".into(),
                Json::Arr(
                    self.offenders
                        .items()
                        .iter()
                        .map(Exemplar::to_json)
                        .collect(),
                ),
            ),
            ("offenders_seen".into(), Json::from(self.offenders.seen())),
        ]
    }

    /// Parses an aggregate back out of journal `extra` fields (the
    /// inverse of [`ShardStats::to_extra`]).
    #[must_use]
    pub fn from_extra(extra: &[(String, Json)]) -> Option<ShardStats> {
        let get = |k: &str| extra.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let num = |k: &str| get(k).and_then(Json::as_u64);
        let mut offenders = Reservoir::new(0);
        for item in get("offenders")?.as_arr()? {
            offenders.items.push(Exemplar::from_json(item)?);
        }
        offenders.seen = num("offenders_seen")?;
        Some(ShardStats {
            devices: num("devices")?,
            finished: num("finished")?,
            out_of_energy: num("out_of_energy")?,
            budget_exhausted: num("budget_exhausted")?,
            livelocked: num("livelocked")?,
            errored: num("errored")?,
            violating_devices: num("violating_devices")?,
            violations: num("violations")?,
            recovered_devices: num("recovered_devices")?,
            power_failures: num("fleet_power_failures")?,
            checkpoints: num("fleet_checkpoints")?,
            instructions: num("instructions")?,
            cycles: num("fleet_cycles")?,
            reactive_us: StreamingHistogram::from_json(get("reactive_us")?)?,
            overhead_permille: StreamingHistogram::from_json(get("overhead_permille")?)?,
            offenders,
        })
    }
}

// ---- the fleet runner ----

/// One fleet configuration: which device to mass-produce and how many
/// different supply fates to subject it to.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// App under test.
    pub app: App,
    /// System under test.
    pub system: SystemUnderTest,
    /// Optimization level.
    pub opt: OptLevel,
    /// Timekeeper every device carries.
    pub clock: ClockKind,
    /// Supply spec, instantiated per device with the device's seed.
    pub supply: SupplySpec,
    /// Workload scale.
    pub scale: u32,
    /// Per-device on-time budget (µs).
    pub time_budget_us: u64,
    /// Boots without forward progress before a device counts as
    /// livelocked.
    pub guard_boots: u64,
    /// Dispatch engine.
    pub engine: DispatchEngine,
    /// The fleet seed all device seeds derive from.
    pub fleet_seed: u64,
}

impl FleetSpec {
    /// Device `d`'s seed — a function of the fleet seed and the global
    /// device index only, so shard boundaries and thread count never
    /// change any device's fate.
    #[must_use]
    pub fn device_seed(&self, device: u64) -> u64 {
        cell_seed(self.fleet_seed, device)
    }
}

/// Runs devices `first..first + count` of `spec` and returns the shard
/// aggregate. Builds the program and [`MachineImage`] once, then
/// recycles one machine (and one runtime) across the whole range.
///
/// # Errors
///
/// Returns a description when the app × system × opt combination does
/// not build or the image does not load. Per-device VM errors do *not*
/// abort the shard; they count into [`ShardStats::errored`].
pub fn run_shard(spec: &FleetSpec, first: u64, count: u64) -> Result<ShardStats, String> {
    let prog = build_app(
        spec.app,
        spec.system,
        spec.opt,
        tics_apps::build::Scale(spec.scale),
    )
    .map_err(|e| e.to_string())?;
    let image = MachineImage::build(
        prog.clone(),
        &MachineConfig {
            sensor_trace: standard_sensor_trace(spec.app, spec.scale),
            ..MachineConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut runtime = tics_apps::build::make_runtime(spec.system, &prog);
    let atomic_timestamps = spec.system == SystemUnderTest::Tics;

    let mut stats = ShardStats::new(spec.device_seed(first));
    let mut machine: Option<Machine> = None;
    for d in first..first + count {
        let seed = spec.device_seed(d);
        let m = recycled_machine(&mut machine, &image, seed, || spec.clock.build())
            .map_err(|e| e.to_string())?;
        runtime.recycle();
        let mut supply = spec.supply.build(seed);
        let outcome = Executor::new()
            .with_engine(spec.engine)
            .with_time_budget(spec.time_budget_us)
            .with_progress_guard(spec.guard_boots)
            .run(m, runtime.as_mut(), supply.as_mut());
        stats.fold_device(d, seed, m, &outcome, atomic_timestamps);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_stream(seed: u64, n: usize, modulus: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = splitmix64(state);
                state % modulus
            })
            .collect()
    }

    #[test]
    fn histogram_buckets_are_exact_below_two_pow_six() {
        for v in 0..64u64 {
            let (lo, hi) = StreamingHistogram::bucket_bounds(StreamingHistogram::bucket(v));
            assert_eq!((lo, hi), (v, v), "value {v} must be exact");
        }
    }

    #[test]
    fn histogram_bucket_bounds_contain_their_values() {
        for &v in &[64u64, 100, 1_000, 65_535, 1 << 33, u64::MAX] {
            let i = StreamingHistogram::bucket(v);
            let (lo, hi) = StreamingHistogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            // Relative error bound: bucket width < lo / 32.
            assert!(hi - lo <= lo / 32, "bucket [{lo}, {hi}] too wide");
        }
    }

    #[test]
    fn histogram_percentiles_bound_sorted_ground_truth() {
        // The exactness property: for arbitrary data, every percentile's
        // reported bounds contain the exact nearest-rank value computed
        // from the fully sorted sample.
        for (seed, modulus) in [(1u64, 100u64), (2, 1 << 20), (3, u64::MAX), (4, 7)] {
            let values = mix_stream(seed, 500, modulus);
            let mut h = StreamingHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
                let rank = StreamingHistogram::rank_of(p, sorted.len() as u64);
                let truth = sorted[usize::try_from(rank).unwrap()];
                let (lo, hi) = h.percentile(p).unwrap();
                assert!(
                    lo <= truth && truth <= hi,
                    "p{p}: ground truth {truth} outside [{lo}, {hi}] (seed {seed})"
                );
            }
            assert_eq!(h.min(), sorted.first().copied());
            assert_eq!(h.max(), sorted.last().copied());
        }
    }

    #[test]
    fn histogram_merge_equals_bulk_recording() {
        let values = mix_stream(9, 300, 1 << 30);
        let mut bulk = StreamingHistogram::new();
        let (mut a, mut b) = (StreamingHistogram::new(), StreamingHistogram::new());
        for (i, &v) in values.iter().enumerate() {
            bulk.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, bulk);
    }

    #[test]
    fn histogram_round_trips_through_json() {
        let mut h = StreamingHistogram::new();
        for &v in &[0u64, 5, 63, 64, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(StreamingHistogram::from_json(&h.to_json()), Some(h.clone()));
        let empty = StreamingHistogram::new();
        assert_eq!(StreamingHistogram::from_json(&empty.to_json()), Some(empty));
    }

    #[test]
    fn reservoir_is_deterministic_and_bounded() {
        let build = || {
            let mut r = Reservoir::new(77);
            for d in 0..1_000u64 {
                r.offer(Exemplar {
                    device: d,
                    seed: d * 3,
                    violations: d % 5,
                    worst_reactive_us: d,
                    outcome: "finished".into(),
                });
            }
            r
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b, "same seed, same stream, same sample");
        assert_eq!(a.items().len(), RESERVOIR_K);
        assert_eq!(a.seen(), 1_000);
        assert_ne!(
            a.items().iter().map(|e| e.device).max(),
            Some(RESERVOIR_K as u64 - 1),
            "replacement must have happened"
        );
    }

    #[test]
    fn reservoir_merge_keeps_the_worst() {
        // Stay under capacity on both sides so no uniform sampling
        // happens before the merge: the worst-K choice is then exact.
        let mut a = Reservoir::new(1);
        let mut b = Reservoir::new(2);
        for d in 0..20u64 {
            let ex = Exemplar {
                device: d,
                seed: d,
                violations: d,
                worst_reactive_us: 0,
                outcome: "finished".into(),
            };
            if d % 2 == 0 {
                a.offer(ex)
            } else {
                b.offer(ex)
            }
        }
        a.merge(&b);
        assert_eq!(a.items().len(), RESERVOIR_K);
        assert_eq!(a.seen(), 20);
        // Worst-K selection is by violations, descending: exactly the
        // top 16 of 0..20 survive.
        let mut kept: Vec<u64> = a.items().iter().map(|e| e.violations).collect();
        kept.sort_unstable();
        assert_eq!(kept, (4..20).collect::<Vec<u64>>());
    }

    #[test]
    fn shard_extra_round_trips() {
        let mut s = ShardStats::new(3);
        s.devices = 10;
        s.finished = 7;
        s.livelocked = 1;
        s.violations = 4;
        s.violating_devices = 2;
        s.instructions = 123_456;
        s.cycles = 999;
        s.reactive_us.record(1_000);
        s.reactive_us.record(250_000);
        s.overhead_permille.record(31);
        s.offenders.offer(Exemplar {
            device: 4,
            seed: 0xFEED_F00D_DEAD_BEEF,
            violations: 3,
            worst_reactive_us: 250_000,
            outcome: "finished".into(),
        });
        assert_eq!(ShardStats::from_extra(&s.to_extra()), Some(s));
    }

    #[test]
    fn device_seeds_ignore_shard_boundaries() {
        let spec = FleetSpec {
            app: App::Ar,
            system: SystemUnderTest::Tics,
            opt: OptLevel::O2,
            clock: ClockKind::Perfect,
            supply: SupplySpec::Continuous,
            scale: 4,
            time_budget_us: 1,
            guard_boots: 8,
            engine: DispatchEngine::Decoded,
            fleet_seed: 0xF1EE7,
        };
        assert_eq!(spec.device_seed(37), cell_seed(0xF1EE7, 37));
        assert_ne!(spec.device_seed(0), spec.device_seed(1));
    }
}
