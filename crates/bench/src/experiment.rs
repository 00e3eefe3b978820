//! The experiment driver every `exp_*` binary runs through.
//!
//! * **one strict parser** — each binary names the flags it accepts;
//!   an unknown flag, a bad value, or an unaccepted `TICS_VM_ENGINE`
//!   exits 2 with one line naming it,
//! * **a run context** — [`Experiment`] hands out a [`Sweep`] with the
//!   parsed knobs applied and collects named gate verdicts; a panicked or
//!   timed-out cell always fails the `cells` gate,
//! * **one baseline step** — [`Experiment::baseline`] compares against or
//!   rewrites a committed `BENCH_*.json`,
//! * **one finish** — [`Experiment::finish`] writes `results/<exp>.json`,
//!   prints the end-of-run summary and returns the exit code: 0 pass,
//!   1 gate or cell failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tics_apps::build::make_runtime;
use tics_apps::{App, SystemUnderTest};
use tics_minic::Program;
use tics_vm::DispatchEngine;

use crate::journal::{CellStatus, JournalRow};
use crate::json::Json;
use crate::sweep::{Cell, CellOutput, Sweep, SweepArgs, SweepOutcome, SweepSummary};

/// The sweep knobs every sweep-running experiment accepts.
pub const SWEEP: [&str; 4] = ["--threads", "--journal", "--cell-timeout-ms", "--resume"];

/// `exp_fig9`'s one positional argument, accepted like a flag.
pub const PANEL: &str = "left|center|right";

/// The flags that take no value.
const SWITCHES: [&str; 4] = ["--resume", "--quick", "--check", "--no-write"];

/// The parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--threads`, `--journal`, `--cell-timeout-ms`, `--resume`.
    pub sweep: SweepArgs,
    /// `--quick`.
    pub quick: bool,
    /// `--check`.
    pub check: bool,
    /// `--no-write`.
    pub no_write: bool,
    /// `--devices N`.
    pub devices: Option<u64>,
    /// `--trace-out PATH`.
    pub trace_out: Option<PathBuf>,
    /// `--trace-cell APP:SYSTEM` (names as journaled, case-insensitive).
    pub trace_cell: Option<(App, SystemUnderTest)>,
    /// The positional panel (`left`, `center` or `right`).
    pub panel: Option<String>,
}

impl Args {
    /// Parses `args` (program name excluded), accepting only the flags
    /// named in `accepted`: any of [`SWEEP`], `--quick`, `--check`,
    /// `--no-write`, `--devices N`, `--trace-out PATH`,
    /// `--trace-cell APP:SYSTEM` and [`PANEL`]. Values may follow as the
    /// next argument or after `=`.
    ///
    /// # Errors
    ///
    /// One line naming the unknown flag, the missing or bad value, or
    /// the unexpected positional argument.
    pub fn parse(
        accepted: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if !accepted.contains(&PANEL) || out.panel.is_some() {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                if !PANEL.split('|').any(|p| p == arg) {
                    return Err(format!(
                        "unknown panel {arg:?}: expected left, center, or right"
                    ));
                }
                out.panel = Some(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if !accepted.contains(&name) {
                let flags: Vec<&str> = accepted.iter().copied().filter(|f| *f != PANEL).collect();
                return Err(format!(
                    "unknown flag {name} (accepted: {})",
                    flags.join(", ")
                ));
            }
            let value = match (SWITCHES.contains(&name), inline) {
                (false, inline) => inline
                    .or_else(|| it.next())
                    .filter(|v| !v.is_empty() && !v.starts_with("--"))
                    .ok_or_else(|| format!("{name} needs a value"))?,
                (true, Some(_)) => return Err(format!("{name} takes no value")),
                (true, None) => String::new(),
            };
            let positive = || {
                value
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("{name} needs a positive integer, got {value:?}"))
            };
            match name {
                "--threads" => {
                    out.sweep.threads = usize::try_from(positive()?).unwrap_or(usize::MAX)
                }
                "--journal" => out.sweep.journal = Some(PathBuf::from(&value)),
                "--cell-timeout-ms" => out.sweep.cell_timeout_ms = Some(positive()?),
                "--resume" => out.sweep.resume = true,
                "--quick" => out.quick = true,
                "--check" => out.check = true,
                "--no-write" => out.no_write = true,
                "--devices" => out.devices = Some(positive()?),
                "--trace-out" => out.trace_out = Some(PathBuf::from(&value)),
                "--trace-cell" => {
                    let cell = value.split_once(':').and_then(|(a, s)| {
                        let app = [App::Ar, App::Bc, App::Cuckoo, App::Ghm, App::GhmTinyos]
                            .into_iter()
                            .find(|x| x.name().eq_ignore_ascii_case(a))?;
                        let system = SystemUnderTest::ALL
                            .into_iter()
                            .find(|x| x.name().eq_ignore_ascii_case(s))?;
                        Some((app, system))
                    });
                    out.trace_cell =
                        Some(cell.ok_or_else(|| format!("{name}: unknown APP:SYSTEM {value:?}"))?);
                }
                _ => unreachable!("accepted flag {name} has no parser"),
            }
        }
        Ok(out)
    }
}

/// Whether `system`'s runtime claims Table 5's memory consistency.
#[must_use]
pub fn claims_consistency(system: SystemUnderTest) -> bool {
    make_runtime(system, &Program::default())
        .capabilities()
        .memory_consistency
}

/// Writes `value` to `results/<name>.json` (best effort: a failed write
/// warns, and the experiment still reports).
pub fn write_result(name: &str, value: &Json) {
    let path = Path::new("results").join(format!("{name}.json"));
    let written =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, value.to_pretty()));
    match written {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// One experiment run: parsed flags, the sweep's summary, and named
/// gates with their failure lines.
#[derive(Debug)]
pub struct Experiment {
    name: String,
    /// The parsed command line.
    pub args: Args,
    started: Instant,
    cells: Option<SweepSummary>,
    gates: Vec<(String, Vec<String>)>,
}

impl Experiment {
    /// A run of experiment `name` with already-parsed `args`.
    #[must_use]
    pub fn new(name: &str, args: Args) -> Experiment {
        Experiment {
            name: name.to_string(),
            args,
            started: Instant::now(),
            cells: None,
            gates: Vec::new(),
        }
    }

    /// Checks the `TICS_VM_ENGINE` environment knob and parses the
    /// process arguments against `accepted`; a usage error prints one
    /// line and exits 2 before anything runs.
    #[must_use]
    pub fn from_env(name: &str, accepted: &[&str]) -> Experiment {
        let parsed = DispatchEngine::try_from_env()
            .and_then(|_| Args::parse(accepted, std::env::args().skip(1)));
        match parsed {
            Ok(args) => Experiment::new(name, args),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// An empty sweep named after the experiment, with the parsed sweep
    /// knobs applied; [`Experiment::finish`] prints its summary.
    #[must_use]
    pub fn sweep(&self) -> Sweep {
        Sweep::new(&self.name).args(self.args.sweep.clone()).quiet()
    }

    /// Runs `sweep` through `runner`; every panicked or timed-out cell
    /// fails the `cells` gate.
    pub fn run<F>(&mut self, sweep: Sweep, runner: F) -> SweepOutcome
    where
        F: Fn(&Cell) -> Result<CellOutput, String> + Sync,
    {
        let outcome = sweep.run_with(runner);
        self.gate("cells");
        for row in &outcome.rows {
            let lost = matches!(row.status, CellStatus::Panicked | CellStatus::Timeout);
            self.check("cells", !lost, || {
                format!(
                    "cell {} ({} x {}): {}",
                    row.cell, row.app, row.system, row.outcome
                )
            });
        }
        self.cells = Some(outcome.summary.clone());
        outcome
    }

    /// The `Ok` rows a consistency-claim gate folds. A row of a system
    /// that claims consistency but is not `Ok` fails `gate`: a dropped
    /// claim cell must never read as the claim holding.
    pub fn claim_rows<'a>(&mut self, gate: &str, outcome: &'a SweepOutcome) -> Vec<&'a JournalRow> {
        self.gate(gate);
        let mut ok = Vec::new();
        for row in &outcome.rows {
            if row.status == CellStatus::Ok {
                ok.push(row);
                continue;
            }
            let claims = SystemUnderTest::ALL
                .into_iter()
                .any(|s| s.name() == row.system && claims_consistency(s));
            self.check(gate, !claims, || {
                format!("{} x {}: {}", row.app, row.system, row.outcome)
            });
        }
        ok
    }

    /// Records a verdict under `gate`: the gate fails on the first
    /// `ok == false`, and `detail` names what failed.
    pub fn check(&mut self, gate: &str, ok: bool, detail: impl FnOnce() -> String) {
        let failures = self.gate(gate);
        if !ok {
            failures.push(detail());
        }
    }

    fn gate(&mut self, gate: &str) -> &mut Vec<String> {
        let i = match self.gates.iter().position(|(g, _)| g == gate) {
            Some(i) => i,
            None => {
                self.gates.push((gate.to_string(), Vec::new()));
                self.gates.len() - 1
            }
        };
        &mut self.gates[i].1
    }

    fn passed(&self) -> bool {
        self.gates.iter().all(|(_, failures)| failures.is_empty())
    }

    /// The baseline step: under `--check`, reads and parses `path` and
    /// folds `compare`'s failure lines into the `baseline` gate;
    /// otherwise writes `result` to `path` unless `--no-write`.
    pub fn baseline(
        &mut self,
        path: &str,
        result: &Json,
        compare: impl FnOnce(&Json) -> Vec<String>,
    ) {
        let failures = if self.args.check {
            match std::fs::read_to_string(path).map(|text| Json::parse(&text)) {
                Ok(Ok(baseline)) => compare(&baseline),
                Ok(Err(e)) => vec![format!("cannot parse {path}: {e:?}")],
                Err(e) => vec![format!("cannot read {path}: {e}")],
            }
        } else if self.args.no_write {
            return;
        } else {
            match std::fs::write(path, result.to_pretty()) {
                Ok(()) => {
                    println!("(wrote baseline {path})");
                    Vec::new()
                }
                Err(e) => vec![format!("cannot write {path}: {e}")],
            }
        };
        self.gate("baseline").extend(failures);
    }

    /// Writes `results/<exp>.json`, prints the end-of-run summary (the
    /// sweep's cell counts, wall time, each gate's verdict with its
    /// failure lines) and returns the exit code: 0 pass, 1 failure.
    #[must_use]
    pub fn finish(self, result: &Json) -> ExitCode {
        write_result(&self.name, result);
        if let Some(summary) = &self.cells {
            println!("{summary}");
        }
        for (gate, failures) in &self.gates {
            if failures.is_empty() {
                println!("gate {gate}: pass");
            } else {
                eprintln!("gate {gate}: FAIL");
                for f in failures {
                    eprintln!("  {f}");
                }
            }
        }
        let passed = self.passed();
        println!(
            "{}: {} in {:.2} s",
            self.name,
            if passed { "pass" } else { "FAIL" },
            self.started.elapsed().as_secs_f64()
        );
        ExitCode::from(u8::from(!passed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(accepted: &[&str], args: &[&str]) -> Result<Args, String> {
        Args::parse(accepted, args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_separate_and_equals_forms() {
        let all = [&SWEEP[..], &["--devices", "--trace-cell", PANEL]].concat();
        let separate = "--threads 3 --journal /tmp/x.jsonl --devices 7 --trace-cell bc:tics left";
        let equals = "--threads=3 --journal=/tmp/x.jsonl --devices=7 --trace-cell=BC:TICS left";
        for line in [separate, equals] {
            let a = Args::parse(&all, line.split(' ').map(String::from)).expect(line);
            assert_eq!(a.sweep.threads, 3);
            assert_eq!(a.sweep.journal, Some(PathBuf::from("/tmp/x.jsonl")));
            assert_eq!(a.devices, Some(7));
            assert_eq!(a.trace_cell, Some((App::Bc, SystemUnderTest::Tics)));
            assert_eq!(a.panel.as_deref(), Some("left"));
        }
        let switches = [&SWITCHES[..], &["--cell-timeout-ms"]].concat();
        let a = parse(
            &switches,
            &[
                "--quick",
                "--check",
                "--no-write",
                "--resume",
                "--cell-timeout-ms=9",
            ],
        );
        let a = a.expect("valid");
        assert!(a.quick && a.check && a.no_write && a.sweep.resume);
        assert_eq!(a.sweep.cell_timeout_ms, Some(9));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values_naming_them() {
        let cases: [(&[&str], &[&str], &str); 12] = [
            (&SWEEP, &["--bogus"], "unknown flag --bogus"),
            (&SWEEP, &["--quick"], "unknown flag --quick"),
            (
                &SWEEP,
                &["--threads", "0"],
                "--threads needs a positive integer",
            ),
            (
                &SWEEP,
                &["--threads=x"],
                "--threads needs a positive integer",
            ),
            (
                &["--devices"],
                &["--devices", "x"],
                "--devices needs a positive integer",
            ),
            (&SWEEP, &["--journal"], "--journal needs a value"),
            (&SWEEP, &["--journal="], "--journal needs a value"),
            (
                &SWEEP,
                &["--threads", "--resume"],
                "--threads needs a value",
            ),
            (&["--quick"], &["--quick=1"], "--quick takes no value"),
            (
                &["--trace-cell"],
                &["--trace-cell", "AR:Nope"],
                "unknown APP:SYSTEM",
            ),
            (&[PANEL], &["middle"], "unknown panel \"middle\""),
            (&SWEEP, &["left"], "unexpected argument \"left\""),
        ];
        for (accepted, args, want) in cases {
            let err = parse(accepted, args).expect_err(want);
            assert!(err.contains(want), "{args:?}: {err}");
            assert!(!err.contains('\n'), "one line: {err}");
        }
    }

    #[test]
    fn a_dropped_claiming_cell_fails_the_claim_gate() {
        let journal =
            std::env::temp_dir().join(format!("tics-exp-claims-{}.jsonl", std::process::id()));
        let args = Args {
            sweep: SweepArgs {
                threads: 1,
                journal: Some(journal.clone()),
                ..SweepArgs::default()
            },
            ..Args::default()
        };
        let mut exp = Experiment::new("claims", args);
        let sweep = exp
            .sweep()
            .cell(Cell::new(App::Bc, SystemUnderTest::Mementos))
            .cell(Cell::new(App::Bc, SystemUnderTest::Tics));
        let outcome = exp.run(sweep, |cell| {
            assert!(cell.system != SystemUnderTest::Tics, "oracle harness bug");
            Ok(CellOutput::default())
        });
        let _ = std::fs::remove_file(&journal);
        let folded = exp.claim_rows("claims", &outcome);
        assert_eq!(folded.len(), 1, "only the naive row folds");
        assert!(!exp.passed());
        let failing: Vec<&str> = exp
            .gates
            .iter()
            .filter(|(_, f)| !f.is_empty())
            .map(|(g, _)| g.as_str())
            .collect();
        assert_eq!(failing, ["cells", "claims"]);
        assert!(exp.gates[1].1[0].contains("TICS"), "{:?}", exp.gates);
    }

    #[test]
    fn claims_follow_the_capability_matrix() {
        assert!(claims_consistency(SystemUnderTest::Tics));
        assert!(claims_consistency(SystemUnderTest::Ratchet));
        assert!(!claims_consistency(SystemUnderTest::Mementos));
        assert!(!claims_consistency(SystemUnderTest::PlainC));
    }
}
