//! # tics-bench — the experiment harness
//!
//! One module per concern, one binary per table/figure of the paper:
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp_table1` | Table 1 — GHM routine counts & consistency vs intermittency |
//! | `exp_table2` | Table 2 — time-consistency violations, AR w/ and w/o TICS |
//! | `exp_table3` | Table 3 — `.text`/`.data` for InK / Chinchilla / TICS |
//! | `exp_table4` | Table 4 — per-operation runtime overheads |
//! | `exp_table5` | Table 5 — the runtime capability matrix |
//! | `exp_fig9`   | Figure 9 — benchmark performance (three panels) |
//! | `exp_fig10`  | Figure 10 — user-study proxy (complexity + synthetic reviewers) |
//! | `exp_ablations` | design-choice ablations beyond the paper |
//! | `exp_fault`  | adversarial fault injection vs the crash-consistency oracle |
//! | `exp_chaos`  | brown-out checkpoint corruption vs the detect-or-die oracle |
//! | `exp_periph` | torn-wire UART/I2C peripherals vs the detect-or-recover oracle |
//! | `exp_profile` | Table 4 re-derived from attributed spans + Figure-9-style cycle breakdown + Chrome trace export |
//! | `exp_bench`  | decoded vs reference dispatch engine: equivalence and speedup (`BENCH_interpreter.json`) |
//! | `exp_fleet`  | fleet-scale streaming Monte Carlo over the capability matrix (`BENCH_fleet.json`) |
//!
//! Every binary runs through one [`experiment::Experiment`]: a strict
//! flag parser, named gates, and one `finish` that writes
//! `results/<exp>.json` and picks the exit code. All but `exp_bench`
//! (which times its cells on one thread) run a [`sweep::Sweep`] grid on
//! a work-stealing thread pool, fold its [`journal::JournalRow`]s into
//! the printed table, and leave the full per-cell record in
//! `results/<exp>.jsonl` (`--journal PATH` overrides). The [`oracle`] module is the simulation's logic
//! analyzer: it derives the paper's three time-consistency violation
//! counts from ground-truth event timelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod fault;
pub mod fleet;
pub mod journal;
pub mod json;
pub mod oracle;
pub mod periph;
pub mod reviewer;
pub mod sweep;

pub use fleet::{run_shard, Exemplar, FleetSpec, Reservoir, ShardStats, StreamingHistogram};
pub use json::Json;
pub use oracle::{count_violations, Violations};
pub use sweep::{
    Cell, CellOutput, ClockKind, SupplySpec, Sweep, SweepArgs, SweepOutcome, SweepSummary,
};
