//! # tics-core — the TICS runtime (the paper's contribution)
//!
//! Implements the Time-sensitive Intermittent Computing System of
//! Kortbeek et al., ASPLOS 2020, as an `IntermittentRuntime` for the
//! `tics-vm` machine:
//!
//! * **Stack segmentation** (§3.1.1): the stack is a fixed array of
//!   equal-size segments in FRAM; only the top ("working") segment is
//!   ever modified directly, so a checkpoint commits at most one segment
//!   — giving the *fixed worst-case checkpoint time* the paper claims.
//!   Function entries check availability and grow/shrink the working
//!   segment, copying arguments across (Figure 7).
//! * **Memory consistency via undo logging** (§3.1.2): stores to globals
//!   or to stack segments *other than* the working one save the old value
//!   in a persistent undo log; the log is cleared on every successful
//!   checkpoint and rolled back on reboot. This is what lets TICS run
//!   *unaltered C with pointers and recursion* without checkpointing all
//!   of main memory.
//! * **Two-phase committed checkpoints** (§4): registers + the working
//!   segment go to a double-buffered FRAM area; a single flag write
//!   flips the valid buffer, so a failure mid-checkpoint falls back to
//!   the previous one.
//! * **Time semantics** (§3.2): per-variable timestamps updated by `@=`,
//!   freshness guards (`@expires`), expiration exceptions
//!   (`@expires`/`catch`, with partial undo-log rollback and control
//!   transfer), and timely branches (`@timely`), driven by a persistent
//!   timekeeper.
//!
//! Every piece of runtime state that must survive a power failure lives
//! in simulated FRAM (see [`layout::RuntimeLayout`]); host-side fields
//! are only caches that are rebuilt on boot.
//!
//! ```
//! use tics_core::{TicsConfig, TicsRuntime};
//! use tics_minic::{compile, opt::OptLevel, passes};
//! use tics_vm::{Executor, Machine, MachineConfig};
//! use tics_energy::PeriodicTrace;
//!
//! let mut prog = compile(
//!     "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
//!      int main() { return fib(10); }",
//!     OptLevel::O2,
//! )?;
//! passes::instrument_tics(&mut prog)?;
//! let mut machine = Machine::new(prog, MachineConfig::default())?;
//! let mut tics = TicsRuntime::new(TicsConfig::default());
//! // Power fails every 20 ms — the recursion still completes.
//! let out = Executor::new().run(&mut machine, &mut tics, &mut PeriodicTrace::new(20_000, 1_000))?;
//! assert_eq!(out.exit_code(), Some(55));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod layout;
pub mod runtime;

pub use config::TicsConfig;
pub use layout::RuntimeLayout;
pub use runtime::{ctrl_flag, TicsRuntime};
