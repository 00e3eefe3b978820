//! # tics-vm — bytecode VM with pluggable intermittency runtimes
//!
//! Executes [`tics_minic`] bytecode against the simulated MCU of
//! [`tics_mcu`], injecting power failures from a [`tics_energy`] supply.
//! Two design decisions make the paper's phenomena observable:
//!
//! 1. **All program state lives in simulated memory.** Call frames —
//!    including each frame's operand scratch area — are materialized at
//!    real simulated addresses, so pointers are ordinary addresses, stack
//!    contents in FRAM genuinely survive power failures, and partially
//!    updated state is exactly as inconsistent as it would be on the
//!    MSP430. The only volatile machine state is the register file.
//!
//! 2. **Intermittency policy is a trait.** Frame placement, store
//!    interception, checkpointing, boot recovery, and the TICS time
//!    semantics are all routed through [`IntermittentRuntime`]. The TICS
//!    runtime lives in `tics-core`; MementOS/Chinchilla/Ratchet and the
//!    task-based kernels live in `tics-baselines`; [`BareRuntime`] (plain
//!    C: restart from `main` on every reboot) lives here.
//!
//! The [`Executor`] drives a machine + runtime pair through a
//! [`tics_energy::PowerSupply`], producing [`ExecStats`] and a
//! [`RunOutcome`] (finished / out of time / starved).
//!
//! ```
//! use tics_minic::{compile, opt::OptLevel};
//! use tics_vm::{BareRuntime, Executor, Machine, MachineConfig};
//! use tics_energy::ContinuousPower;
//!
//! let prog = compile("int main() { return 6 * 7; }", OptLevel::O2)?;
//! let mut machine = Machine::new(prog, MachineConfig::default())?;
//! let mut runtime = BareRuntime::new();
//! let outcome = Executor::new().run(&mut machine, &mut runtime, &mut ContinuousPower::new())?;
//! assert_eq!(outcome.exit_code(), Some(42));
//! # Ok::<(), tics_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caps;
pub mod decoded;
pub mod driver;
pub mod error;
pub mod exec;
pub mod loaded;
pub mod machine;
pub mod persist;
pub mod runtime;
pub mod stats;

pub use caps::{PortingEffort, RuntimeCapabilities};
pub use decoded::DecodedProgram;
pub use driver::{BackoffPolicy, TxDriver, TX_PROCEED, TX_SKIP_COMMITTED, TX_SKIP_POISONED};
pub use error::VmError;
pub use exec::{DispatchEngine, Executor, RunOutcome};
pub use loaded::LoadedProgram;
pub use machine::{Machine, MachineConfig, MachineImage, SpanGuard};
pub use runtime::{BareRuntime, CheckpointKind, IntermittentRuntime, ResumeAction};
pub use stats::ExecStats;

/// Result alias for VM operations.
pub type Result<T> = std::result::Result<T, VmError>;
