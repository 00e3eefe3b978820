//! One-call build of any benchmark for any system under test.

use std::error::Error;
use std::fmt;

use tics_baselines::{ChinchillaRuntime, NaiveCheckpoint, RatchetRuntime, TaskFlavor, TaskKernel};
use tics_core::{TicsConfig, TicsRuntime};
use tics_minic::opt::OptLevel;
use tics_minic::{compile, passes, CompileError, Program};
use tics_vm::{BareRuntime, IntermittentRuntime};

use crate::{ar, bc, cuckoo, ghm};

/// The benchmark applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Activity recognition (plain / annotated / task variants chosen
    /// per system).
    Ar,
    /// Bitcount with seven methods (recursive where supported).
    Bc,
    /// Cuckoo filter with sequence recovery.
    Cuckoo,
    /// Greenhouse monitoring, superloop form.
    Ghm,
    /// Greenhouse monitoring, TinyOS-style event-driven form.
    GhmTinyos,
}

impl App {
    /// Short display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            App::Ar => "AR",
            App::Bc => "BC",
            App::Cuckoo => "CF",
            App::Ghm => "GHM",
            App::GhmTinyos => "GHM-TinyOS",
        }
    }
}

/// The systems compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemUnderTest {
    /// Unprotected legacy code (restarts from `main`).
    PlainC,
    /// TICS (this paper).
    Tics,
    /// MementOS-style naive checkpointing.
    Mementos,
    /// Chinchilla.
    Chinchilla,
    /// Ratchet.
    Ratchet,
    /// Alpaca task kernel.
    Alpaca,
    /// InK task kernel.
    Ink,
    /// MayFly task kernel.
    Mayfly,
}

impl SystemUnderTest {
    /// All systems, in the paper's comparison order.
    pub const ALL: [SystemUnderTest; 8] = [
        SystemUnderTest::PlainC,
        SystemUnderTest::Tics,
        SystemUnderTest::Mementos,
        SystemUnderTest::Chinchilla,
        SystemUnderTest::Ratchet,
        SystemUnderTest::Alpaca,
        SystemUnderTest::Ink,
        SystemUnderTest::Mayfly,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SystemUnderTest::PlainC => "plain-C",
            SystemUnderTest::Tics => "TICS",
            SystemUnderTest::Mementos => "MementOS",
            SystemUnderTest::Chinchilla => "Chinchilla",
            SystemUnderTest::Ratchet => "Ratchet",
            SystemUnderTest::Alpaca => "Alpaca",
            SystemUnderTest::Ink => "InK",
            SystemUnderTest::Mayfly => "MayFly",
        }
    }

    /// The task kernel this system is, if it is one: task kernels run
    /// hand-ported task graphs instead of legacy code.
    #[must_use]
    pub fn task_flavor(self) -> Option<TaskFlavor> {
        match self {
            SystemUnderTest::Alpaca => Some(TaskFlavor::Alpaca),
            SystemUnderTest::Ink => Some(TaskFlavor::Ink),
            SystemUnderTest::Mayfly => Some(TaskFlavor::Mayfly),
            _ => None,
        }
    }

    /// The optimization level this system's toolchain builds at when
    /// `wanted` is asked for: Chinchilla's exists only at `-O0`.
    #[must_use]
    pub fn toolchain_opt(self, wanted: OptLevel) -> OptLevel {
        if self == SystemUnderTest::Chinchilla {
            OptLevel::O0
        } else {
            wanted
        }
    }
}

/// Why a program × system build is not possible.
#[derive(Debug)]
pub enum BuildError {
    /// The combination is infeasible — the paper's red ✗ cells. Carries
    /// why, quoting the paper where applicable.
    Unsupported(String),
    /// Compilation or instrumentation failed.
    Compile(CompileError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Unsupported(reason) => f.write_str(reason),
            BuildError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl Error for BuildError {}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> Self {
        BuildError::Compile(e)
    }
}

/// A hand-ported task graph: its source and its task functions.
pub type TaskPort<'a> = (&'a str, &'a [&'a str]);

/// Workload scale for a build (iterations/windows/keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u32);

impl Default for Scale {
    fn default() -> Self {
        Scale(24)
    }
}

/// Builds (compiles + instruments) caller-supplied sources for `system`
/// at `opt`. This is the one home of the per-system build rules:
///
/// * a task kernel compiles `task` — the hand-ported task graph, or why
///   there is none — with its flavor's kernel footprint;
/// * every other system compiles `legacy` and applies its own pass;
/// * Chinchilla's toolchain exists only at `-O0`
///   ([`SystemUnderTest::toolchain_opt`]), and its pass refuses recursive
///   programs, because it promotes locals to globals.
///
/// # Errors
///
/// Returns [`BuildError::Unsupported`] for the infeasible combinations
/// and [`BuildError::Compile`] for compile failures.
pub fn build_program(
    system: SystemUnderTest,
    legacy: &str,
    task: Result<TaskPort<'_>, &str>,
    opt: OptLevel,
) -> Result<Program, BuildError> {
    if system.toolchain_opt(opt) != opt {
        return Err(BuildError::Unsupported(format!(
            "its toolchain requires -{} (the paper's Figure 9 marks every \
             other optimization level with a red cross)",
            system.toolchain_opt(opt)
        )));
    }
    if let Some(flavor) = system.task_flavor() {
        let (src, tasks) = task.map_err(|why| BuildError::Unsupported(why.into()))?;
        let mut prog = compile(src, opt)?;
        passes::instrument_task_based(
            &mut prog,
            tasks,
            flavor.runtime_text_bytes(),
            flavor.runtime_data_bytes(),
        )?;
        return Ok(prog);
    }
    let mut prog = compile(legacy, opt)?;
    match system {
        SystemUnderTest::PlainC => {}
        SystemUnderTest::Tics => passes::instrument_tics(&mut prog)?,
        SystemUnderTest::Mementos => passes::instrument_mementos(&mut prog)?,
        SystemUnderTest::Chinchilla => passes::instrument_chinchilla(&mut prog)
            .map_err(|e| BuildError::Unsupported(e.message))?,
        SystemUnderTest::Ratchet => passes::instrument_ratchet(&mut prog)?,
        SystemUnderTest::Alpaca | SystemUnderTest::Ink | SystemUnderTest::Mayfly => {
            unreachable!("task kernels are built above")
        }
    }
    Ok(prog)
}

/// Builds `app` for `system` at `opt` with [`build_program`], picking the
/// source variant per system: the TICS-annotated AR for TICS, the
/// manual-time AR for the time-blind systems, and the hand-ported task
/// graphs (timed AR for InK and MayFly) for the task kernels. GHM has no
/// task port, and CF none for MayFly.
///
/// # Errors
///
/// Returns [`BuildError`] as described at [`build_program`].
pub fn build_app(
    app: App,
    system: SystemUnderTest,
    opt: OptLevel,
    scale: Scale,
) -> Result<Program, BuildError> {
    let n = scale.0;
    let flavor = system.task_flavor();
    let legacy = match app {
        App::Ar if system == SystemUnderTest::Tics => ar::tics_src(n),
        App::Ar => ar::plain_src(n),
        App::Bc => bc::plain_src(n),
        App::Cuckoo => cuckoo::plain_src(n),
        App::Ghm => ghm::plain_src(n),
        App::GhmTinyos => ghm::tinyos_src(n),
    };
    let port = match app {
        App::Ar => Ok((
            ar::task_src(n, flavor != Some(TaskFlavor::Alpaca)),
            ar::TASK_FUNCTIONS,
        )),
        App::Bc => Ok((bc::task_src(n), bc::TASK_FUNCTIONS)),
        App::Cuckoo if flavor == Some(TaskFlavor::Mayfly) => {
            Err("loops are not allowed in a MayFly task graph (§5.3)")
        }
        App::Cuckoo => Ok((cuckoo::task_src(n), cuckoo::TASK_FUNCTIONS)),
        App::Ghm | App::GhmTinyos => {
            Err("the Table 1 experiment runs GHM as legacy code, not a task port")
        }
    };
    let task = port.as_ref().map(|(src, tasks)| (src.as_str(), *tasks));
    build_program(system, &legacy, task.map_err(|why| *why), opt).map_err(|e| match e {
        BuildError::Unsupported(why) => BuildError::Unsupported(format!(
            "{} cannot run {}: {why}",
            system.name(),
            app.name()
        )),
        e => e,
    })
}

/// Creates a default-configured runtime for `system`. The TICS segment
/// size is fitted to the program's largest frame
/// ([`TicsConfig::fitted_to`]).
#[must_use]
pub fn make_runtime(system: SystemUnderTest, program: &Program) -> Box<dyn IntermittentRuntime> {
    match system {
        SystemUnderTest::PlainC => Box::new(BareRuntime::new()),
        SystemUnderTest::Tics => {
            Box::new(TicsRuntime::new(TicsConfig::s2_star().fitted_to(program)))
        }
        SystemUnderTest::Mementos => Box::new(NaiveCheckpoint::default()),
        SystemUnderTest::Chinchilla => Box::new(ChinchillaRuntime::default()),
        SystemUnderTest::Ratchet => Box::new(RatchetRuntime::default()),
        SystemUnderTest::Alpaca | SystemUnderTest::Ink | SystemUnderTest::Mayfly => Box::new(
            TaskKernel::new(system.task_flavor().expect("a task kernel")),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_matrix_matches_figure9() {
        // At -O0: everything except BC×Chinchilla and CF×MayFly (GHM is a
        // Table 1 app, not a task-port subject). Above -O0, Chinchilla's
        // toolchain drops out entirely (the Figure 9 red crosses).
        for app in [App::Ar, App::Bc, App::Cuckoo] {
            for system in SystemUnderTest::ALL {
                for opt in OptLevel::ALL {
                    let r = build_app(app, system, opt, Scale(8));
                    let infeasible = matches!(
                        (app, system),
                        (App::Bc, SystemUnderTest::Chinchilla)
                            | (App::Cuckoo, SystemUnderTest::Mayfly)
                    ) || (system == SystemUnderTest::Chinchilla
                        && opt != OptLevel::O0);
                    assert_eq!(
                        r.is_err(),
                        infeasible,
                        "{} x {} at {opt}: {:?}",
                        app.name(),
                        system.name(),
                        r.err().map(|e| e.to_string())
                    );
                }
            }
        }
    }

    #[test]
    fn built_programs_pass_their_runtimes_checks() {
        for app in [App::Ar, App::Bc, App::Cuckoo] {
            for system in SystemUnderTest::ALL {
                let Ok(prog) = build_app(app, system, OptLevel::O2, Scale(8)) else {
                    continue;
                };
                let rt = make_runtime(system, &prog);
                rt.check_program(&prog).unwrap_or_else(|e| {
                    panic!("{} x {}: {e}", app.name(), system.name());
                });
            }
        }
    }

    #[test]
    fn ghm_builds_for_checkpointing_systems() {
        for system in [
            SystemUnderTest::PlainC,
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
        ] {
            assert!(build_app(App::Ghm, system, OptLevel::O2, Scale(10)).is_ok());
            assert!(build_app(App::GhmTinyos, system, OptLevel::O2, Scale(10)).is_ok());
        }
    }

    #[test]
    fn unsupported_errors_cite_reasons() {
        let e =
            build_app(App::Bc, SystemUnderTest::Chinchilla, OptLevel::O0, Scale(4)).unwrap_err();
        assert!(e.to_string().contains("recursion"));
        let e =
            build_app(App::Cuckoo, SystemUnderTest::Mayfly, OptLevel::O0, Scale(4)).unwrap_err();
        assert!(e.to_string().contains("loops"));
    }
}
