//! # tics-apps — the benchmark applications of the TICS evaluation
//!
//! Mini-C implementations of every application the paper evaluates
//! (§5.1–§5.3), each in the variants the experiments need:
//!
//! * [`ar`] — **Activity Recognition** (AR): windowed accelerometer
//!   features + nearest-centroid classification. Variants: plain legacy
//!   code with *manual* time handling (the Table 2 "w/o TICS" subject),
//!   a TICS-annotated version (`@expires_after`, `@=`, `@expires`,
//!   `@timely`), and hand-ported task-graph versions for the kernels.
//! * [`bc`] — **BitCount** (BC): seven bit-counting methods including a
//!   recursive one, cross-verified per input (MiBench-style).
//! * [`cuckoo`] — **Cuckoo Filter** (CF): insertion over pseudo-random
//!   keys followed by sequence recovery through the same filter.
//! * [`ghm`] — **Greenhouse Monitoring** (GHM): the Table 1 application,
//!   as plain C and as an event-driven program on a TinyOS-style
//!   post/run mini-kernel, with per-routine `nv` completion counters.
//! * [`study`] — the user-study programs (swap, bubble sort,
//!   timekeeping) in TICS style and InK task style, with seeded bugs and
//!   static complexity metrics (the Figure 10 proxy).
//! * [`workload`] — deterministic sensor-trace generators.
//! * [`build`] — one-call compilation + instrumentation of any app for
//!   any system under test, with the paper's infeasible combinations
//!   (BC on Chinchilla, CF on MayFly, …) rejected exactly where the
//!   paper marks a red ✗.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ar;
pub mod bc;
pub mod build;
pub mod cuckoo;
pub mod ghm;
pub mod study;
pub mod workload;

pub use build::{build_app, App, BuildError, SystemUnderTest};
