//! # tics-mcu — MSP430FR-class microcontroller substrate
//!
//! This crate simulates the architectural properties of the
//! MSP430FR5969-style microcontrollers that TICS (ASPLOS 2020) targets:
//!
//! * a small **volatile SRAM** region and a larger **persistent FRAM**
//!   region in a single byte-addressable address space,
//! * a **volatile register file** (program counter, stack pointer, frame
//!   pointer, status bits) that is lost on every power failure,
//! * a **cycle cost model** calibrated so that one cycle equals one
//!   microsecond at the paper's 1 MHz clock, with distinct costs for SRAM
//!   and FRAM traffic (Table 4 of the paper),
//! * **power-failure semantics**: [`Memory::power_fail`] clobbers all
//!   volatile state while FRAM contents survive byte-for-byte.
//!
//! Higher layers (the bytecode VM in `tics-vm`, the TICS runtime in
//! `tics-core`, and the baseline runtimes in `tics-baselines`) build on this
//! substrate; none of them touch host memory directly, so every consistency
//! property the paper discusses is observable here.
//!
//! ## Example
//!
//! ```
//! use tics_mcu::{Memory, MemoryLayout};
//!
//! let layout = MemoryLayout::default();
//! let mut mem = Memory::new(layout);
//! let a = mem.layout().fram.start;
//! mem.write_word(a, 0xDEAD_BEEF).unwrap();
//! mem.power_fail();
//! assert_eq!(mem.read_word(a).unwrap(), 0xDEAD_BEEF); // FRAM survives
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod crc;
pub mod layout;
pub mod memory;
pub mod periph;
pub mod region;
pub mod registers;

pub use costs::CostModel;
pub use crc::{crc32, Crc32};
pub use layout::MemoryLayout;
pub use memory::{CorruptionModel, Memory, MemoryError, WordBurst, ATOMIC_STORE_BYTES};
pub use periph::{I2c, I2cWireOp, PeripheralBus, ServedRead, Uart, WireByte};
pub use region::{Addr, Region};
pub use registers::Registers;

/// The splitmix64 increment (2^64 / golden ratio): a stream seeded with
/// `s` draws `splitmix64(s)`, `splitmix64(s + SPLITMIX64_GAMMA)`, ...
pub(crate) const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 — the seed mixer of the simulator and everything built on
/// it: brown-out corruption draws, peripheral fates, retry jitter and
/// per-cell sweep seeds. Small, well-mixed, and stable across platforms.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, MemoryError>;
