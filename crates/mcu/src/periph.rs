//! Wire-level peripheral models: a UART and an I2C sensor.
//!
//! Both model the property that makes peripheral I/O a distinct
//! intermittent-computing failure class: **the device on the other end
//! of the bus keeps its own state across our power cuts**. MCU-side
//! FIFO contents are volatile and vanish with SRAM, but everything the
//! device has seen — bytes already clocked onto the wire, a transaction
//! left half-completed at a START condition, the sensor's read-out
//! cursor — survives the reboot. A checkpointing runtime that rewinds
//! the *program* cannot rewind the *wire*; re-executed I/O duplicates
//! side effects unless a driver layer makes transactions idempotent.
//!
//! The models are deterministic (sensor readings and UART responses are
//! seeded hash streams) so a faulted replay can be judged against a
//! continuous-power golden run, and each device keeps a **wire log**
//! — the ground-truth record of what the outside world observed — that
//! the `exp_periph` oracle replays.

use std::collections::VecDeque;

use tics_trace::I2cPhase;

use crate::splitmix64;

/// Cycles (≡ µs at the 1 MHz clock) to clock one UART byte at
/// ~115200 baud: 10 bit-times of ~8.7 µs.
pub const UART_BYTE_CYCLES: u64 = 87;

/// Cycles for one I2C phase (START+address, one data byte, or STOP) at
/// ~400 kHz fast mode: 9 bit-times of ~2.5 µs, rounded with overhead.
pub const I2C_PHASE_CYCLES: u64 = 25;

/// MCU-side UART RX FIFO depth (hardware registers, volatile).
pub const UART_FIFO_DEPTH: usize = 16;

/// The I2C sensor's bus address; anything else NACKs.
pub const I2C_SENSOR_ADDR: u8 = 0x40;

/// Bytes in one complete sensor reading.
pub const I2C_READING_BYTES: u8 = 2;

/// One byte as the UART device saw it on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireByte {
    /// The byte value the MCU shifted out.
    pub byte: u8,
    /// Whether the power cut landed mid-byte: the device received a
    /// half-clocked, unusable symbol (framing error).
    pub torn: bool,
    /// True wall-clock µs at which the byte finished (or died) on the
    /// wire.
    pub at_us: u64,
}

/// One I2C bus phase as the sensor saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct I2cWireOp {
    /// Which phase.
    pub op: I2cPhase,
    /// Address for START, data byte for read/write, zero otherwise.
    pub value: u8,
    /// Whether the device acknowledged the phase.
    pub ack: bool,
    /// True wall-clock µs.
    pub at_us: u64,
}

/// One sensor reading the device served through a *completed* read
/// transaction (both data bytes clocked out untorn, then a STOP). The
/// read-out cursor only advances on completion, so a torn transaction
/// retried after a reboot is served the same reading again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRead {
    /// Monotonic reading index (the device's sample counter).
    pub index: u32,
    /// The 14-bit reading value.
    pub value: u16,
    /// True wall-clock µs at which the STOP committed the transaction.
    pub at_us: u64,
}

/// UART with a volatile MCU-side RX FIFO and a persistent device on the
/// far end that logs every received byte and answers each complete byte
/// with a deterministic response (request/response protocols read the
/// answers back with `uart_rx`).
#[derive(Debug, Clone, Default)]
pub struct Uart {
    /// MCU-side RX FIFO — **volatile**, cleared on power failure.
    rx_fifo: VecDeque<u8>,
    /// Everything that ever appeared on the TX wire — device-side,
    /// persistent. The oracle's ground truth.
    wire: Vec<WireByte>,
    /// Device-side outbound queue: responses generated but not yet
    /// pulled into the MCU FIFO. Persistent.
    device_out: VecDeque<u8>,
    /// Every response byte the device ever generated, in order.
    /// Persistent; the oracle checks committed responses against it.
    responses: Vec<u8>,
}

impl Uart {
    /// The device's deterministic response to one received byte.
    #[must_use]
    pub fn respond(byte: u8) -> u8 {
        byte.wrapping_mul(31).wrapping_add(7) ^ 0x5A
    }

    /// Clocks one byte onto the wire. `torn` means the energy deadline
    /// fell inside the byte time; the device logs a framing error and
    /// generates no response.
    pub fn tx(&mut self, byte: u8, torn: bool, at_us: u64) {
        self.wire.push(WireByte { byte, torn, at_us });
        if !torn {
            let r = Self::respond(byte);
            self.device_out.push_back(r);
            self.responses.push(r);
        }
    }

    /// Reads one byte: refills the MCU FIFO from the device's outbound
    /// queue if empty, then pops. Returns `-1` when nothing is pending
    /// anywhere.
    pub fn rx(&mut self) -> i32 {
        if self.rx_fifo.is_empty() {
            while self.rx_fifo.len() < UART_FIFO_DEPTH {
                let Some(b) = self.device_out.pop_front() else {
                    break;
                };
                self.rx_fifo.push_back(b);
            }
        }
        self.rx_fifo.pop_front().map_or(-1, i32::from)
    }

    /// Whether a byte is ready for [`Uart::rx`] without returning `-1`
    /// (the RX interrupt line level).
    #[must_use]
    pub fn rx_pending(&self) -> bool {
        !self.rx_fifo.is_empty() || !self.device_out.is_empty()
    }

    /// The TX wire log (device-side ground truth).
    #[must_use]
    pub fn wire(&self) -> &[WireByte] {
        &self.wire
    }

    /// Every response byte the device generated, in order.
    #[must_use]
    pub fn responses(&self) -> &[u8] {
        &self.responses
    }

    /// Power failure: MCU-side FIFO contents are lost; the device side
    /// (wire log, outbound queue, response history) survives.
    pub fn power_fail(&mut self) {
        self.rx_fifo.clear();
    }

    /// Returns the UART — both sides of the wire — to its
    /// as-constructed state, keeping the log allocations. Unlike
    /// [`Uart::power_fail`], this models swapping in a *new device*,
    /// not rebooting the same one: machine recycling only.
    pub fn recycle(&mut self) {
        self.rx_fifo.clear();
        self.wire.clear();
        self.device_out.clear();
        self.responses.clear();
    }
}

/// The sensor's transaction-phase state, persistent across MCU reboots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum I2cState {
    /// No transaction open.
    #[default]
    Idle,
    /// START + address acknowledged, no data moved yet.
    Started,
    /// `served` data bytes of the current reading clocked out.
    Reading {
        /// Bytes served so far (< [`I2C_READING_BYTES`] mid-read).
        served: u8,
    },
}

/// I2C master + simulated multi-byte sensor. The sensor serves 14-bit
/// readings two bytes at a time; its read-out cursor advances only when
/// a read transaction *completes* (all bytes + STOP). A reboot leaves
/// the device mid-transaction: the next START is NACKed until the
/// master issues a bus-clear ([`I2c::reset`]).
#[derive(Debug, Clone)]
pub struct I2c {
    state: I2cState,
    sample_counter: u32,
    seed: u64,
    wire: Vec<I2cWireOp>,
    served: Vec<ServedRead>,
}

impl I2c {
    /// A sensor with a deterministic reading stream derived from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> I2c {
        I2c {
            state: I2cState::Idle,
            sample_counter: 0,
            seed,
            wire: Vec::new(),
            served: Vec::new(),
        }
    }

    /// The reading the sensor serves at cursor `index` for `seed` —
    /// exposed so golden runs and oracles can recompute the stream.
    #[must_use]
    pub fn reading_at(seed: u64, index: u32) -> u16 {
        (splitmix64(seed ^ (u64::from(index) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)) & 0x3FFF)
            as u16
    }

    fn log(&mut self, op: I2cPhase, value: u8, ack: bool, at_us: u64) -> bool {
        self.wire.push(I2cWireOp {
            op,
            value,
            ack,
            at_us,
        });
        ack
    }

    /// START condition + address phase. NACKed if the address is wrong,
    /// the phase tore, or the device is still mid-transaction from
    /// before a reboot (the torn-wire failure this module exists to
    /// model).
    pub fn start(&mut self, addr: u8, torn: bool, at_us: u64) -> bool {
        if torn || addr != I2C_SENSOR_ADDR || self.state != I2cState::Idle {
            return self.log(I2cPhase::Start, addr, false, at_us);
        }
        self.state = I2cState::Started;
        self.log(I2cPhase::Start, addr, true, at_us)
    }

    /// One data byte written to the device (register select; the sensor
    /// accepts and ignores it mid-transaction).
    pub fn write(&mut self, byte: u8, torn: bool, at_us: u64) -> bool {
        let ok = !torn && self.state == I2cState::Started;
        self.log(I2cPhase::Write, byte, ok, at_us)
    }

    /// One data byte read from the current reading. Returns `None` (and
    /// logs a NACK) outside an open transaction, past the reading
    /// length, or when the phase tore.
    pub fn read(&mut self, torn: bool, at_us: u64) -> Option<u8> {
        let served = match self.state {
            I2cState::Started => 0,
            I2cState::Reading { served } => served,
            I2cState::Idle => {
                self.log(I2cPhase::Read, 0, false, at_us);
                return None;
            }
        };
        if torn || served >= I2C_READING_BYTES {
            self.log(I2cPhase::Read, 0, false, at_us);
            return None;
        }
        let value = Self::reading_at(self.seed, self.sample_counter);
        let byte = if served == 0 {
            (value >> 8) as u8
        } else {
            (value & 0xFF) as u8
        };
        self.state = I2cState::Reading { served: served + 1 };
        self.log(I2cPhase::Read, byte, true, at_us);
        Some(byte)
    }

    /// STOP condition. Completes the transaction — advancing the
    /// sensor's cursor and recording a [`ServedRead`] — only if the
    /// whole reading was clocked out and the STOP itself did not tear.
    /// Returns whether the transaction committed on the device.
    pub fn stop(&mut self, torn: bool, at_us: u64) -> bool {
        if torn {
            // The device never saw the STOP; it stays mid-transaction.
            return self.log(I2cPhase::Stop, 0, false, at_us);
        }
        let complete =
            matches!(self.state, I2cState::Reading { served } if served >= I2C_READING_BYTES);
        if complete {
            self.served.push(ServedRead {
                index: self.sample_counter,
                value: Self::reading_at(self.seed, self.sample_counter),
                at_us,
            });
            self.sample_counter += 1;
        }
        self.state = I2cState::Idle;
        self.log(I2cPhase::Stop, 0, complete, at_us)
    }

    /// Bus-clear (nine clock pulses): aborts any half-completed
    /// transaction without committing it. Always succeeds; the cursor
    /// does not advance, so a retried read serves the same reading.
    pub fn reset(&mut self, at_us: u64) -> bool {
        self.state = I2cState::Idle;
        self.log(I2cPhase::Reset, 0, true, at_us)
    }

    /// Whether the device is mid-transaction (a START now would NACK).
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.state != I2cState::Idle
    }

    /// The bus-phase wire log (device-side ground truth).
    #[must_use]
    pub fn wire(&self) -> &[I2cWireOp] {
        &self.wire
    }

    /// Readings served through completed transactions, in order.
    #[must_use]
    pub fn served(&self) -> &[ServedRead] {
        &self.served
    }

    /// The sensor's seed (for oracles recomputing the stream).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the sensor with a fresh one serving the `seed` stream,
    /// keeping the log allocations. Distinct from [`I2c::reset`], which
    /// is the *bus-clear operation* on the same device.
    pub fn recycle(&mut self, seed: u64) {
        self.state = I2cState::Idle;
        self.sample_counter = 0;
        self.seed = seed;
        self.wire.clear();
        self.served.clear();
    }
}

/// The machine's peripheral complement: one UART, one I2C sensor.
#[derive(Debug, Clone)]
pub struct PeripheralBus {
    /// The UART (telemetry out, request/response).
    pub uart: Uart,
    /// The I2C master + sensor.
    pub i2c: I2c,
}

impl PeripheralBus {
    /// Peripherals with device streams derived from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> PeripheralBus {
        PeripheralBus {
            uart: Uart::default(),
            i2c: I2c::new(splitmix64(seed ^ 0x1C2C_5EED_0000_0001)),
        }
    }

    /// Power failure: volatile MCU-side peripheral state (FIFOs) is
    /// lost; device-side state — wire logs, the sensor's transaction
    /// phase and cursor, pending responses — survives. This asymmetry
    /// *is* the torn-wire failure class.
    pub fn power_fail(&mut self) {
        self.uart.power_fail();
    }

    /// Swaps in factory-fresh peripherals with device streams derived
    /// from `seed`, reusing the wire-log allocations. Must match
    /// [`PeripheralBus::new`] observably — the machine-reset
    /// differential test covers it.
    pub fn recycle(&mut self, seed: u64) {
        self.uart.recycle();
        self.i2c.recycle(splitmix64(seed ^ 0x1C2C_5EED_0000_0001));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uart_device_state_survives_power_fail_but_fifo_does_not() {
        let mut u = Uart::default();
        u.tx(0x41, false, 10);
        u.tx(0x42, true, 20); // torn: no response generated
        assert_eq!(u.wire().len(), 2);
        assert!(u.wire()[1].torn);
        assert_eq!(u.responses().len(), 1);
        assert!(u.rx_pending());
        // Pull the response into the MCU FIFO, then lose power.
        assert_eq!(u.rx(), i32::from(Uart::respond(0x41)));
        u.tx(0x43, false, 30);
        assert_eq!(u.rx(), i32::from(Uart::respond(0x43)));
        u.power_fail();
        // Wire log persisted; FIFO and consumed responses are gone.
        assert_eq!(u.wire().len(), 3);
        assert_eq!(u.rx(), -1);
    }

    #[test]
    fn i2c_read_transaction_advances_only_on_completed_stop() {
        let mut d = I2c::new(99);
        assert!(d.start(I2C_SENSOR_ADDR, false, 0));
        let hi = d.read(false, 1).unwrap();
        let lo = d.read(false, 2).unwrap();
        assert!(d.stop(false, 3));
        let r0 = I2c::reading_at(99, 0);
        assert_eq!((u16::from(hi) << 8) | u16::from(lo), r0);
        assert_eq!(d.served().len(), 1);
        assert_eq!(d.served()[0].index, 0);

        // Half-completed transaction: cursor must not advance.
        assert!(d.start(I2C_SENSOR_ADDR, false, 4));
        let hi2 = d.read(false, 5).unwrap();
        assert_eq!(u16::from(hi2), I2c::reading_at(99, 1) >> 8);
        // Power dies here: the device stays mid-transaction.
        assert!(d.is_busy());
        assert!(!d.start(I2C_SENSOR_ADDR, false, 6), "START must NACK");
        assert!(d.reset(7));
        assert!(d.start(I2C_SENSOR_ADDR, false, 8));
        let hi3 = d.read(false, 9).unwrap();
        // Same reading served again: nothing was committed.
        assert_eq!(hi3, hi2);
        let _ = d.read(false, 10).unwrap();
        assert!(d.stop(false, 11));
        assert_eq!(d.served().len(), 2);
        assert_eq!(d.served()[1].index, 1);
    }

    #[test]
    fn torn_stop_does_not_commit() {
        let mut d = I2c::new(7);
        assert!(d.start(I2C_SENSOR_ADDR, false, 0));
        let _ = d.read(false, 1).unwrap();
        let _ = d.read(false, 2).unwrap();
        assert!(!d.stop(true, 3));
        assert!(d.is_busy());
        assert!(d.served().is_empty());
    }

    #[test]
    fn wrong_address_nacks() {
        let mut d = I2c::new(7);
        assert!(!d.start(0x13, false, 0));
        assert!(!d.is_busy());
    }

    #[test]
    fn reading_stream_is_deterministic_and_14_bit() {
        for i in 0..64 {
            let a = I2c::reading_at(42, i);
            let b = I2c::reading_at(42, i);
            assert_eq!(a, b);
            assert!(a < 0x4000);
        }
        assert_ne!(I2c::reading_at(42, 0), I2c::reading_at(43, 0));
    }
}
