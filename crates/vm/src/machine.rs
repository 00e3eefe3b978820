//! The simulated machine: memory + registers + clock + program image.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use tics_clock::{PerfectClock, TimeMicros, Timekeeper};
use tics_mcu::{Addr, CostModel, Memory, MemoryLayout, PeripheralBus, Registers};
use tics_minic::program::{Program, FRAME_HEADER_BYTES};
use tics_trace::{SpanKind, TraceEvent, TraceRecord, TraceSink};

use crate::error::VmError;
use crate::loaded::{LoadedProgram, RET_SENTINEL};
use crate::runtime::IntermittentRuntime;
use crate::stats::ExecStats;
use crate::Result;

/// Configuration for building a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Physical memory map.
    pub layout: MemoryLayout,
    /// Cycle cost model.
    pub costs: CostModel,
    /// Seed for the deterministic `rand16` builtin and synthetic sensors.
    pub seed: u64,
    /// Scripted sensor values consumed (in order) by the `sample*`
    /// builtins; when exhausted, synthetic values continue. Lets tests
    /// and experiments fix the sensed data exactly. Shared: every
    /// machine built from this config reads the same backing slice.
    pub sensor_trace: Arc<[i32]>,
    /// Periodic interrupt: `(function_name, period_us)`. The named
    /// function is invoked as an ISR whenever the period elapses.
    pub isr: Option<(String, u64)>,
    /// Bytes reserved for the persistent FRAM heap served by the
    /// `alloc` builtin (first word is the allocator's bump pointer).
    pub heap_bytes: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            layout: MemoryLayout::default(),
            costs: CostModel::default(),
            seed: 0x5EED,
            sensor_trace: Vec::new().into(),
            isr: None,
            heap_bytes: 2_048,
        }
    }
}

/// A frame header as stored at the base of every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Return pc (or [`RET_SENTINEL`] for the bottom frame).
    pub ret_pc: u32,
    /// Caller's frame pointer.
    pub caller_fp: Addr,
    /// Caller's operand-stack pointer after the arguments were consumed.
    pub caller_sp: Addr,
}

#[derive(Debug, Clone, Copy)]
struct LoadedIsr {
    fidx: u16,
    period_us: u64,
    next_at: u64,
}

/// Everything about a device that is identical across a fleet: the
/// loaded (and decoded) program, the memory layout and cost model, the
/// scripted sensor trace, the ISR binding, and the heap reservation.
///
/// Built once per `(program, config)` pair with [`MachineImage::build`]
/// and shared by `Arc`: [`Machine::from_image`] instantiates a device
/// against it without re-loading the program or re-allocating any of the
/// immutable state, and [`Machine::reset`] recycles an existing device's
/// mutable block in place. One image plus one recycled machine is the
/// whole per-device cost of a million-device Monte Carlo sweep.
#[derive(Debug)]
pub struct MachineImage {
    loaded: LoadedProgram,
    layout: MemoryLayout,
    costs: Arc<CostModel>,
    sensor_trace: Arc<[i32]>,
    /// Resolved ISR binding: `(function index, period_us)`.
    isr: Option<(u16, u64)>,
    heap_bytes: u32,
}

impl MachineImage {
    /// Loads `program` and captures the immutable device description
    /// from `config`. The per-device `config.seed` is *not* part of the
    /// image — every instantiation supplies its own.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] under the same conditions as
    /// [`Machine::new`]: malformed program, globals exceeding FRAM, or a
    /// missing/arity-mismatched ISR function.
    pub fn build(program: Program, config: &MachineConfig) -> Result<Arc<MachineImage>> {
        let loaded = LoadedProgram::load(program)?;
        if loaded.program.globals_size > config.layout.fram.len() {
            return Err(VmError::Load("globals exceed FRAM".into()));
        }
        let isr = match &config.isr {
            None => None,
            Some((name, period_us)) => {
                let (fidx, f) = loaded
                    .program
                    .function(name)
                    .ok_or_else(|| VmError::Load(format!("ISR function `{name}` not found")))?;
                if f.n_args != 0 {
                    return Err(VmError::Load(format!(
                        "ISR `{name}` must take no arguments"
                    )));
                }
                Some((fidx, *period_us))
            }
        };
        Ok(Arc::new(MachineImage {
            loaded,
            layout: config.layout,
            costs: Arc::new(config.costs.clone()),
            sensor_trace: config.sensor_trace.clone(),
            isr,
            heap_bytes: config.heap_bytes,
        }))
    }

    /// The loaded program image.
    #[must_use]
    pub fn loaded(&self) -> &LoadedProgram {
        &self.loaded
    }

    /// The physical memory layout devices are built with.
    #[must_use]
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }
}

/// The complete simulated device.
///
/// The memory and register fields are public: runtime implementations in
/// `tics-core` and `tics-baselines` manipulate them exactly as the real
/// runtimes manipulate the MSP430's memory and registers.
pub struct Machine {
    /// Simulated memory (SRAM + FRAM) with cycle accounting.
    pub mem: Memory,
    /// Volatile register file.
    pub regs: Registers,
    /// Wire-level peripherals (UART, I2C sensor). Device-side state
    /// persists across power failures; MCU-side FIFOs do not.
    pub periph: PeripheralBus,
    /// Shared immutable half of the device (program, layout, costs,
    /// sensor script); everything below is the per-device mutable block
    /// that [`Machine::reset`] rewinds.
    image: Arc<MachineImage>,
    clock: Box<dyn Timekeeper>,
    data_base: Addr,
    halted: Option<i32>,
    stats: ExecStats,
    rng_state: u64,
    sensor_pos: usize,
    last_clock_sync: u64,
    in_isr: bool,
    isr_frame_fp: Addr,
    isr: Option<LoadedIsr>,
    period_deadline: u64,
    total_off_us: u64,
    trace: TraceSink,
    torn_reported: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.regs.pc)
            .field("fp", &self.regs.fp)
            .field("sp", &self.regs.sp)
            .field("halted", &self.halted)
            .field("cycles", &self.mem.cycles())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine with a [`PerfectClock`]. Use
    /// [`Machine::with_clock`] to model volatile or remanence timekeeping.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] if the program is malformed, its globals
    /// do not fit in FRAM, or the configured ISR function does not exist.
    pub fn new(program: Program, config: MachineConfig) -> Result<Machine> {
        Machine::with_clock(program, config, Box::new(PerfectClock::new()))
    }

    /// Builds a machine with an explicit timekeeper.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::new`].
    pub fn with_clock(
        program: Program,
        config: MachineConfig,
        clock: Box<dyn Timekeeper>,
    ) -> Result<Machine> {
        let image = MachineImage::build(program, &config)?;
        Machine::from_image(image, config.seed, clock)
    }

    /// Instantiates a device against a shared [`MachineImage`] — the
    /// mass-production constructor. Only the mutable block is allocated;
    /// the program, layout, costs, and sensor script are borrowed from
    /// the image.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Memory`] if global initialization fails (the
    /// image's load-time checks make this unreachable in practice).
    pub fn from_image(
        image: Arc<MachineImage>,
        seed: u64,
        clock: Box<dyn Timekeeper>,
    ) -> Result<Machine> {
        let mem = Memory::with_shared_costs(image.layout, Arc::clone(&image.costs));
        let data_base = image.layout.fram.start;
        let isr = image.isr.map(|(fidx, period_us)| LoadedIsr {
            fidx,
            period_us,
            next_at: period_us,
        });
        let mut machine = Machine {
            mem,
            regs: Registers::new(),
            periph: PeripheralBus::new(seed),
            image,
            clock,
            data_base,
            halted: None,
            stats: ExecStats::default(),
            rng_state: seed | 1,
            sensor_pos: 0,
            last_clock_sync: 0,
            in_isr: false,
            isr_frame_fp: Addr(0),
            isr,
            period_deadline: u64::MAX,
            total_off_us: 0,
            trace: TraceSink::new(),
            torn_reported: 0,
        };
        machine.init_globals(true)?;
        Ok(machine)
    }

    /// Rewinds the device to the state [`Machine::from_image`] would
    /// build with `seed`, reusing every backing allocation (memory
    /// regions, dirty bitmaps, wire logs, stat streams, trace buffers).
    /// The fleet engine recycles one machine across thousands of
    /// devices, and the crash oracles (fault, chaos, torn-wire) recycle
    /// one per cell across its trials; the reset differential tests
    /// prove the recycled machine trace-identical to a fresh
    /// construction on both dispatch engines and trial for trial. Memory
    /// is rewound by [`Memory::reset`], which zeroes each region only up
    /// to the higher of its written high-water mark and its last dirty
    /// bitmap limb, so the cost of a reset follows what the run wrote,
    /// not the 66 KB of the two regions.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Memory`] if global initialization fails.
    pub fn reset(&mut self, seed: u64) -> Result<()> {
        self.mem.reset();
        self.regs.reset();
        self.periph.recycle(seed);
        self.clock.reset();
        self.halted = None;
        self.stats.reset();
        self.rng_state = seed | 1;
        self.sensor_pos = 0;
        self.last_clock_sync = 0;
        self.in_isr = false;
        self.isr_frame_fp = Addr(0);
        if let Some(isr) = &mut self.isr {
            isr.next_at = isr.period_us;
        }
        self.period_deadline = u64::MAX;
        self.total_off_us = 0;
        self.trace.reset();
        self.torn_reported = 0;
        self.init_globals(true)
    }

    /// The shared immutable image this machine was instantiated from.
    #[must_use]
    pub fn image(&self) -> &Arc<MachineImage> {
        &self.image
    }

    // ---- accessors ----

    /// The loaded program image.
    #[must_use]
    pub fn loaded(&self) -> &LoadedProgram {
        &self.image.loaded
    }

    /// Base address of the data segment (globals).
    #[must_use]
    pub fn data_base(&self) -> Addr {
        self.data_base
    }

    /// Absolute address of a data-segment byte offset.
    #[must_use]
    pub fn global_addr(&self, offset: u32) -> Addr {
        self.data_base.offset(offset)
    }

    /// Base of the persistent FRAM heap: first word is the allocator's
    /// bump pointer, allocations follow.
    #[must_use]
    pub fn heap_base(&self) -> Addr {
        let raw = self.data_base.raw() + self.image.loaded.program.globals_size;
        Addr((raw + 7) & !7)
    }

    /// First free FRAM address after the data segment and heap — where a
    /// runtime lays out its own persistent structures.
    #[must_use]
    pub fn runtime_area_base(&self) -> Addr {
        let raw = self.heap_base().raw() + self.image.heap_bytes;
        Addr((raw + 7) & !7)
    }

    /// Serves one `alloc(bytes)` call from the persistent heap. The bump
    /// pointer update is routed through the runtime's `logged_store`, so
    /// consistency-managing runtimes roll it back with everything else —
    /// a replayed execution re-allocates the *same* addresses. Returns 0
    /// when the heap is exhausted (C's out-of-memory convention).
    ///
    /// # Errors
    ///
    /// Propagates memory and logging errors.
    pub fn heap_alloc(&mut self, rt: &mut dyn IntermittentRuntime, bytes: u32) -> Result<u32> {
        if self.image.heap_bytes < 8 {
            return Ok(0);
        }
        let base = self.heap_base();
        let bump = self.mem.read_word(base)?;
        let aligned = bytes.max(1).div_ceil(4) * 4;
        if 4 + bump + aligned > self.image.heap_bytes {
            return Ok(0);
        }
        rt.logged_store(self, base, 4)?;
        self.mem.write_word(base, bump + aligned)?;
        Ok(base.raw() + 4 + bump)
    }

    /// Execution statistics so far: every event emitted up to this
    /// point is already folded in.
    #[must_use]
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Mutable statistics. Event-backed fields must be updated through
    /// [`Machine::emit`] so the trace and the counters stay in lockstep;
    /// this accessor remains for the executor's hot `instructions`
    /// counter and for tests.
    pub fn stats_mut(&mut self) -> &mut ExecStats {
        &mut self.stats
    }

    /// The structured event trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable trace access (profilers enable detailed recording with
    /// [`TraceSink::set_detailed`]).
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Emits one structured event, stamped with the true wall-clock µs
    /// and the cycle position, folds it into [`ExecStats`] and pushes it
    /// to the trace — the single update path shared by the VM, the
    /// runtimes, and the executor. Both happen here, so [`Machine::stats`]
    /// and [`Machine::trace`] never lag the machine.
    pub fn emit(&mut self, event: TraceEvent) {
        let rec = TraceRecord {
            at_us: self.true_now_us(),
            cycle: self.mem.cycles(),
            event,
        };
        self.stats.fold_event(&rec.event, rec.at_us);
        self.trace.push(rec);
    }

    /// Opens cycle-attribution span `kind`: every cycle charged until
    /// the returned guard drops is attributed to `kind`. The guard
    /// derefs to the machine, so runtime code does
    /// `let mut g = m.span(SpanKind::Checkpoint); let m = &mut *g;` and
    /// proceeds unchanged.
    pub fn span(&mut self, kind: SpanKind) -> SpanGuard<'_> {
        let prev = self.mem.set_span(kind);
        self.emit(TraceEvent::SpanEnter { kind });
        SpanGuard {
            machine: self,
            prev,
            kind,
        }
    }

    /// Exit code if `main` returned.
    #[must_use]
    pub fn exit_code(&self) -> Option<i32> {
        self.halted
    }

    /// Whether the program has finished.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted.is_some()
    }

    /// Marks the machine halted with `code` (used by `Ret` to the
    /// sentinel and by `Halt`).
    pub fn set_halted(&mut self, code: i32) {
        self.halted = Some(code);
    }

    /// Total cycles executed (1 cycle = 1 µs).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.mem.cycles()
    }

    /// Cycle count at which the current on-period ends (power dies).
    /// Runtimes consult this to model atomic operations that cannot
    /// complete on the remaining energy: a two-phase commit whose cost
    /// crosses the deadline must not flip its valid flag.
    #[must_use]
    pub fn period_deadline(&self) -> u64 {
        self.period_deadline
    }

    /// Sets the end-of-period deadline (called by the executor at each
    /// period start). Also arms the memory's torn-write boundary so a
    /// multi-word store straddling the deadline commits only a prefix —
    /// power death is not aligned to store boundaries.
    pub fn set_period_deadline(&mut self, deadline: u64) {
        self.period_deadline = deadline;
        self.mem.set_power_cut(Some(deadline));
    }

    /// Charges `cost` cycles for an atomic runtime operation and reports
    /// whether it completed before the power deadline. When this returns
    /// `false`, the caller must leave its commit flag untouched — the
    /// device dies mid-operation.
    pub fn charge_atomic(&mut self, cost: u64) -> bool {
        let completes = self.mem.cycles().saturating_add(cost) <= self.period_deadline;
        self.mem.add_cycles(cost);
        completes
    }

    // ---- time ----

    /// Current time from the device's timekeeper, synchronized with the
    /// cycle counter.
    pub fn now(&mut self) -> TimeMicros {
        let cycles = self.mem.cycles();
        let delta = cycles - self.last_clock_sync;
        if delta > 0 {
            self.clock.advance_on(delta);
            self.last_clock_sync = cycles;
        }
        self.clock.now()
    }

    /// Ground-truth wall-clock time in µs (on-time cycles plus all
    /// outage durations). This is the *simulation oracle* — the device
    /// itself only sees its (possibly volatile) timekeeper via
    /// [`Machine::now`]. Experiments use it the way the paper uses an
    /// external logic analyzer.
    #[must_use]
    pub fn true_now_us(&self) -> u64 {
        self.mem.cycles() + self.total_off_us
    }

    // ---- operand stack ----

    /// Pushes a value onto the operand stack of the current frame.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Trap`] if the frame's operand area overflows
    /// (indicates a codegen bug) or [`VmError::Memory`] on bad addresses.
    pub fn push(&mut self, v: i32) -> Result<()> {
        let f = self.image.loaded.function_at(self.regs.pc)?;
        let frame_end = self.regs.fp.offset(f.frame_size());
        if self.regs.sp.offset(4) > frame_end {
            return Err(VmError::Trap(format!(
                "operand stack overflow in `{}`",
                f.name
            )));
        }
        // The reference interpreter stays on the byte-range form: it is
        // the oracle the decoded engine's single-word form is checked
        // against.
        self.mem.write_i32(self.regs.sp, v)?;
        self.regs.sp = self.regs.sp.offset(4);
        Ok(())
    }

    /// Pops a value from the operand stack.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Trap`] on underflow.
    pub fn pop(&mut self) -> Result<i32> {
        let f = self.image.loaded.function_at(self.regs.pc)?;
        let operand_base = self
            .regs
            .fp
            .offset(FRAME_HEADER_BYTES + f.arg_bytes() + u32::from(f.locals_bytes));
        if self.regs.sp <= operand_base {
            return Err(VmError::Trap(format!(
                "operand stack underflow in `{}`",
                f.name
            )));
        }
        self.regs.sp = Addr(self.regs.sp.raw() - 4);
        Ok(self.mem.read_i32(self.regs.sp)?)
    }

    /// Reads the top of the operand stack without popping.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Memory`] on bad addresses.
    pub fn peek_top(&self) -> Result<i32> {
        Ok(self.mem.peek_word(Addr(self.regs.sp.raw() - 4))? as i32)
    }

    // ---- frames ----

    /// Address of the first body byte (args) of the frame at `fp`.
    #[must_use]
    pub fn frame_body(fp: Addr) -> Addr {
        fp.offset(FRAME_HEADER_BYTES)
    }

    /// Reads the frame header at `fp`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Memory`] on bad addresses.
    pub fn read_header(&mut self, fp: Addr) -> Result<FrameHeader> {
        Ok(FrameHeader {
            ret_pc: self.mem.read_word(fp)?,
            caller_fp: Addr(self.mem.read_word(fp.offset(4))?),
            caller_sp: Addr(self.mem.read_word(fp.offset(8))?),
        })
    }

    /// Writes a frame header at `fp`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Memory`] on bad addresses.
    pub fn write_header(&mut self, fp: Addr, h: FrameHeader) -> Result<()> {
        self.mem.write_word(fp, h.ret_pc)?;
        self.mem.write_word(fp.offset(4), h.caller_fp.raw())?;
        self.mem.write_word(fp.offset(8), h.caller_sp.raw())?;
        Ok(())
    }

    /// Calls function `fidx`: arguments must already be on the operand
    /// stack. `ret_pc` is where `Ret` resumes ([`RET_SENTINEL`] halts).
    ///
    /// # Errors
    ///
    /// Propagates frame-allocation failures (e.g. stack overflow).
    pub fn call_function(
        &mut self,
        rt: &mut dyn IntermittentRuntime,
        fidx: u16,
        ret_pc: u32,
    ) -> Result<()> {
        let f = &self.image.loaded.program.functions[fidx as usize];
        let frame_size = f.frame_size();
        let arg_bytes = f.arg_bytes();
        let locals = u32::from(f.locals_bytes);
        let entry = self.image.loaded.entry_of(fidx);
        let args_src = Addr(self.regs.sp.raw().wrapping_sub(arg_bytes));
        let caller_sp = args_src;
        let caller_fp = self.regs.fp;

        let new_fp = rt.alloc_frame(self, fidx, frame_size, arg_bytes)?;
        if arg_bytes > 0 {
            self.mem
                .copy(args_src, Machine::frame_body(new_fp), arg_bytes)?;
        }
        self.write_header(
            new_fp,
            FrameHeader {
                ret_pc,
                caller_fp,
                caller_sp,
            },
        )?;
        self.regs.fp = new_fp;
        self.regs.sp = Machine::frame_body(new_fp).offset(arg_bytes + locals);
        self.regs.pc = entry;
        Ok(())
    }

    /// Executes a `Ret`: pops the return value, unwinds the frame, and
    /// either resumes the caller, exits an ISR, or halts the machine.
    ///
    /// # Errors
    ///
    /// Propagates memory and runtime failures.
    pub fn do_return(&mut self, rt: &mut dyn IntermittentRuntime) -> Result<()> {
        let value = self.pop()?;
        let fp = self.regs.fp;
        let hdr = self.read_header(fp)?;
        rt.free_frame(self, fp)?;
        if self.in_isr && fp == self.isr_frame_fp {
            // Return-from-interrupt: discard the value, no push; the
            // runtime may take its implicit post-ISR checkpoint.
            self.in_isr = false;
            self.mem.set_span(SpanKind::App);
            self.emit(TraceEvent::IsrExit);
            self.regs.fp = hdr.caller_fp;
            self.regs.sp = hdr.caller_sp;
            self.regs.pc = hdr.ret_pc;
            rt.on_isr_exit(self)?;
            return Ok(());
        }
        if hdr.ret_pc == RET_SENTINEL {
            self.set_halted(value);
            return Ok(());
        }
        self.regs.fp = hdr.caller_fp;
        self.regs.sp = hdr.caller_sp;
        self.regs.pc = hdr.ret_pc;
        self.push(value)?;
        Ok(())
    }

    /// Starts (or restarts) the program at `main` with a fresh bottom
    /// frame.
    ///
    /// # Errors
    ///
    /// Propagates frame-allocation failures.
    pub fn start_main(&mut self, rt: &mut dyn IntermittentRuntime) -> Result<()> {
        self.in_isr = false;
        self.regs.sp = Addr(0);
        self.regs.fp = Addr(0);
        let entry_fn = self.image.loaded.program.entry;
        self.call_function(rt, entry_fn, RET_SENTINEL)
    }

    /// The first cycle at which [`Machine::maybe_fire_isr`] may fire:
    /// `u64::MAX` without an ISR, while servicing one, or once halted.
    /// Exact until the next power failure, firing or return from
    /// interrupt: within a power-on period device time advances exactly
    /// by on-time ([`Timekeeper::advance_on`]).
    pub fn isr_stop(&mut self) -> u64 {
        let Some(isr) = self.isr else { return u64::MAX };
        if self.in_isr || self.is_halted() {
            return u64::MAX;
        }
        let now = self.now().as_micros();
        self.cycles() + isr.next_at.saturating_sub(now)
    }

    /// Fires the configured ISR if its period has elapsed.
    ///
    /// # Errors
    ///
    /// Propagates frame-allocation failures.
    pub fn maybe_fire_isr(&mut self, rt: &mut dyn IntermittentRuntime) -> Result<()> {
        let Some(isr) = self.isr else { return Ok(()) };
        if self.in_isr || self.is_halted() {
            return Ok(());
        }
        let now = self.now().as_micros();
        if now < isr.next_at {
            return Ok(());
        }
        if let Some(i) = &mut self.isr {
            while i.next_at <= now {
                i.next_at += i.period_us;
            }
        }
        self.emit(TraceEvent::IsrEnter);
        rt.on_isr_enter(self)?;
        self.in_isr = true;
        let ret_pc = self.regs.pc;
        self.call_function(rt, isr.fidx, ret_pc)?;
        self.isr_frame_fp = self.regs.fp;
        // The ISR body executes in the main loop, so the span is set
        // non-lexically here and restored at return-from-interrupt.
        self.mem.set_span(SpanKind::Isr);
        Ok(())
    }

    // ---- globals & boot ----

    /// (Re)initializes globals: `.data` gets its initializer image,
    /// `.bss` is zeroed. When `include_nv` is false, `nv`-qualified
    /// variables keep their values (the crt0 of an FRAM device preserves
    /// the persistent section across reboots).
    ///
    /// The clear is issued word-by-word, matching crt0's `.bss`/`.data`
    /// loops: each store fits the memory controller's atomic write
    /// buffer, so startup initialization cannot be silently bit-flipped
    /// by a brown-out the way a multi-word burst store can.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Memory`] on bad addresses.
    pub fn init_globals(&mut self, include_nv: bool) -> Result<()> {
        let globals: Vec<_> = self
            .image
            .loaded
            .program
            .globals
            .iter()
            .map(|g| (g.offset, g.size, g.nv, g.init.clone()))
            .collect();
        for (offset, size, nv, init) in globals {
            if nv && !include_nv {
                continue;
            }
            let base = self.global_addr(offset);
            let word = tics_mcu::ATOMIC_STORE_BYTES as u32;
            let mut cleared = 0;
            while cleared < size {
                let n = (size - cleared).min(word);
                self.mem.fill(base.offset(cleared), n, 0)?;
                cleared += n;
            }
            for (i, v) in init.iter().enumerate() {
                self.mem.write_word(base.offset(4 * i as u32), *v as u32)?;
            }
        }
        Ok(())
    }

    /// Injects a power failure followed by `off_us` of darkness: volatile
    /// memory and registers are lost, the timekeeper experiences the
    /// outage, and the machine is ready for the runtime's `on_boot`.
    pub fn power_failure(&mut self, off_us: u64) {
        let _ = self.now(); // sync on-time into the clock first
        let torn = self.mem.stats().torn_writes;
        if torn > self.torn_reported {
            self.emit(TraceEvent::TornWrite {
                count: torn - self.torn_reported,
            });
            self.torn_reported = torn;
        }
        self.emit(TraceEvent::PowerFailure { off_us });
        self.mem.power_fail();
        self.periph.power_fail();
        // Whatever span was open died with the power; the next boot
        // starts attributing to the application again.
        self.mem.set_span(SpanKind::App);
        self.regs.reset();
        self.clock.power_cycle(off_us);
        self.total_off_us += off_us;
        self.in_isr = false;
    }

    // ---- syscall support ----

    /// Records a completed radio transmission (called by the VM for
    /// immediate sends and by virtualizing runtimes when they flush
    /// their committed I/O buffers).
    pub fn record_send(&mut self, value: i32) {
        self.emit(TraceEvent::Send { value });
    }

    /// Next deterministic pseudo-random value in `[0, 65536)`.
    pub fn rand16(&mut self) -> i32 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) & 0xFFFF) as i32
    }

    /// Next sensor value: scripted trace first, then synthetic.
    pub fn next_sensor(&mut self) -> i32 {
        let v = if self.sensor_pos < self.image.sensor_trace.len() {
            let v = self.image.sensor_trace[self.sensor_pos];
            self.sensor_pos += 1;
            v
        } else {
            self.rand16() & 0x3FF
        };
        self.emit(TraceEvent::Sample { value: v });
        v
    }
}

/// RAII cycle-attribution span: returned by [`Machine::span`], derefs to
/// the machine, and restores the previously open span on drop (emitting
/// the matching [`TraceEvent::SpanExit`]).
pub struct SpanGuard<'a> {
    machine: &'a mut Machine,
    prev: SpanKind,
    kind: SpanKind,
}

impl Deref for SpanGuard<'_> {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        self.machine
    }
}

impl DerefMut for SpanGuard<'_> {
    fn deref_mut(&mut self) -> &mut Machine {
        self.machine
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.machine.emit(TraceEvent::SpanExit { kind: self.kind });
        self.machine.mem.set_span(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::BareRuntime;
    use tics_minic::{compile, opt::OptLevel};

    fn machine(src: &str) -> Machine {
        let prog = compile(src, OptLevel::O0).unwrap();
        Machine::new(prog, MachineConfig::default()).unwrap()
    }

    #[test]
    fn globals_are_initialized_at_load() {
        let m = machine("int a = 7; int b[3] = {1,2}; int main() { return 0; }");
        assert_eq!(m.mem.peek_word(m.global_addr(0)).unwrap(), 7);
        assert_eq!(m.mem.peek_word(m.global_addr(4)).unwrap(), 1);
        assert_eq!(m.mem.peek_word(m.global_addr(8)).unwrap(), 2);
        assert_eq!(m.mem.peek_word(m.global_addr(12)).unwrap(), 0);
    }

    #[test]
    fn nv_globals_survive_reinit() {
        let mut m = machine("nv int keep = 1; int lose = 2; int main() { return 0; }");
        m.mem.poke_i32(m.global_addr(0), 99).unwrap();
        m.mem.poke_i32(m.global_addr(4), 98).unwrap();
        m.init_globals(false).unwrap();
        assert_eq!(m.mem.peek_word(m.global_addr(0)).unwrap(), 99);
        assert_eq!(m.mem.peek_word(m.global_addr(4)).unwrap(), 2);
    }

    #[test]
    fn start_main_builds_bottom_frame() {
        let mut m = machine("int main() { int x = 1; return x; }");
        let mut rt = BareRuntime::new();
        m.start_main(&mut rt).unwrap();
        assert_eq!(m.regs.pc, m.loaded().entry_of(m.loaded().program.entry));
        let hdr = m.read_header(m.regs.fp).unwrap();
        assert_eq!(hdr.ret_pc, RET_SENTINEL);
    }

    #[test]
    fn push_pop_roundtrip_in_memory() {
        // Three-arg call gives main an operand area of ≥ 3 words.
        let mut m =
            machine("int f(int a, int b, int c) { return a; } int main() { return f(1, 2, 3); }");
        let mut rt = BareRuntime::new();
        m.start_main(&mut rt).unwrap();
        m.push(123).unwrap();
        m.push(-5).unwrap();
        // Values live in simulated memory, not host state.
        assert_eq!(m.peek_top().unwrap(), -5);
        assert_eq!(m.pop().unwrap(), -5);
        assert_eq!(m.pop().unwrap(), 123);
        assert!(m.pop().is_err(), "underflow must trap");
    }

    #[test]
    fn power_failure_clears_volatile_state() {
        let mut m = machine("int main() { return 0; }");
        let mut rt = BareRuntime::new();
        m.start_main(&mut rt).unwrap();
        m.push(42).unwrap();
        m.power_failure(1_000);
        assert_eq!(m.regs.pc, 0);
        assert_eq!(m.regs.sp, Addr(0));
        assert_eq!(m.stats().power_failures, 1);
    }

    #[test]
    fn clock_follows_cycles_and_outages() {
        let mut m = machine("int main() { return 0; }");
        m.mem.add_cycles(500);
        assert_eq!(m.now().as_micros(), 500);
        m.power_failure(1_500);
        assert_eq!(m.now().as_micros(), 2_000);
    }

    #[test]
    fn sensor_trace_is_consumed_then_synthetic() {
        let prog = compile("int main() { return 0; }", OptLevel::O0).unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                sensor_trace: vec![10, 20].into(),
                ..MachineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(m.next_sensor(), 10);
        assert_eq!(m.next_sensor(), 20);
        let v = m.next_sensor();
        assert!((0..1024).contains(&v));
        assert_eq!(m.stats().samples, 3);
    }

    #[test]
    fn rand16_is_deterministic_per_seed() {
        let mk = || machine("int main() { return 0; }");
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..10 {
            assert_eq!(a.rand16(), b.rand16());
        }
    }

    #[test]
    fn isr_requires_existing_function() {
        let prog = compile("int main() { return 0; }", OptLevel::O0).unwrap();
        let r = Machine::new(
            prog,
            MachineConfig {
                isr: Some(("nope".into(), 100)),
                ..MachineConfig::default()
            },
        );
        assert!(matches!(r, Err(VmError::Load(_))));
    }
}
