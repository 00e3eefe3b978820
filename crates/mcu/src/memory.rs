//! Byte-addressable simulated memory with volatility and cycle accounting.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use tics_trace::SpanKind;

use crate::costs::CostModel;
use crate::layout::MemoryLayout;
use crate::region::{Addr, Region};
use crate::{splitmix64, SPLITMIX64_GAMMA};

/// Pattern written over SRAM on power failure. Deterministic garbage makes
/// "used stale volatile data" bugs reproducible in tests.
const SRAM_CLOBBER: u8 = 0xA5;

/// Error returned by memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// The access touched at least one unmapped byte.
    Unmapped {
        /// Start address of the offending access.
        addr: Addr,
        /// Length of the access in bytes.
        len: u32,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Unmapped { addr, len } => {
                write!(f, "unmapped access of {len} bytes at {addr}")
            }
        }
    }
}

impl Error for MemoryError {}

/// Counters describing how the memory has been used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Bytes read from SRAM.
    pub sram_reads: u64,
    /// Bytes written to SRAM.
    pub sram_writes: u64,
    /// Bytes read from FRAM.
    pub fram_reads: u64,
    /// Bytes written to FRAM.
    pub fram_writes: u64,
    /// Number of power failures experienced.
    pub power_failures: u64,
    /// Cycle-accounted stores truncated by a power cut (torn commits): the
    /// store charged its full cost but only a word-granular prefix landed.
    pub torn_writes: u64,
    /// Stores corrupted by the brown-out model: bit-flipped or dropped
    /// inside the configured pre-cut window (see [`CorruptionModel`]).
    pub corrupted_writes: u64,
}

/// Brown-out corruption model: what dirty power does to in-flight
/// stores and to resting SRAM. Torn writes (clean word-prefix
/// truncation at the cut) are always on; this model adds the *dirty*
/// failure modes real MSP430FR brown-outs exhibit — single-bit upsets
/// and dropped writes in the undervolted window right before the cut,
/// plus probabilistic SRAM decay across outages.
///
/// Only stores longer than [`ATOMIC_STORE_BYTES`] are at risk: the
/// MSP430FR memory controller commits individual words atomically even
/// through a brown-out (its internal write buffer holds up to two
/// words), so single-word control writes — validity flags, counters,
/// undo-log slots — cannot be half-written or flipped. Multi-word burst
/// stores (checkpoint bank images) keep the bus busy through the
/// undervolted window and are where real silent corruption lands.
///
/// All randomness is drawn from a private splitmix64 stream seeded by
/// [`CorruptionModel::seed`]: the same seed and the same access sequence
/// produce byte-identical corruption, so every chaos run is replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionModel {
    /// Width in cycles of the at-risk window before the armed power
    /// cut. A store (cycle-accounted *or* poke-path) issued when fewer
    /// than `window` cycles remain before the cut may be corrupted.
    pub window: u64,
    /// Probability an at-risk store suffers a single random bit flip.
    pub flip_prob: f64,
    /// Probability an at-risk store is dropped entirely (no bytes land).
    pub drop_prob: f64,
    /// Per-byte probability that SRAM decays (loses its contents)
    /// across an outage. `1.0` reproduces the deterministic full
    /// clobber; lower values model short outages where SRAM partially
    /// retains data — stale-but-plausible bytes that are far more
    /// dangerous than obvious garbage.
    pub sram_decay: f64,
    /// Seed for the corruption RNG stream.
    pub seed: u64,
}

impl CorruptionModel {
    /// A model with the given at-risk window and flip/drop rates, full
    /// SRAM clobber (the conservative default), seeded by `seed`.
    #[must_use]
    pub fn new(window: u64, flip_prob: f64, drop_prob: f64, seed: u64) -> CorruptionModel {
        assert!(
            flip_prob >= 0.0 && drop_prob >= 0.0 && flip_prob + drop_prob <= 1.0,
            "corruption probabilities must be in [0, 1] and sum to at most 1"
        );
        CorruptionModel {
            window,
            flip_prob,
            drop_prob,
            sram_decay: 1.0,
            seed,
        }
    }

    /// Sets the per-byte SRAM decay probability across outages.
    #[must_use]
    pub fn with_sram_decay(mut self, sram_decay: f64) -> CorruptionModel {
        assert!(
            (0.0..=1.0).contains(&sram_decay),
            "sram_decay must be in [0, 1]"
        );
        self.sram_decay = sram_decay;
        self
    }
}

/// Largest store the FRAM controller commits atomically: two 32-bit
/// words, the depth of its internal write buffer. Stores of this size
/// or smaller are immune to brown-out corruption (see
/// [`CorruptionModel`]).
pub const ATOMIC_STORE_BYTES: usize = 8;

/// What the corruption model decided to do to one store.
enum StoreFate {
    /// Clean: all bytes land.
    Keep,
    /// One bit flips: XOR `mask` into the byte at `offset`.
    Flip { offset: usize, mask: u8 },
    /// The store is dropped entirely.
    Drop,
}

/// Where the bytes of a cycle-accounted store come from.
enum StoreSrc<'a> {
    /// A caller buffer ([`Memory::write_bytes`]).
    Bytes(&'a [u8]),
    /// One repeated byte ([`Memory::fill`]).
    Fill(u8),
    /// Simulated memory itself ([`Memory::copy`]): the region index and
    /// region-relative offset of the source range.
    Within(usize, usize),
}

/// Number of `u64` bitmap limbs needed to cover `region_bytes` of
/// memory at one bit per 4-byte word.
fn dirty_len(region_bytes: u32) -> usize {
    (region_bytes.div_ceil(4) as usize).div_ceil(64)
}

/// Single-store twin of [`mark_dirty_bits`] for the single-word form: a
/// 4-byte store at region-relative byte offset `off` touches word
/// `off / 4`, and — only when unaligned — `off / 4 + 1` as well, so an
/// aligned store is one read-modify-write of one limb.
#[inline(always)]
fn mark_word_dirty(bits: &mut [u64], off: usize) {
    let w = off >> 2;
    bits[w >> 6] |= 1u64 << (w & 63);
    if off & 3 != 0 {
        let next = w + 1;
        bits[next >> 6] |= 1u64 << (next & 63);
    }
}

/// Sets the dirty bits for every word a store of `len` bytes at
/// region-relative byte offset `off` touches, a whole `u64` limb at a
/// time: the first limb takes the bits from word `first` up, the last
/// the bits up to word `last`, and every limb in between is set whole.
#[inline]
fn mark_dirty_bits(bits: &mut [u64], off: u32, len: u32) {
    if len == 0 {
        return;
    }
    let first = (off / 4) as usize;
    let last = ((off + len - 1) / 4) as usize;
    let head = !0u64 << (first & 63);
    let tail = !0u64 >> (63 - (last & 63));
    let (fl, ll) = (first >> 6, last >> 6);
    if fl == ll {
        bits[fl] |= head & tail;
    } else {
        bits[fl] |= head;
        bits[fl + 1..ll].fill(!0);
        bits[ll] |= tail;
    }
}

/// The next draw of the splitmix64 stream at `state`, advancing it.
fn next_draw(state: &mut u64) -> u64 {
    let draw = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    draw
}

/// Uniform draw in `[0, 1)` from a 64-bit word (53 mantissa bits).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The simulated memory system: volatile SRAM plus persistent FRAM, with a
/// cycle counter driven by the [`CostModel`].
///
/// All accesses are bounds-checked against the [`MemoryLayout`]; an access
/// outside both regions, or straddling a region's end, returns
/// [`MemoryError::Unmapped`] (the real MCU would bus-fault). Multi-byte
/// values are little-endian.
///
/// Cycle-accounted accesses come in two forms that charge, count, mark
/// and tear identically:
///
/// * the **byte-range form** — [`Memory::read_bytes`],
///   [`Memory::write_bytes`], [`Memory::copy`], [`Memory::fill`] and
///   their word-width [`Memory::read_i32`]/[`Memory::write_i32`] — takes
///   any length. The reference interpreter runs on it.
/// * the **single-word form** — [`Memory::read_word`],
///   [`Memory::write_word`] and a [`WordBurst`] — moves one 4-byte word.
///   Frame headers, the heap's bump pointer, driver slots, global
///   initializers and every op of the decoded interpreter run on it.
///
/// The `peek_*`/`poke_*` methods bypass cycle accounting and statistics —
/// they model a debugger probe, and tests use them to inspect state without
/// perturbing measurements.
///
/// # Torn writes
///
/// Real FRAM commits word by word; a store interrupted by a power failure
/// leaves a *prefix* of the words written and the rest untouched. When a
/// power cut is armed with [`Memory::set_power_cut`], every cycle-accounted
/// store commits only the whole 4-byte words whose write traffic fits
/// before the cut cycle, charges its full cost regardless (the device spent
/// the energy attempting the store), and counts a
/// [`MemoryStats::torn_writes`] when truncated. For a single word that
/// means: it lands iff one word's write cost still fits before the cut.
/// `poke_*` writes are exempt: they model runtime/debugger operations
/// whose atomicity is governed by the machine's atomic-charge protocol,
/// not by the memory bus.
///
/// # Brown-out corruption
///
/// Torn writes model a *clean* cut: every word that lands is correct.
/// Real brown-outs are dirtier — in the undervolted window right before
/// the supply dies, FRAM stores can flip bits or be silently dropped,
/// and SRAM decays rather than vanishing. Arming a [`CorruptionModel`]
/// via [`Memory::set_corruption`] enables these modes for *all* stores
/// longer than [`ATOMIC_STORE_BYTES`], poke-path included (checkpoint
/// banks are written with pokes, and the electrons do not care who
/// issued the store). The single-word form never consults the model: a
/// word is at or below that size, so the model would neither touch it
/// nor advance its RNG stream. Corrupted stores are counted in
/// [`MemoryStats::corrupted_writes`]; the model is seeded and fully
/// deterministic.
///
/// # Dirty-word write monitor
///
/// A DiCA-style hardware write monitor rides on every store path: each
/// region keeps a word-granular bitmap in which any byte that actually
/// *lands* (committed torn prefixes and flipped bytes included; dropped
/// stores excluded) marks its containing 4-byte word dirty. Runtimes
/// query it with [`Memory::count_dirty_words`] /
/// [`Memory::for_each_dirty_word`] to build incremental checkpoints and
/// clear the words they imaged with [`Memory::clear_dirty`]. The
/// monitor is pure bookkeeping: it charges no cycles, perturbs no
/// statistics, and the corruption RNG stream never sees it.
#[derive(Debug, Clone)]
pub struct Memory {
    layout: MemoryLayout,
    /// SRAM at index `SRAM`, FRAM after it. `Memory::resolve` is the
    /// one place an address picks between them.
    regions: [RegionMem; 2],
    /// Shared so mass-instantiated machines don't duplicate the table.
    costs: Arc<CostModel>,
    cycles: u64,
    power_failures: u64,
    torn_writes: u64,
    corrupted_writes: u64,
    /// Absolute cycle at which power dies; stores straddling it tear.
    cut_at: Option<u64>,
    /// Brown-out corruption model, if armed (see [`CorruptionModel`]).
    corruption: Option<CorruptionModel>,
    /// State of the corruption RNG stream (reseeded by
    /// [`Memory::set_corruption`]).
    corrupt_rng: u64,
    /// Cycle-attribution: who the current work is charged to.
    current_span: SpanKind,
    /// Cycles charged per span. Every increment of `cycles` also lands
    /// here, so `span_cycles.sum() == cycles` holds by construction.
    span_cycles: [u64; SpanKind::COUNT],
}

/// Index of SRAM in `Memory::regions`; FRAM is the other one.
const SRAM: usize = 0;

/// The cut a single-word store is tested against when none is armed:
/// simulated cycle counts stay far below the point where
/// `NO_CUT - cycles < cost` could misclassify a commit.
const NO_CUT: u64 = u64::MAX;

/// Bytes read from and written to one region (torn stores included).
#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    reads: u64,
    writes: u64,
}

/// One memory region's state: where it starts, its bytes, its dirty-word
/// bitmap (bit `w` set means region-relative word `w` has been stored to
/// since the bit was cleared), its per-word costs, and its traffic.
#[derive(Debug, Clone)]
struct RegionMem {
    start: u32,
    bytes: Vec<u8>,
    dirty: Vec<u64>,
    /// Dirty limbs below this index may cover written bytes whose dirty
    /// bits are clear: raised by [`Memory::clear_dirty`] and
    /// [`Memory::power_fail`], the only two ways a byte changes without
    /// a set bit to show for it. Every other written byte still has its
    /// bit set, so [`RegionMem::reset`] zeroes up to the larger of this
    /// mark and the last non-zero limb.
    written_limbs: usize,
    read_cost: u64,
    write_cost: u64,
    traffic: Traffic,
}

/// The region-relative offset of `[addr, addr + len)` in a region of
/// `size` bytes at `start`, if the whole range lies in it. One compare:
/// an address below `start` wraps to an offset past the region's end.
#[inline(always)]
fn offset_in(start: u32, size: usize, addr: u32, len: u32) -> Option<usize> {
    let off = addr.wrapping_sub(start) as usize;
    (off + len as usize <= size).then_some(off)
}

/// The little-endian word at byte offset `off`.
#[inline(always)]
fn load_word(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice"))
}

impl RegionMem {
    fn new(region: Region, read_cost: u64, write_cost: u64) -> RegionMem {
        RegionMem {
            start: region.start.0,
            bytes: vec![0; region.len() as usize],
            dirty: vec![0; dirty_len(region.len())],
            written_limbs: 0,
            read_cost,
            write_cost,
            traffic: Traffic::default(),
        }
    }

    /// Zeroes what a run could have written: the bytes and bitmap limbs
    /// up to the written high-water mark or the last dirty limb,
    /// whichever is higher. Everything above both is still zero.
    fn reset(&mut self) {
        let dirty_end = self
            .dirty
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |l| l + 1);
        let limbs = self.written_limbs.max(dirty_end);
        let bytes = (limbs * 64 * 4).min(self.bytes.len());
        self.bytes[..bytes].fill(0);
        self.dirty[..limbs].fill(0);
        self.written_limbs = 0;
        self.traffic = Traffic::default();
    }

    /// Borrows this region's bytes and bitmap for single-word accesses,
    /// with traffic counted in the view until [`RegionView::fold`].
    #[inline(always)]
    fn view(&mut self) -> RegionView<'_> {
        RegionView {
            start: self.start,
            bytes: &mut self.bytes,
            dirty: &mut self.dirty,
            read_cost: self.read_cost,
            write_cost: self.write_cost,
            traffic: Traffic::default(),
            out: &mut self.traffic,
        }
    }

    /// Charges a byte-range read of `len` bytes; returns its cycle cost.
    fn charge_read(&mut self, len: u32) -> u64 {
        self.traffic.reads += u64::from(len);
        self.read_cost * u64::from(len.div_ceil(4))
    }
}

/// The region at index `i` and the other one.
#[inline(always)]
fn pair(regions: &mut [RegionMem; 2], i: usize) -> (&mut RegionMem, &mut RegionMem) {
    let [a, b] = regions;
    if i == SRAM {
        (a, b)
    } else {
        (b, a)
    }
}

impl Memory {
    /// Creates zeroed memory with the calibrated MSP430 cost model.
    #[must_use]
    pub fn new(layout: MemoryLayout) -> Memory {
        Memory::with_costs(layout, CostModel::default())
    }

    /// Creates zeroed memory with a custom cost model.
    #[must_use]
    pub fn with_costs(layout: MemoryLayout, costs: CostModel) -> Memory {
        Memory::with_shared_costs(layout, Arc::new(costs))
    }

    /// Creates zeroed memory sharing an already-allocated cost model —
    /// the fleet engine hands the same `Arc` to every device.
    #[must_use]
    pub fn with_shared_costs(layout: MemoryLayout, costs: Arc<CostModel>) -> Memory {
        Memory {
            layout,
            regions: [
                RegionMem::new(
                    layout.sram,
                    costs.sram_access_per_word,
                    costs.sram_access_per_word,
                ),
                RegionMem::new(
                    layout.fram,
                    costs.fram_read_per_word,
                    costs.fram_write_per_word,
                ),
            ],
            costs,
            cycles: 0,
            power_failures: 0,
            torn_writes: 0,
            corrupted_writes: 0,
            cut_at: None,
            corruption: None,
            corrupt_rng: 0,
            current_span: SpanKind::App,
            span_cycles: [0; SpanKind::COUNT],
        }
    }

    /// The physical layout this memory was built with.
    #[must_use]
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// The cost model used for cycle accounting.
    #[must_use]
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Returns the memory to its exact as-constructed state — zeroed
    /// regions, clear dirty bitmaps, zero cycles and statistics, no
    /// armed cut or corruption model — while keeping every backing
    /// allocation. Recycling a machine across fleet devices and crash-
    /// oracle trials relies on this being indistinguishable from a
    /// fresh [`Memory::with_costs`].
    ///
    /// Only what a run wrote is zeroed. Each region keeps a written
    /// high-water mark in dirty-bitmap limbs (64 words each), raised by
    /// [`Memory::clear_dirty`] and [`Memory::power_fail`]; every other
    /// store leaves its dirty bit set. So a region is zeroed up to the
    /// higher of its mark and its last dirty limb, and a run that
    /// touched a few hundred bytes does not pay for a 64 KB fill.
    pub fn reset(&mut self) {
        for r in &mut self.regions {
            r.reset();
        }
        self.cycles = 0;
        self.power_failures = 0;
        self.torn_writes = 0;
        self.corrupted_writes = 0;
        self.cut_at = None;
        self.corruption = None;
        self.corrupt_rng = 0;
        self.current_span = SpanKind::App;
        self.span_cycles = [0; SpanKind::COUNT];
    }

    /// Total cycles spent so far (1 cycle = 1 µs at 1 MHz).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Adds `n` cycles of non-memory work (instruction execution, runtime
    /// logic). Runtimes use this to charge the Table 4 operation costs.
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles += n;
        self.span_cycles[self.current_span.index()] += n;
    }

    /// Opens span `kind` for subsequent cycle charges and returns the
    /// previously open span (so callers can restore it — the machine's
    /// RAII span guard does exactly that).
    pub fn set_span(&mut self, kind: SpanKind) -> SpanKind {
        std::mem::replace(&mut self.current_span, kind)
    }

    /// The currently open cycle-attribution span.
    #[must_use]
    pub fn current_span(&self) -> SpanKind {
        self.current_span
    }

    /// Cycles charged to `kind` so far.
    #[must_use]
    pub fn span_cycles(&self, kind: SpanKind) -> u64 {
        self.span_cycles[kind.index()]
    }

    /// Per-span cycle totals, indexed by [`SpanKind::index`]. Their sum
    /// equals [`Memory::cycles`] by construction — the span-total
    /// identity the profiling experiment asserts.
    #[must_use]
    pub fn span_cycles_all(&self) -> [u64; SpanKind::COUNT] {
        self.span_cycles
    }

    /// Usage statistics.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        let [sram, fram] = &self.regions;
        MemoryStats {
            sram_reads: sram.traffic.reads,
            sram_writes: sram.traffic.writes,
            fram_reads: fram.traffic.reads,
            fram_writes: fram.traffic.writes,
            power_failures: self.power_failures,
            torn_writes: self.torn_writes,
            corrupted_writes: self.corrupted_writes,
        }
    }

    /// Simulates a power failure: SRAM is clobbered with a recognizable
    /// pattern, FRAM is untouched — *including* the torn prefix of any
    /// store the armed power cut truncated. Registers live outside this
    /// struct; the machine owner must also call [`crate::Registers::reset`].
    /// The cut itself is disarmed: the next boot runs untorn until a new
    /// deadline is armed.
    ///
    /// Under a [`CorruptionModel`] with `sram_decay < 1.0`, each SRAM
    /// byte decays (is clobbered) independently with that probability
    /// and *retains its pre-failure value* otherwise — modelling the
    /// data remanence of short outages, where stale-but-plausible SRAM
    /// contents are far more dangerous than obvious garbage.
    pub fn power_fail(&mut self) {
        let region = &mut self.regions[SRAM];
        region.written_limbs = region.dirty.len();
        let sram = &mut region.bytes;
        match self.corruption {
            Some(c) if c.sram_decay < 1.0 => {
                for byte in sram {
                    if unit(next_draw(&mut self.corrupt_rng)) < c.sram_decay {
                        *byte = SRAM_CLOBBER;
                    }
                }
            }
            _ => sram.fill(SRAM_CLOBBER),
        }
        self.power_failures += 1;
        self.cut_at = None;
    }

    /// Arms (or disarms, with `None`) the brown-out corruption model and
    /// reseeds its RNG stream from the model's seed.
    pub fn set_corruption(&mut self, model: Option<CorruptionModel>) {
        self.corrupt_rng = model.map_or(0, |m| m.seed);
        self.corruption = model;
    }

    /// The armed corruption model, if any.
    #[must_use]
    pub fn corruption(&self) -> Option<&CorruptionModel> {
        self.corruption.as_ref()
    }

    /// Decides what dirty power does to a store of `len` bytes issued
    /// right now. Only consulted (and only advances the RNG) when a cut
    /// is armed, fewer than `window` cycles remain before it, and the
    /// store is longer than the controller's atomic write buffer.
    fn store_fate(&mut self, len: usize) -> StoreFate {
        let Some(c) = self.corruption else {
            return StoreFate::Keep;
        };
        let Some(cut) = self.cut_at else {
            return StoreFate::Keep;
        };
        if len <= ATOMIC_STORE_BYTES || cut.saturating_sub(self.cycles) > c.window {
            return StoreFate::Keep;
        }
        let draw = unit(next_draw(&mut self.corrupt_rng));
        if draw < c.drop_prob {
            StoreFate::Drop
        } else if draw < c.drop_prob + c.flip_prob {
            let r = next_draw(&mut self.corrupt_rng);
            StoreFate::Flip {
                offset: (r >> 8) as usize % len,
                mask: 1 << (r & 7),
            }
        } else {
            StoreFate::Keep
        }
    }

    /// Arms (or disarms, with `None`) the power-cut boundary at an
    /// absolute cycle count. Cycle-accounted stores whose traffic crosses
    /// the boundary commit only the whole words that fit before it.
    pub fn set_power_cut(&mut self, cut_at: Option<u64>) {
        self.cut_at = cut_at;
    }

    /// The armed power-cut cycle, if any.
    #[must_use]
    pub fn power_cut(&self) -> Option<u64> {
        self.cut_at
    }

    /// How many of `len` bytes a store beginning now would actually
    /// commit, at `per_word` cycles per word: the whole 4-byte words whose
    /// write cost completes at or before the armed cut.
    fn committed_prefix(&self, per_word: u64, len: u32) -> u32 {
        let Some(cut) = self.cut_at else { return len };
        if per_word == 0 {
            return len;
        }
        let affordable_words = cut.saturating_sub(self.cycles) / per_word;
        if affordable_words >= u64::from(len.div_ceil(4)) {
            return len;
        }
        (affordable_words as u32).saturating_mul(4).min(len)
    }

    /// The resolver: maps `[addr, addr + len)` to the index of the region
    /// that holds all of it and the region-relative offset of `addr`.
    #[inline(always)]
    fn resolve(&self, addr: Addr, len: u32) -> Result<(usize, usize), MemoryError> {
        let [a, b] = &self.regions;
        if let Some(off) = offset_in(a.start, a.bytes.len(), addr.0, len) {
            Ok((0, off))
        } else if let Some(off) = offset_in(b.start, b.bytes.len(), addr.0, len) {
            Ok((1, off))
        } else {
            Err(MemoryError::Unmapped { addr, len })
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the range is not fully mapped.
    pub fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) -> Result<(), MemoryError> {
        let len = buf.len() as u32;
        let (i, off) = self.resolve(addr, len)?;
        let r = &mut self.regions[i];
        buf.copy_from_slice(&r.bytes[off..off + buf.len()]);
        let cost = r.charge_read(len);
        self.add_cycles(cost);
        Ok(())
    }

    /// Writes `buf` starting at `addr`. If a power cut is armed and the
    /// store's traffic crosses it, only a word-granular prefix commits
    /// (see the struct-level *Torn writes* notes); the full cost is
    /// charged either way.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the range is not fully mapped.
    pub fn write_bytes(&mut self, addr: Addr, buf: &[u8]) -> Result<(), MemoryError> {
        self.store(addr, buf.len() as u32, StoreSrc::Bytes(buf))
    }

    /// The one cycle-accounted byte-range store path behind
    /// [`Memory::write_bytes`], [`Memory::fill`] and [`Memory::copy`]:
    /// torn-prefix truncation, one brown-out fate draw, dirty marking of
    /// what landed, and the full write charge. A store that faults draws
    /// no fate.
    fn store(&mut self, addr: Addr, len: u32, src: StoreSrc<'_>) -> Result<(), MemoryError> {
        // Bounds-check the whole range — the MCU decodes the access before
        // the bus starts moving words, so an unmapped tail still faults.
        let (i, off) = self.resolve(addr, len)?;
        let write_cost = self.regions[i].write_cost;
        let committed = self.committed_prefix(write_cost, len) as usize;
        let fate = self.store_fate(committed);
        let (dst, other) = pair(&mut self.regions, i);
        let mut landed = committed as u32;
        if let StoreFate::Drop = fate {
            landed = 0;
            self.corrupted_writes += 1;
        } else {
            let to = off..off + committed;
            match src {
                StoreSrc::Bytes(buf) => dst.bytes[to].copy_from_slice(&buf[..committed]),
                StoreSrc::Fill(value) => dst.bytes[to].fill(value),
                StoreSrc::Within(si, so) if si == i => {
                    dst.bytes.copy_within(so..so + committed, off);
                }
                StoreSrc::Within(_, so) => {
                    dst.bytes[to].copy_from_slice(&other.bytes[so..so + committed]);
                }
            }
            if let StoreFate::Flip { offset, mask } = fate {
                dst.bytes[off + offset] ^= mask;
                self.corrupted_writes += 1;
            }
        }
        if committed < len as usize {
            self.torn_writes += 1;
        }
        mark_dirty_bits(&mut dst.dirty, off as u32, landed);
        dst.traffic.writes += u64::from(len);
        self.add_cycles(write_cost * u64::from(len.div_ceil(4)));
        Ok(())
    }

    /// Reads a little-endian `i32` (the VM's `int`) on the byte-range
    /// form.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    pub fn read_i32(&mut self, addr: Addr) -> Result<i32, MemoryError> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b)?;
        Ok(i32::from_le_bytes(b))
    }

    /// Writes a little-endian `i32` on the byte-range form.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    pub fn write_i32(&mut self, addr: Addr, v: i32) -> Result<(), MemoryError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Moves the cycle counter to `cycles`, charging the difference to
    /// the open span.
    #[inline(always)]
    fn advance_to(&mut self, cycles: u64) {
        self.span_cycles[self.current_span.index()] += cycles - self.cycles;
        self.cycles = cycles;
    }

    /// Reads a little-endian `u32` on the single-word form: the
    /// [`WordBurst`] read, on the one region `addr` resolves to.
    /// Byte-for-byte and cycle-for-cycle equal to a 4-byte
    /// [`Memory::read_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline]
    pub fn read_word(&mut self, addr: Addr) -> Result<u32, MemoryError> {
        let (i, off) = self.resolve(addr, 4)?;
        let mut cycles = self.cycles;
        let mut r = self.regions[i].view();
        let v = r.read(off, &mut cycles);
        r.fold();
        self.advance_to(cycles);
        Ok(v)
    }

    /// Writes a little-endian `u32` on the single-word form: the
    /// [`WordBurst`] store, on the one region `addr` resolves to.
    /// Byte-for-byte and cycle-for-cycle equal to a 4-byte
    /// [`Memory::write_bytes`], including torn-store behavior: if an
    /// armed power cut leaves fewer cycles than one word's write cost,
    /// nothing commits and the store counts as torn (the full cost is
    /// still charged).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline]
    pub fn write_word(&mut self, addr: Addr, v: u32) -> Result<(), MemoryError> {
        let (i, off) = self.resolve(addr, 4)?;
        let mut cycles = self.cycles;
        let mut r = self.regions[i].view();
        let torn = r.write::<true>(off, v, &mut cycles, self.cut_at.unwrap_or(NO_CUT));
        r.fold();
        self.torn_writes += u64::from(torn);
        self.advance_to(cycles);
        Ok(())
    }

    /// Reads a word without charging cycles or touching stats.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline]
    pub fn peek_word(&self, addr: Addr) -> Result<u32, MemoryError> {
        let (i, off) = self.resolve(addr, 4)?;
        Ok(load_word(&self.regions[i].bytes, off))
    }

    /// Opens a [`WordBurst`] over the frame `[fp, fp + frame_len)`: the
    /// decoded interpreter's view of memory for one burst zone. Region
    /// bounds, per-word costs, the armed power cut, the open span and
    /// the frame's place in its region are resolved once; cycle and
    /// traffic counters accumulate in the view and land back here on
    /// [`WordBurst::commit`]. Between `word_burst` and `commit` this
    /// `Memory` must not be accessed (the borrow checker enforces it),
    /// so the view cannot diverge from the canonical counters.
    ///
    /// Returns `None` when the frame does not lie inside one region. A
    /// frame the runtime allocated always does; only a corrupted frame
    /// pointer can fail this.
    #[inline(always)]
    #[must_use]
    pub fn word_burst(&mut self, fp: Addr, frame_len: u32) -> Option<WordBurst<'_>> {
        let (i, frame_off) = self.resolve(fp, frame_len).ok()?;
        let c = &*self.costs;
        let max_word_cost = c
            .sram_access_per_word
            .max(c.fram_read_per_word)
            .max(c.fram_write_per_word);
        let instr_base = c.instr_base;
        let (frame, other) = pair(&mut self.regions, i);
        Some(WordBurst {
            frame: frame.view(),
            other: other.view(),
            frame_off,
            max_word_cost,
            instr_base,
            cut_at: self.cut_at.unwrap_or(NO_CUT),
            cycles: self.cycles,
            start_cycles: self.cycles,
            torn_writes: 0,
            cycles_out: &mut self.cycles,
            span_out: &mut self.span_cycles[self.current_span.index()],
            torn_out: &mut self.torn_writes,
        })
    }

    /// Copies `len` bytes from `src` to `dst` inside simulated memory,
    /// charging both the read and the write traffic. Ranges may overlap.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if either range is not mapped.
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u32) -> Result<(), MemoryError> {
        // Exactly `read_bytes` into a buffer then `write_bytes` of it:
        // the read is charged first, and `copy_within` moves the source
        // bytes as they were before the store, overlap or not.
        let (i, off) = self.resolve(src, len)?;
        let cost = self.regions[i].charge_read(len);
        self.add_cycles(cost);
        self.store(dst, len, StoreSrc::Within(i, off))
    }

    /// Fills `len` bytes at `addr` with `value`. Subject to the same
    /// torn-write truncation as [`Memory::write_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the range is not mapped.
    pub fn fill(&mut self, addr: Addr, len: u32, value: u8) -> Result<(), MemoryError> {
        self.store(addr, len, StoreSrc::Fill(value))
    }

    /// Debugger-style read of `len` bytes, borrowed: no cycles, no
    /// statistics. The range must lie within a single region (SRAM or
    /// FRAM) — the same constraint every other accessor enforces.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the range is not mapped.
    pub fn peek_slice(&self, addr: Addr, len: u32) -> Result<&[u8], MemoryError> {
        let (i, off) = self.resolve(addr, len)?;
        Ok(&self.regions[i].bytes[off..off + len as usize])
    }

    /// Debugger-style `u64` read: no cycles, no statistics.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    pub fn peek_u64(&self, addr: Addr) -> Result<u64, MemoryError> {
        let b = self.peek_slice(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Debugger-style write: no cycles, no traffic statistics. Exempt
    /// from torn-write truncation, but *not* from the brown-out
    /// [`CorruptionModel`] — poke-path stores are real bus traffic
    /// electrically (checkpoint banks are written this way), so an
    /// undervolted window can still flip or drop them, counted in
    /// [`MemoryStats::corrupted_writes`].
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the range is not mapped.
    pub fn poke_bytes(&mut self, addr: Addr, buf: &[u8]) -> Result<(), MemoryError> {
        let len = buf.len() as u32;
        let (i, off) = self.resolve(addr, len)?;
        let fate = self.store_fate(buf.len());
        let r = &mut self.regions[i];
        let dst = &mut r.bytes[off..off + buf.len()];
        let mut landed = len;
        match fate {
            StoreFate::Keep => dst.copy_from_slice(buf),
            StoreFate::Flip { offset, mask } => {
                dst.copy_from_slice(buf);
                dst[offset] ^= mask;
                self.corrupted_writes += 1;
            }
            StoreFate::Drop => {
                landed = 0;
                self.corrupted_writes += 1;
            }
        }
        mark_dirty_bits(&mut r.dirty, off as u32, landed);
        Ok(())
    }

    /// Debugger-style `i32` write: no cycles, no statistics.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    pub fn poke_i32(&mut self, addr: Addr, v: i32) -> Result<(), MemoryError> {
        self.poke_bytes(addr, &v.to_le_bytes())
    }

    // ---- dirty-word write monitor queries ----

    /// Resolves `[addr, addr + len)` to its region index and the
    /// inclusive word-index range it covers. `None` for empty or
    /// unmapped ranges (the monitor has nothing to say about them).
    fn dirty_range(&self, addr: Addr, len: u32) -> Option<(usize, u32, u32)> {
        if len == 0 {
            return None;
        }
        let (i, off) = self.resolve(addr, len).ok()?;
        let off = off as u32;
        Some((i, off / 4, (off + len - 1) / 4))
    }

    /// Masks `limb` down to the bits belonging to words
    /// `[first, last]` when it is the first and/or last limb of the
    /// range.
    #[inline]
    fn range_limb(limb: u64, li: usize, first: u32, last: u32) -> u64 {
        let mut v = limb;
        if li == (first >> 6) as usize {
            v &= !0u64 << (first & 63);
        }
        if li == (last >> 6) as usize {
            let top = last & 63;
            if top < 63 {
                v &= (1u64 << (top + 1)) - 1;
            }
        }
        v
    }

    /// Whether the 4-byte word containing `addr` has been stored to
    /// since its dirty bit was last cleared.
    #[must_use]
    pub fn is_word_dirty(&self, addr: Addr) -> bool {
        self.count_dirty_words(addr, 1) != 0
    }

    /// Number of dirty words in `[addr, addr + len)` (word-granular:
    /// partially covered words count). Zero for unmapped ranges.
    #[must_use]
    pub fn count_dirty_words(&self, addr: Addr, len: u32) -> u32 {
        let Some((i, first, last)) = self.dirty_range(addr, len) else {
            return 0;
        };
        let fl = (first >> 6) as usize;
        self.regions[i].dirty[fl..=(last >> 6) as usize]
            .iter()
            .enumerate()
            .map(|(j, &limb)| Memory::range_limb(limb, fl + j, first, last).count_ones())
            .sum()
    }

    /// Calls `f` with the base address of every dirty word in
    /// `[addr, addr + len)`, in ascending address order. Base addresses
    /// are region-word-aligned (`region.start + 4 * word_index`).
    pub fn for_each_dirty_word(&self, addr: Addr, len: u32, mut f: impl FnMut(Addr)) {
        let Some((i, first, last)) = self.dirty_range(addr, len) else {
            return;
        };
        let r = &self.regions[i];
        let fl = (first >> 6) as usize;
        for (j, &raw) in r.dirty[fl..=(last >> 6) as usize].iter().enumerate() {
            let li = fl + j;
            let mut limb = Memory::range_limb(raw, li, first, last);
            while limb != 0 {
                let w = (li as u32) * 64 + limb.trailing_zeros();
                f(Addr(r.start + 4 * w));
                limb &= limb - 1;
            }
        }
    }

    /// Clears the dirty bits of every word in `[addr, addr + len)` —
    /// the checkpoint-commit acknowledgement: those words are now
    /// captured in persistent state. No-op for unmapped ranges.
    pub fn clear_dirty(&mut self, addr: Addr, len: u32) {
        let Some((i, first, last)) = self.dirty_range(addr, len) else {
            return;
        };
        let (fl, ll) = ((first >> 6) as usize, (last >> 6) as usize);
        let r = &mut self.regions[i];
        r.written_limbs = r.written_limbs.max(ll + 1);
        for (j, limb) in r.dirty[fl..=ll].iter_mut().enumerate() {
            *limb &= !Memory::range_limb(!0u64, fl + j, first, last);
        }
    }
}

/// A region's bytes and dirty bitmap borrowed for single-word accesses,
/// with its per-word costs and the traffic charged through the view.
/// [`RegionView::read`] and [`RegionView::write`] are the one
/// implementation of the single-word form: [`Memory::read_word`] and
/// [`Memory::write_word`] run them on a view of the region they resolve,
/// a [`WordBurst`] on the views it holds for a whole zone.
#[derive(Debug)]
struct RegionView<'a> {
    start: u32,
    bytes: &'a mut [u8],
    dirty: &'a mut [u64],
    read_cost: u64,
    write_cost: u64,
    /// Traffic through this view, kept here, not behind `out`, so that a
    /// view held in a local keeps its counters in registers.
    traffic: Traffic,
    /// The region's own counters, which [`RegionView::fold`] adds to.
    out: &'a mut Traffic,
}

impl RegionView<'_> {
    /// The region-relative offset of a 4-byte access at `addr`, if the
    /// whole word lies in this region.
    #[inline(always)]
    fn word_off(&self, addr: u32) -> Option<usize> {
        offset_in(self.start, self.bytes.len(), addr, 4)
    }

    /// Charges a read of the word at `off` and returns it.
    #[inline(always)]
    fn read(&mut self, off: usize, cycles: &mut u64) -> u32 {
        self.traffic.reads += 4;
        *cycles += self.read_cost;
        load_word(self.bytes, off)
    }

    /// Stores `v` at `off`, charging the full write cost, and returns
    /// whether the store tore: the one place that decides whether a
    /// single word commits before the cut. Against the cut at `cut_at`
    /// the word commits iff its write cost still fits; `CUT = false`
    /// promises that it does, and skips the test.
    #[inline(always)]
    fn write<const CUT: bool>(
        &mut self,
        off: usize,
        v: u32,
        cycles: &mut u64,
        cut_at: u64,
    ) -> bool {
        let cost = self.write_cost;
        let torn = CUT && cost != 0 && cut_at.saturating_sub(*cycles) < cost;
        debug_assert!(
            CUT || cost == 0 || cut_at.saturating_sub(*cycles) >= cost,
            "a store tore in a zone that promised no reachable cut"
        );
        if !torn {
            self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
            mark_word_dirty(self.dirty, off);
        }
        self.traffic.writes += 4;
        *cycles += cost;
        torn
    }

    /// Adds the view's traffic to its region's counters.
    #[inline(always)]
    fn fold(self) {
        self.out.reads += self.traffic.reads;
        self.out.writes += self.traffic.writes;
    }
}

/// The decoded interpreter's view of memory for one burst zone, opened
/// with [`Memory::word_burst`].
///
/// A zone runs plain ops back to back between runtime interventions,
/// so its per-access cost is the interpreter's speed. The view resolves
/// everything constant for the zone once: region bounds, per-word
/// costs, the armed power cut, the open span, and which region holds
/// the zone's frame (`fp` never moves inside a zone). Cycles and
/// traffic counters accumulate in the view's own fields and
/// [`WordBurst::commit`] folds them back.
///
/// The caller keeps the view in a local of the function that runs the
/// zone, with every access inlined. The view itself holds the
/// counters, not references to the [`Memory`] fields: a counter
/// reached through a pointer stays in memory, because the optimizer
/// must assume that a store through the view's byte slices may alias
/// it. A local whose address never escapes can live in registers.
///
/// Accesses come in two kinds:
///
/// * **Frame accessors** ([`read_frame`](WordBurst::read_frame),
///   [`write_frame`](WordBurst::write_frame),
///   [`peek_frame`](WordBurst::peek_frame)) take a byte offset from
///   `fp` and index the frame's region directly: one bound compare, no
///   region test. The decoder proves that local-slot offsets lie in
///   the frame, and its depth proof keeps `sp` there. A word outside
///   the frame's region, which only a corrupted `sp` can address,
///   takes the general path below, so every address still reads and
///   writes as it would there.
/// * **General accessors** ([`read_word`](WordBurst::read_word),
///   [`write_word`](WordBurst::write_word)) test the frame's region
///   first and then the other one.
///
/// Every access runs the same single-word read or store as
/// [`Memory::read_word`] and [`Memory::write_word`] (and peeks as
/// [`Memory::peek_word`] does): same bounds decisions, cycle charges,
/// traffic counters, dirty bits and torn commit against the power cut.
///
/// Stores take a `CUT` parameter. `CUT = false` skips the torn-store
/// test; it is exact only when no store can reach the cut, which
/// [`WordBurst::cut_in_reach`] decides for a whole zone.
#[derive(Debug)]
pub struct WordBurst<'a> {
    /// The region holding the zone's frame, tested first.
    frame: RegionView<'a>,
    /// The other region.
    other: RegionView<'a>,
    /// `fp`'s offset in the frame's region.
    frame_off: usize,
    /// The dearest single-word access of either region.
    max_word_cost: u64,
    instr_base: u64,
    /// Armed power cut, `NO_CUT` when disarmed.
    cut_at: u64,
    /// Running absolute cycle counter (starts at the memory's value).
    cycles: u64,
    start_cycles: u64,
    torn_writes: u64,
    cycles_out: &'a mut u64,
    span_out: &'a mut u64,
    torn_out: &'a mut u64,
}

impl WordBurst<'_> {
    /// Current absolute cycle count (the burst's local view).
    #[inline(always)]
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether a store can tear in a zone that stops at the first op
    /// ending at or after `stop_at` and whose ops each make at most
    /// `op_words` word accesses. The zone's last op starts before
    /// `stop_at`, or is its first op, which starts now and always runs;
    /// either way its last store ends by
    /// `max(stop_at, now) + instr_base + op_words × (dearest word cost)`.
    /// A cut at or after that bound is out of reach.
    #[inline]
    #[must_use]
    pub fn cut_in_reach(&self, stop_at: u64, op_words: u64) -> bool {
        let last_end = stop_at
            .max(self.cycles)
            .saturating_add(self.instr_base)
            .saturating_add(op_words.saturating_mul(self.max_word_cost));
        self.cut_at < last_end
    }

    /// Folds the accumulated deltas back into the owning [`Memory`].
    /// All burst cycles belong to the span that was open when the view
    /// was created — span changes only happen through runtime code,
    /// which never runs inside a burst.
    #[inline(always)]
    pub fn commit(self) {
        *self.cycles_out = self.cycles;
        *self.span_out += self.cycles - self.start_cycles;
        *self.torn_out += self.torn_writes;
        self.frame.fold();
        self.other.fold();
    }

    /// The absolute address `off` bytes into the frame.
    #[inline(always)]
    fn frame_addr(&self, off: u32) -> Addr {
        Addr((self.frame.start + self.frame_off as u32).wrapping_add(off))
    }

    /// Reads the word `off` bytes into the frame, as
    /// [`WordBurst::read_word`] reads `fp + off`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline(always)]
    pub fn read_frame(&mut self, off: u32) -> Result<u32, MemoryError> {
        let o = self.frame_off + off as usize;
        if o + 4 <= self.frame.bytes.len() {
            Ok(self.frame.read(o, &mut self.cycles))
        } else {
            self.read_word(self.frame_addr(off))
        }
    }

    /// Writes the word `off` bytes into the frame, as
    /// [`WordBurst::write_word`] writes `fp + off`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline(always)]
    pub fn write_frame<const CUT: bool>(&mut self, off: u32, v: u32) -> Result<(), MemoryError> {
        let o = self.frame_off + off as usize;
        if o + 4 <= self.frame.bytes.len() {
            let torn = self.frame.write::<CUT>(o, v, &mut self.cycles, self.cut_at);
            self.torn_writes += u64::from(torn);
            Ok(())
        } else {
            self.write_word::<CUT>(self.frame_addr(off), v)
        }
    }

    /// Reads the word `off` bytes into the frame without charging
    /// cycles or stats (`Dup`'s peek), as [`Memory::peek_word`] reads
    /// `fp + off`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline(always)]
    pub fn peek_frame(&self, off: u32) -> Result<u32, MemoryError> {
        let o = self.frame_off + off as usize;
        if o + 4 <= self.frame.bytes.len() {
            return Ok(load_word(self.frame.bytes, o));
        }
        let addr = self.frame_addr(off);
        if let Some(o) = self.frame.word_off(addr.0) {
            Ok(load_word(self.frame.bytes, o))
        } else if let Some(o) = self.other.word_off(addr.0) {
            Ok(load_word(self.other.bytes, o))
        } else {
            Err(MemoryError::Unmapped { addr, len: 4 })
        }
    }

    /// Reads a little-endian `u32`, charging cycles and traffic, as
    /// [`Memory::read_word`] does.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline(always)]
    pub fn read_word(&mut self, addr: Addr) -> Result<u32, MemoryError> {
        if let Some(off) = self.frame.word_off(addr.0) {
            Ok(self.frame.read(off, &mut self.cycles))
        } else if let Some(off) = self.other.word_off(addr.0) {
            Ok(self.other.read(off, &mut self.cycles))
        } else {
            Err(MemoryError::Unmapped { addr, len: 4 })
        }
    }

    /// Writes a little-endian `u32`, charging cycles and traffic, as
    /// [`Memory::write_word`] does. Against an armed cut the word commits
    /// iff its full write cost still fits, else it tears (full cost still
    /// charged). `CUT = false` skips that test: the caller promises, via
    /// [`WordBurst::cut_in_reach`], that the cut is out of reach.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if any byte is not mapped.
    #[inline(always)]
    pub fn write_word<const CUT: bool>(&mut self, addr: Addr, v: u32) -> Result<(), MemoryError> {
        let torn = if let Some(off) = self.frame.word_off(addr.0) {
            self.frame
                .write::<CUT>(off, v, &mut self.cycles, self.cut_at)
        } else if let Some(off) = self.other.word_off(addr.0) {
            self.other
                .write::<CUT>(off, v, &mut self.cycles, self.cut_at)
        } else {
            return Err(MemoryError::Unmapped { addr, len: 4 });
        };
        self.torn_writes += u64::from(torn);
        Ok(())
    }

    /// Charges the base cost of one instruction to the open span.
    #[inline(always)]
    pub fn charge_instr(&mut self) {
        self.cycles += self.instr_base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    fn mem() -> Memory {
        Memory::new(MemoryLayout::default())
    }

    /// A one-byte read on the byte-range form.
    fn read_u8(m: &mut Memory, a: Addr) -> Result<u8, MemoryError> {
        let mut b = [0u8; 1];
        m.read_bytes(a, &mut b)?;
        Ok(b[0])
    }

    /// A `u64` read on the byte-range form.
    fn read_u64(m: &mut Memory, a: Addr) -> u64 {
        let mut b = [0u8; 8];
        m.read_bytes(a, &mut b).unwrap();
        u64::from_le_bytes(b)
    }

    /// A `u64` store on the byte-range form.
    fn write_u64(m: &mut Memory, a: Addr, v: u64) {
        m.write_bytes(a, &v.to_le_bytes()).unwrap();
    }

    #[test]
    fn fram_survives_power_failure() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.write_word(a, 0xCAFE_F00D).unwrap();
        m.power_fail();
        assert_eq!(m.read_word(a).unwrap(), 0xCAFE_F00D);
        assert_eq!(m.stats().power_failures, 1);
    }

    #[test]
    fn sram_clobbered_on_power_failure() {
        let mut m = mem();
        let a = m.layout().sram.start;
        m.write_word(a, 0x1234_5678).unwrap();
        m.power_fail();
        assert_eq!(read_u8(&mut m, a).unwrap(), SRAM_CLOBBER);
        assert_ne!(m.read_word(a).unwrap(), 0x1234_5678);
    }

    #[test]
    fn unmapped_access_is_an_error() {
        let mut m = mem();
        let err = read_u8(&mut m, Addr(0)).unwrap_err();
        assert_eq!(
            err,
            MemoryError::Unmapped {
                addr: Addr(0),
                len: 1
            }
        );
        // Access straddling the end of SRAM is rejected even though it
        // starts mapped.
        let end = m.layout().sram.end;
        assert!(m.write_word(Addr(end.0 - 2), 1).is_err());
    }

    #[test]
    fn little_endian_roundtrips() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.write_i32(a, -123_456).unwrap();
        assert_eq!(m.read_i32(a).unwrap(), -123_456);
        write_u64(&mut m, a, u64::MAX - 7);
        assert_eq!(read_u64(&mut m, a), u64::MAX - 7);
        assert_eq!(read_u8(&mut m, a).unwrap(), (u64::MAX - 7).to_le_bytes()[0]);
    }

    #[test]
    fn copy_moves_bytes_and_charges_cycles() {
        let mut m = mem();
        let src = m.layout().fram.start;
        let dst = src.offset(64);
        m.write_bytes(src, &[1, 2, 3, 4]).unwrap();
        let before = m.cycles();
        m.copy(src, dst, 4).unwrap();
        assert_eq!(m.peek_slice(dst, 4).unwrap(), [1, 2, 3, 4]);
        assert!(m.cycles() > before);
    }

    #[test]
    fn copy_matches_read_then_write() {
        // `copy` must be indistinguishable from `read_bytes` into a buffer
        // followed by `write_bytes` of it: contents, torn prefix, brown-out
        // fate (and RNG position), dirty words, stats, cycles and errors —
        // for overlapping, cross-region and unmapped ranges.
        let l = MemoryLayout::default();
        let (s, f) = (l.sram.start, l.fram.start);
        let cases = [
            (f.offset(8), f.offset(30), 200),
            (f.offset(30), f.offset(8), 200),
            (f.offset(3), f.offset(3), 64),
            (s.offset(5), f.offset(1), 300),
            (f.offset(2), s.offset(9), 300),
            (f, Addr(4), 16),
            (Addr(4), f, 16),
        ];
        let (mut corrupted, mut torn) = (0, 0);
        for seed in 0..12u64 {
            for &(src, dst, len) in &cases {
                let setup = || {
                    let mut m = mem();
                    let bytes: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 1) as u8).collect();
                    m.poke_bytes(s, &bytes).unwrap();
                    m.poke_bytes(f, &bytes).unwrap();
                    m.clear_dirty(s, l.sram.len());
                    m.clear_dirty(f, l.fram.len());
                    if seed % 3 != 0 {
                        m.set_corruption(Some(CorruptionModel::new(u64::MAX, 0.4, 0.3, seed)));
                    }
                    if seed % 4 != 3 {
                        m.set_power_cut(Some(m.cycles() + 40 * seed));
                    }
                    m
                };
                let mut a = setup();
                let mut b = setup();
                let got = a.copy(src, dst, len);
                let want = (|| {
                    let mut buf = vec![0u8; len as usize];
                    b.read_bytes(src, &mut buf)?;
                    b.write_bytes(dst, &buf)
                })();
                let case = format!("seed {seed}, {src} -> {dst}, {len} bytes");
                assert_eq!(got, want, "{case}");
                assert_eq!(a.regions[0].bytes, b.regions[0].bytes, "{case}");
                assert_eq!(a.regions[1].bytes, b.regions[1].bytes, "{case}");
                assert_eq!(all_dirty_words(&a), all_dirty_words(&b), "{case}");
                assert_eq!(a.stats(), b.stats(), "{case}");
                assert_eq!(a.cycles(), b.cycles(), "{case}");
                assert_eq!(a.span_cycles_all(), b.span_cycles_all(), "{case}");
                assert_eq!(a.corrupt_rng, b.corrupt_rng, "{case}");
                corrupted += a.stats().corrupted_writes;
                torn += a.stats().torn_writes;
            }
        }
        assert!(
            corrupted > 0 && torn > 0,
            "the grid must exercise fates and tears"
        );
    }

    #[test]
    fn peek_poke_do_not_charge() {
        let mut m = mem();
        let a = m.layout().fram.start;
        let before = (m.cycles(), m.stats());
        m.poke_i32(a, 99).unwrap();
        assert_eq!(m.peek_word(a).unwrap(), 99);
        assert_eq!((m.cycles(), m.stats()), before);
    }

    #[test]
    fn fram_writes_cost_more_than_sram() {
        let mut m = mem();
        let s = m.layout().sram.start;
        let f = m.layout().fram.start;
        let c0 = m.cycles();
        m.write_word(s, 1).unwrap();
        let sram_cost = m.cycles() - c0;
        let c1 = m.cycles();
        m.write_word(f, 1).unwrap();
        let fram_cost = m.cycles() - c1;
        assert!(fram_cost > sram_cost);
    }

    #[test]
    fn stats_track_traffic_by_region() {
        let mut m = mem();
        let s = m.layout().sram.start;
        let f = m.layout().fram.start;
        m.write_i32(s, 1).unwrap();
        m.read_i32(s).unwrap();
        m.write_word(f, 1).unwrap();
        let st = m.stats();
        assert_eq!(st.sram_writes, 4);
        assert_eq!(st.sram_reads, 4);
        assert_eq!(st.fram_writes, 4);
        assert_eq!(st.fram_reads, 0);
    }

    #[test]
    fn custom_layout_is_respected() {
        let layout = MemoryLayout::new(
            Region::with_len(Addr(0x100), 0x100),
            Region::with_len(Addr(0x1000), 0x1000),
        );
        let mut m = Memory::new(layout);
        assert!(m.write_bytes(Addr(0x100), &[1]).is_ok());
        assert!(m.write_bytes(Addr(0x200), &[1]).is_err());
        assert!(m.write_bytes(Addr(0x1FFF), &[1]).is_ok());
    }

    #[test]
    fn torn_write_commits_word_prefix_only() {
        let mut m = mem();
        let a = m.layout().fram.start;
        write_u64(&mut m, a, 0x1111_1111_1111_1111);
        let per_word = m.costs().fram_write_per_word;
        // Budget for exactly one of the two words of a u64 store.
        m.set_power_cut(Some(m.cycles() + per_word));
        write_u64(&mut m, a, 0xAAAA_BBBB_CCCC_DDDD);
        // Low word landed, high word still holds the old value.
        assert_eq!(m.peek_u64(a).unwrap(), 0x1111_1111_CCCC_DDDD);
        assert_eq!(m.stats().torn_writes, 1);
    }

    #[test]
    fn write_past_cut_commits_nothing_but_still_charges() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.write_i32(a, 7).unwrap();
        m.set_power_cut(Some(m.cycles())); // dead right now
        let before = m.cycles();
        m.write_i32(a, 99).unwrap();
        assert_eq!(m.peek_word(a).unwrap(), 7);
        assert!(m.cycles() > before); // full cost charged regardless
        assert_eq!(m.stats().torn_writes, 1);
    }

    #[test]
    fn exact_fit_store_is_not_torn() {
        let mut m = mem();
        let a = m.layout().fram.start;
        let per_word = m.costs().fram_write_per_word;
        m.set_power_cut(Some(m.cycles() + 2 * per_word));
        write_u64(&mut m, a, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(m.peek_u64(a).unwrap(), 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(m.stats().torn_writes, 0);
    }

    #[test]
    fn power_fail_disarms_the_cut() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_power_cut(Some(0));
        m.power_fail();
        assert_eq!(m.power_cut(), None);
        write_u64(&mut m, a, 42);
        assert_eq!(m.peek_u64(a).unwrap(), 42);
        assert_eq!(m.stats().torn_writes, 0);
    }

    #[test]
    fn pokes_ignore_the_cut() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_power_cut(Some(0));
        m.poke_bytes(a, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(
            m.peek_u64(a).unwrap(),
            u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8])
        );
        assert_eq!(m.stats().torn_writes, 0);
    }

    #[test]
    fn torn_fill_truncates_at_word_boundary() {
        let mut m = mem();
        let a = m.layout().fram.start;
        let per_word = m.costs().fram_write_per_word;
        m.set_power_cut(Some(m.cycles() + 2 * per_word));
        m.fill(a, 16, 0xFF).unwrap();
        let bytes = m.peek_slice(a, 16).unwrap();
        assert!(bytes[..8].iter().all(|&b| b == 0xFF));
        assert!(bytes[8..].iter().all(|&b| b == 0));
        assert_eq!(m.stats().torn_writes, 1);
    }

    #[test]
    fn span_cycles_sum_to_total_cycles() {
        let mut m = mem();
        let f = m.layout().fram.start;
        let s = m.layout().sram.start;
        m.write_word(f, 1).unwrap();
        let prev = m.set_span(SpanKind::Checkpoint);
        assert_eq!(prev, SpanKind::App);
        m.copy(f, f.offset(64), 32).unwrap();
        m.add_cycles(264);
        m.set_span(SpanKind::UndoLog);
        m.write_i32(s, 2).unwrap();
        m.set_span(SpanKind::App);
        m.read_word(f).unwrap();
        let spans = m.span_cycles_all();
        assert_eq!(spans.iter().sum::<u64>(), m.cycles());
        assert!(m.span_cycles(SpanKind::Checkpoint) >= 264);
        assert!(m.span_cycles(SpanKind::UndoLog) > 0);
        assert!(m.span_cycles(SpanKind::App) > 0);
        assert_eq!(m.span_cycles(SpanKind::Rollback), 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit_inside_the_window() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_corruption(Some(CorruptionModel::new(1_000, 1.0, 0.0, 7)));
        m.set_power_cut(Some(m.cycles() + 500)); // inside the window
        let payload = [0u8; 32];
        m.poke_bytes(a, &payload).unwrap();
        let got = m.peek_slice(a, 32).unwrap();
        let flipped: u32 = got
            .iter()
            .zip(payload.iter())
            .map(|(g, p)| (g ^ p).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit should flip: {got:?}");
        assert_eq!(m.stats().corrupted_writes, 1);
    }

    #[test]
    fn corruption_drops_the_whole_store() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.poke_bytes(a, &[9; 12]).unwrap();
        m.set_corruption(Some(CorruptionModel::new(1_000, 0.0, 1.0, 7)));
        m.set_power_cut(Some(m.cycles() + 10));
        m.poke_bytes(a, &[1; 12]).unwrap();
        assert_eq!(m.peek_slice(a, 12).unwrap(), [9; 12]);
        assert_eq!(m.stats().corrupted_writes, 1);
    }

    #[test]
    fn word_sized_stores_are_immune_to_corruption() {
        // The FRAM controller's write buffer commits up to two words
        // atomically — control-word pokes (flags, counters, undo slots)
        // can never be flipped or dropped, only burst stores can.
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_corruption(Some(CorruptionModel::new(u64::MAX, 0.5, 0.5, 7)));
        m.set_power_cut(Some(m.cycles() + 10));
        for i in 0..50u32 {
            m.poke_bytes(a, &i.to_le_bytes()).unwrap();
            assert_eq!(m.peek_word(a).unwrap(), i);
            m.poke_bytes(a, &u64::from(i).to_le_bytes()).unwrap();
            assert_eq!(m.peek_u64(a).unwrap(), u64::from(i));
        }
        assert_eq!(m.stats().corrupted_writes, 0);
    }

    #[test]
    fn corruption_is_inert_outside_the_window_or_without_a_cut() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_corruption(Some(CorruptionModel::new(100, 1.0, 0.0, 7)));
        // No cut armed: clean.
        m.poke_bytes(a, &[7; 16]).unwrap();
        assert_eq!(m.peek_slice(a, 16).unwrap(), [7; 16]);
        // Cut armed far beyond the window: still clean.
        m.set_power_cut(Some(m.cycles() + 1_000_000));
        m.poke_bytes(a, &[8; 16]).unwrap();
        assert_eq!(m.peek_slice(a, 16).unwrap(), [8; 16]);
        assert_eq!(m.stats().corrupted_writes, 0);
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut m = mem();
            let a = m.layout().fram.start;
            m.set_corruption(Some(CorruptionModel::new(10_000, 0.5, 0.25, seed)));
            m.set_power_cut(Some(m.cycles() + 100));
            for i in 0..16u8 {
                m.poke_bytes(a.offset(16 * u32::from(i)), &[i; 16]).unwrap();
            }
            (
                m.peek_slice(a, 256).unwrap().to_vec(),
                m.stats().corrupted_writes,
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
    }

    #[test]
    fn cycle_accounted_writes_are_also_at_risk() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_corruption(Some(CorruptionModel::new(u64::MAX, 0.0, 1.0, 3)));
        m.set_power_cut(Some(m.cycles() + 1_000_000));
        m.write_bytes(a, &[0x77; 12]).unwrap();
        assert_eq!(
            m.peek_slice(a, 12).unwrap(),
            vec![0; 12],
            "dropped store leaves zeroes"
        );
        assert_eq!(m.stats().corrupted_writes, 1);
    }

    #[test]
    fn sram_decay_retains_some_bytes_across_an_outage() {
        let mut m = mem();
        let a = m.layout().sram.start;
        let len = m.layout().sram.len();
        m.fill(a, len, 0x3C).unwrap();
        m.set_corruption(Some(
            CorruptionModel::new(0, 0.0, 0.0, 11).with_sram_decay(0.5),
        ));
        m.power_fail();
        let bytes = m.peek_slice(a, len).unwrap();
        let decayed = bytes.iter().filter(|&&b| b == SRAM_CLOBBER).count();
        let retained = bytes.iter().filter(|&&b| b == 0x3C).count();
        assert_eq!(decayed + retained, len as usize);
        assert!(decayed > 0, "some bytes must decay");
        assert!(retained > 0, "some bytes must survive");
        assert_eq!(m.stats().power_failures, 1);

        // decay = 0.0 retains everything; the default model clobbers all.
        let mut m2 = mem();
        m2.fill(a, len, 0x3C).unwrap();
        m2.set_corruption(Some(
            CorruptionModel::new(0, 0.0, 0.0, 11).with_sram_decay(0.0),
        ));
        m2.power_fail();
        assert!(m2.peek_slice(a, len).unwrap().iter().all(|&b| b == 0x3C));
    }

    #[test]
    fn fill_sets_every_byte() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.fill(a, 16, 0x7E).unwrap();
        assert!(m.peek_slice(a, 16).unwrap().iter().all(|&b| b == 0x7E));
    }

    /// Where a test opens its [`WordBurst`]'s frame: 256 bytes in.
    const FRAME_AT: u32 = 256;
    const FRAME_LEN: u32 = 128;

    /// Opens a burst whose frame lies `FRAME_AT` bytes into SRAM or
    /// FRAM.
    fn burst_at(m: &mut Memory, in_sram: bool) -> WordBurst<'_> {
        let l = *m.layout();
        let region = if in_sram { l.sram } else { l.fram };
        m.word_burst(region.start.offset(FRAME_AT), FRAME_LEN)
            .expect("the frame lies in one region")
    }

    /// Asserts that two memories hold identical contents, cycles, stats,
    /// span attribution and dirty bitmaps.
    fn assert_same_memory(want: &Memory, got: &Memory, name: &str) {
        let l = *want.layout();
        assert_eq!(want.cycles(), got.cycles(), "{name} cycles");
        assert_eq!(want.stats(), got.stats(), "{name} stats");
        assert_eq!(
            want.span_cycles_all(),
            got.span_cycles_all(),
            "{name} span cycles"
        );
        for r in [l.sram, l.fram] {
            assert_eq!(
                want.peek_slice(r.start, r.len()).unwrap(),
                got.peek_slice(r.start, r.len()).unwrap(),
                "{name} contents"
            );
        }
        assert_eq!(
            all_dirty_words(want),
            all_dirty_words(got),
            "dirty-word bitmaps diverged between the generic and {name} paths"
        );
    }

    /// Drives the byte-range form (`write_i32`/`read_i32`), the
    /// [`Memory`] word form and one [`WordBurst`] per frame placement
    /// (many ops, a single commit) through the same operation sequence
    /// and asserts identical contents, cycles, stats, span attribution,
    /// dirty bitmaps, and errors. The sequence mixes aligned and
    /// unaligned words in both regions with addresses a wild pointer
    /// produces: unmapped, straddling either end of either region, and
    /// wrapping past the top of the address space.
    fn assert_word_paths_agree(configure: impl Fn(&mut Memory)) {
        for in_sram in [true, false] {
            let mut slow = mem();
            let mut fast = mem();
            let mut burst = mem();
            configure(&mut slow);
            configure(&mut fast);
            configure(&mut burst);
            let l = *slow.layout();
            let wild = [
                Addr(4),
                Addr(l.sram.start.0 - 2),
                Addr(l.sram.end.0 - 2),
                Addr(l.sram.end.0 - 4),
                Addr(l.fram.start.0 - 1),
                Addr(l.fram.end.0 - 3),
                Addr(l.fram.end.0 - 4),
                Addr(u32::MAX - 1),
            ];
            let ops: Vec<(Addr, u32)> = (0..128u32)
                .map(|i| {
                    // Every fourth op is unaligned; every eighth is wild.
                    let skew = if i % 4 == 1 { 1 + i % 3 } else { 0 };
                    let a = if i % 8 == 7 {
                        wild[(i / 8) as usize % wild.len()]
                    } else if i % 3 == 0 {
                        l.sram.start.offset(4 * (i % 16) + skew)
                    } else {
                        l.fram.start.offset(4 * (i % 64) + skew)
                    };
                    (a, 0xDEAD_0000 ^ i)
                })
                .collect();
            let instr_base = slow.costs().instr_base;
            let mut bm = burst_at(&mut burst, in_sram);
            let (mut stored, mut faulted) = (0, 0);
            for &(a, v) in &ops {
                slow.add_cycles(instr_base);
                fast.add_cycles(instr_base);
                bm.charge_instr();
                let want = slow.write_i32(a, v as i32);
                assert_eq!(want, fast.write_word(a, v), "word write at {a}");
                assert_eq!(want, bm.write_word::<true>(a, v), "burst write at {a}");
                let read = slow.read_i32(a).map(|v| v as u32);
                assert_eq!(read, fast.read_word(a), "word read at {a}");
                assert_eq!(read, bm.read_word(a), "burst read at {a}");
                if want.is_ok() {
                    stored += 1;
                } else {
                    faulted += 1;
                }
            }
            assert!(stored > 0 && faulted > 0, "the stream must store and fault");
            bm.commit();
            let name = if in_sram { "SRAM" } else { "FRAM" };
            assert_same_memory(&slow, &fast, "word");
            assert_same_memory(&slow, &burst, &format!("burst ({name} frame)"));
        }
    }

    /// Frame-relative offsets a zone's accessors see: inside the frame,
    /// just outside it on both sides, at the far ends of the frame's
    /// region, and wild ones that a corrupted `sp` could produce (in the
    /// other region, unmapped, straddling a region end, wrapping below
    /// address 0).
    fn frame_offsets(m: &Memory, fp: Addr) -> Vec<u32> {
        let l = *m.layout();
        let rel = |a: u32| a.wrapping_sub(fp.0);
        let mut offs: Vec<u32> = (0..FRAME_LEN / 4).map(|w| 4 * w).collect();
        offs.extend([FRAME_LEN, FRAME_LEN + 2, 1, 6, (-4i32) as u32]);
        for r in [l.sram, l.fram] {
            offs.extend([
                rel(r.start.0),
                rel(r.end.0 - 4),
                rel(r.end.0 - 2),
                rel(r.start.0.wrapping_sub(2)),
            ]);
        }
        offs.extend([rel(4), rel(0xFFFF_FFFE), rel(l.fram.end.0 + 64)]);
        offs
    }

    /// The frame accessors against the generic path at `fp + off`, for
    /// frames in SRAM and FRAM, every store with and without the
    /// torn-store test; `CUT = false` only while the cut is out of reach.
    fn assert_frame_accessors_agree(cut: Option<u64>) {
        for in_sram in [true, false] {
            let mut slow = mem();
            let mut burst = mem();
            slow.set_power_cut(cut);
            burst.set_power_cut(cut);
            let l = *slow.layout();
            let fp = if in_sram { l.sram } else { l.fram }.start.offset(FRAME_AT);
            let offs = frame_offsets(&slow, fp);
            let instr_base = slow.costs().instr_base;
            let mut bm = burst_at(&mut burst, in_sram);
            for (i, &off) in offs.iter().enumerate() {
                let a = Addr(fp.0.wrapping_add(off));
                let v = 0x5EED_0000 ^ i as u32;
                slow.add_cycles(instr_base);
                bm.charge_instr();
                let stored = slow.write_i32(a, v as i32).is_ok();
                let got = if bm.cut_in_reach(bm.cycles(), 1) {
                    bm.write_frame::<true>(off, v)
                } else {
                    bm.write_frame::<false>(off, v)
                };
                assert_eq!(stored, got.is_ok(), "write at {a}");
                assert_eq!(
                    slow.peek_word(a).ok(),
                    bm.peek_frame(off).ok(),
                    "peek at {a}"
                );
                assert_eq!(
                    slow.read_i32(a).ok().map(|v| v as u32),
                    bm.read_frame(off).ok(),
                    "read at {a}"
                );
            }
            bm.commit();
            let name = if in_sram { "SRAM" } else { "FRAM" };
            assert_same_memory(&slow, &burst, &format!("frame accessors ({name} frame)"));
        }
    }

    #[test]
    fn frame_accessors_match_the_generic_path() {
        assert_frame_accessors_agree(None);
    }

    #[test]
    fn frame_accessors_tear_as_the_generic_path_does() {
        // The cut lands mid-sequence: early stores commit untested,
        // later ones tear.
        for cut in [0, 150, 700, 1_500] {
            assert_frame_accessors_agree(Some(cut));
        }
    }

    #[test]
    fn word_burst_needs_the_frame_in_one_region() {
        let mut m = mem();
        let l = *m.layout();
        for r in [l.sram, l.fram] {
            let last = r.end.0 - FRAME_LEN;
            assert!(m.word_burst(Addr(last), FRAME_LEN).is_some());
            assert!(m.word_burst(Addr(last + 4), FRAME_LEN).is_none());
            assert!(m.word_burst(Addr(r.start.0 - 4), FRAME_LEN).is_none());
        }
        assert!(m.word_burst(Addr(4), FRAME_LEN).is_none());
        assert!(m.word_burst(Addr(u32::MAX - 8), FRAME_LEN).is_none());
    }

    #[test]
    fn cut_in_reach_bounds_the_zones_last_op() {
        let mut m = mem();
        let c = m.costs().clone();
        let dearest = c
            .sram_access_per_word
            .max(c.fram_read_per_word)
            .max(c.fram_write_per_word);
        m.add_cycles(1_000);
        let bound = |stop: u64| stop.max(1_000) + c.instr_base + 5 * dearest;
        for stop in [0, 999, 1_000, 4_000] {
            for cut in [bound(stop) - 1, bound(stop), bound(stop) + 1] {
                m.set_power_cut(Some(cut));
                let bm = m.word_burst(m.layout().sram.start, 64).unwrap();
                assert_eq!(
                    bm.cut_in_reach(stop, 5),
                    cut < bound(stop),
                    "stop {stop}, cut {cut}"
                );
            }
        }
        m.set_power_cut(None);
        let bm = m.word_burst(m.layout().sram.start, 64).unwrap();
        assert!(!bm.cut_in_reach(u64::MAX / 4, 5));
    }

    /// Every dirty word base address across both regions, ascending.
    fn all_dirty_words(m: &Memory) -> Vec<Addr> {
        let l = *m.layout();
        let mut v = Vec::new();
        m.for_each_dirty_word(l.sram.start, l.sram.len(), |a| v.push(a));
        m.for_each_dirty_word(l.fram.start, l.fram.len(), |a| v.push(a));
        v
    }

    #[test]
    fn word_fast_path_matches_generic_path() {
        assert_word_paths_agree(|_| {});
    }

    #[test]
    fn word_fast_path_matches_with_zero_cost_model() {
        // `uniform()` zeroes the per-word costs: the `per_word == 0` edge
        // of `committed_prefix` must commit in both paths.
        assert_word_paths_agree(|m| {
            *m = Memory::with_costs(MemoryLayout::default(), CostModel::uniform());
            m.set_power_cut(Some(10));
        });
    }

    #[test]
    fn word_fast_path_matches_under_power_cut() {
        // Arm a cut so some stores commit, some tear; the torn counters
        // and memory contents must match exactly.
        assert_word_paths_agree(|m| m.set_power_cut(Some(500)));
        assert_word_paths_agree(|m| m.set_power_cut(Some(0)));
    }

    #[test]
    fn word_fast_path_matches_with_corruption_armed() {
        // Word stores are at or below ATOMIC_STORE_BYTES, so neither path
        // may consult (or advance) the corruption RNG.
        assert_word_paths_agree(|m| {
            m.set_corruption(Some(CorruptionModel::new(10_000, 0.5, 0.5, 42)));
            m.set_power_cut(Some(800));
        });
    }

    #[test]
    fn word_fast_path_respects_span_attribution() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_span(SpanKind::Checkpoint);
        m.write_word(a, 7).unwrap();
        m.read_word(a).unwrap();
        assert_eq!(m.span_cycles(SpanKind::Checkpoint), m.cycles());
        assert!(m.cycles() > 0);
    }

    #[test]
    fn dirty_monitor_marks_stores_and_clears_on_ack() {
        let mut m = mem();
        let a = m.layout().fram.start.offset(16);
        assert_eq!(m.count_dirty_words(a, 16), 0);
        m.write_i32(a, 7).unwrap();
        assert!(m.is_word_dirty(a));
        assert_eq!(m.count_dirty_words(a, 16), 1);
        m.poke_bytes(a.offset(8), &[1u8; 8]).unwrap();
        assert_eq!(m.count_dirty_words(a, 16), 3);
        let mut seen = Vec::new();
        m.for_each_dirty_word(a, 16, |w| seen.push(w));
        assert_eq!(seen, vec![a, a.offset(8), a.offset(12)]);
        m.clear_dirty(a, 16);
        assert_eq!(m.count_dirty_words(a, 16), 0);
        // Reads never mark.
        m.read_i32(a).unwrap();
        m.peek_word(a).unwrap();
        assert_eq!(m.count_dirty_words(a, 16), 0);
    }

    #[test]
    fn torn_store_marks_only_the_committed_prefix() {
        let mut m = mem();
        let a = m.layout().fram.start;
        let per_word = m.costs().fram_write_per_word;
        m.set_power_cut(Some(m.cycles() + per_word));
        write_u64(&mut m, a, 0xAAAA_BBBB_CCCC_DDDD);
        assert!(m.is_word_dirty(a), "committed low word must be dirty");
        assert!(
            !m.is_word_dirty(a.offset(4)),
            "torn-away high word must stay clean"
        );
    }

    #[test]
    fn dropped_store_marks_nothing() {
        let mut m = mem();
        let a = m.layout().fram.start;
        m.set_corruption(Some(CorruptionModel::new(1_000, 0.0, 1.0, 7)));
        m.set_power_cut(Some(m.cycles() + 10));
        m.poke_bytes(a, &[1; 12]).unwrap();
        assert_eq!(m.stats().corrupted_writes, 1);
        assert_eq!(m.count_dirty_words(a, 12), 0);
    }

    /// The dirty-word property: after any seeded sequence of stores
    /// (generic, word-path, burst, poke, fill — with torn cuts armed
    /// and disarmed along the way), the bitmap must cover every word
    /// whose post-state differs from the last acknowledged snapshot,
    /// and every marked word must have been the target of some store.
    fn dirty_bitmap_property(seed: u64) {
        use std::collections::HashSet;
        let mut m = mem();
        let l = *m.layout();
        let snapshot = |m: &Memory| {
            (
                m.peek_slice(l.sram.start, l.sram.len()).unwrap().to_vec(),
                m.peek_slice(l.fram.start, l.fram.len()).unwrap().to_vec(),
            )
        };
        let mut rng = seed;
        let mut targeted: HashSet<u32> = HashSet::new();
        // Track every word a store *could* have touched (commit or not).
        let note = |targeted: &mut HashSet<u32>, addr: Addr, len: u32| {
            let (start, end) = if addr.0 >= l.fram.start.0 {
                (l.fram.start.0, l.fram.end.0)
            } else {
                (l.sram.start.0, l.sram.end.0)
            };
            let _ = end;
            let first = (addr.0 - start) / 4;
            let last = (addr.0 + len - 1 - start) / 4;
            for w in first..=last {
                targeted.insert(start + 4 * w);
            }
        };
        let (mut sram0, mut fram0) = snapshot(&m);
        for step in 0..400u32 {
            let r = next_draw(&mut rng);
            let in_fram = r & 1 == 0;
            let (base, limit) = if in_fram {
                (l.fram.start, l.fram.len())
            } else {
                (l.sram.start, l.sram.len())
            };
            // Half the stores start unaligned, and one in eight bulk
            // stores spans 1 KiB (several bitmap limbs).
            let align = if r & 2 == 0 { !3 } else { !0 };
            let addr = base.offset(((r >> 8) as u32 % (limit - 1100)) & align);
            let bulk = |short: u32| {
                if (r >> 50) & 7 == 0 {
                    1024
                } else {
                    4 + (r >> 20) as u32 % short
                }
            };
            match (r >> 40) % 6 {
                0 => {
                    m.write_i32(addr, r as i32).unwrap();
                    note(&mut targeted, addr, 4);
                }
                1 => {
                    m.write_word(addr, (r >> 16) as u32).unwrap();
                    note(&mut targeted, addr, 4);
                }
                2 => {
                    let len = bulk(48);
                    let buf: Vec<u8> = (0..len).map(|i| (r as u8).wrapping_add(i as u8)).collect();
                    m.write_bytes(addr, &buf).unwrap();
                    note(&mut targeted, addr, len);
                }
                3 => {
                    let len = bulk(32);
                    m.fill(addr, len, r as u8).unwrap();
                    note(&mut targeted, addr, len);
                }
                4 => {
                    let len = bulk(8);
                    let buf: Vec<u8> = (0..len).map(|i| (r >> 3) as u8 ^ i as u8).collect();
                    m.poke_bytes(addr, &buf).unwrap();
                    note(&mut targeted, addr, len);
                }
                _ => {
                    let mut bm = m.word_burst(addr, 16).unwrap();
                    for i in 0..4 {
                        bm.write_frame::<true>(4 * i, (r >> i) as u32).unwrap();
                    }
                    bm.commit();
                    for i in 0..4 {
                        note(&mut targeted, addr.offset(4 * i), 4);
                    }
                }
            }
            // Periodically arm a tight cut (some stores tear), disarm
            // it again, and occasionally acknowledge a "checkpoint".
            if step % 23 == 7 {
                m.set_power_cut(Some(m.cycles() + (r >> 32) % 200));
            }
            if step % 23 == 15 {
                m.set_power_cut(None);
            }
            if step % 97 == 96 {
                m.set_power_cut(None);
                m.clear_dirty(l.sram.start, l.sram.len());
                m.clear_dirty(l.fram.start, l.fram.len());
                targeted.clear();
                let (s, f) = snapshot(&m);
                sram0 = s;
                fram0 = f;
            }
        }
        m.set_power_cut(None);
        let (sram1, fram1) = snapshot(&m);
        let check = |old: &[u8], new: &[u8], start: u32| {
            for w in 0..(old.len() / 4) as u32 {
                let addr = Addr(start + 4 * w);
                let o = &old[(4 * w) as usize..(4 * w + 4) as usize];
                let n = &new[(4 * w) as usize..(4 * w + 4) as usize];
                if o != n {
                    assert!(
                        m.is_word_dirty(addr),
                        "word {addr} changed since last ack but is not marked dirty (seed {seed})"
                    );
                }
                if m.is_word_dirty(addr) {
                    assert!(
                        targeted.contains(&addr.0),
                        "word {addr} is marked dirty but no store targeted it (seed {seed})"
                    );
                }
            }
        };
        check(&sram0, &sram1, l.sram.start.0);
        check(&fram0, &fram1, l.fram.start.0);
    }

    /// Every word index a store of `len` bytes at region offset `off`
    /// touches, marked one bit at a time.
    fn reference_marks(bits: &mut [u64], off: u32, len: u32) {
        if len == 0 {
            return;
        }
        for w in (off / 4)..=((off + len - 1) / 4) {
            bits[(w / 64) as usize] |= 1 << (w % 64);
        }
    }

    #[test]
    fn limb_masks_match_per_word_marking_exhaustively() {
        // Every start alignment within and across limbs, empty,
        // single-limb and 3+-limb spans, and spans ending on limb edges,
        // over both a clean bitmap and one with bits already set.
        for background in [0, 0x0123_4567_89AB_CDEF] {
            for off in 0..=300u32 {
                for len in 0..=700u32 {
                    let mut got = [background; 8];
                    let mut want = [background; 8];
                    mark_dirty_bits(&mut got, off, len);
                    reference_marks(&mut want, off, len);
                    assert_eq!(got, want, "off {off}, len {len}");
                }
            }
        }
    }

    #[test]
    fn word_marks_match_per_word_marking() {
        for off in 0..=600usize {
            let mut got = [0u64; 8];
            let mut want = [0u64; 8];
            mark_word_dirty(&mut got, off);
            reference_marks(&mut want, off as u32, 4);
            assert_eq!(got, want, "off {off}");
        }
    }

    #[test]
    fn dirty_bitmap_exactly_covers_changed_words() {
        for seed in [1, 42, 0xDEAD_BEEF, 7_777_777] {
            dirty_bitmap_property(seed);
        }
    }

    #[test]
    fn peek_word_is_free_and_matches_peek_slice() {
        let mut m = mem();
        let a = m.layout().fram.start.offset(8);
        m.write_word(a, 0x1234_5678).unwrap();
        let before = m.cycles();
        assert_eq!(m.peek_word(a).unwrap(), 0x1234_5678);
        assert_eq!(m.peek_slice(a, 4).unwrap(), 0x1234_5678u32.to_le_bytes());
        assert_eq!(m.cycles(), before);
        assert!(m.peek_word(Addr(0)).is_err());
    }
}
