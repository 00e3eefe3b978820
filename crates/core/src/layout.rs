//! FRAM layout of the TICS runtime's persistent structures.

use tics_mcu::{Addr, Region};
use tics_minic::program::Program;
use tics_vm::persist::BankPair;

use crate::config::TicsConfig;

/// Magic value marking an initialized control block.
pub const MAGIC: u32 = 0x7113_C501;

/// Offsets within the control block.
pub mod ctrl {
    /// `u32` magic (first-boot detection).
    pub const MAGIC: u32 = 0;
    /// `u32` valid-checkpoint flag: 0 = none, 1 = buffer A, 2 = buffer B.
    pub const CKPT_FLAG: u32 = 4;
    /// `u32` undo-log entry count.
    pub const UNDO_COUNT: u32 = 8;
    /// `u32` count of buffered (uncommitted) virtualized sends.
    pub const IO_COUNT: u32 = 12;
    /// `u64` sequence number of the full bank the delta chain extends.
    pub const DELTA_BASE: u32 = 16;
    /// `u64` highest committed delta sequence (0 = no chain). Both
    /// delta words are 8-byte pokes — within the atomic-store size, so
    /// their updates are single corruption-immune stores.
    pub const DELTA_TIP: u32 = 24;
    /// Control block size.
    pub const SIZE: u32 = 32;
}

/// Resolved addresses of every persistent runtime structure.
///
/// Laid out immediately after the program's data segment:
/// control block, checkpoint buffers A and B, delta journal,
/// per-annotated-variable timestamps, undo log, virtualized-I/O buffer,
/// segment array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeLayout {
    /// Control block base.
    pub control: Addr,
    /// Checkpoint banks A and B: sealed records whose payload is the misc
    /// block (registers, atomic depth, working segment) and the segment
    /// image. The delta journal follows them ([`BankPair::journal`]).
    pub banks: BankPair,
    /// Timestamp table base (`u64` per annotated variable).
    pub timestamps: Addr,
    /// Undo log base (8-byte entries: address, old value).
    pub undo: Addr,
    /// Virtualized-I/O buffer base (4-byte buffered send values).
    pub io_buffer: Addr,
    /// Segment array base.
    pub segments: Addr,
    /// First address past the runtime area.
    pub end: Addr,
    /// Segment size copied from the config.
    pub seg_size: u32,
    /// Segment count copied from the config.
    pub n_segments: u32,
    /// Undo capacity copied from the config.
    pub undo_capacity: u32,
    /// Virtualized-I/O buffer capacity (entries) from the config.
    pub io_capacity: u32,
}

impl RuntimeLayout {
    /// Computes the layout for `config` with the runtime area starting at
    /// `base` (normally `Machine::runtime_area_base()`).
    #[must_use]
    pub fn compute(base: Addr, config: &TicsConfig, program: &Program) -> RuntimeLayout {
        let control = base;
        let banks = BankPair::new(
            control.offset(ctrl::SIZE),
            control.offset(ctrl::CKPT_FLAG),
            control.offset(ctrl::DELTA_BASE),
            config.seg_size,
        );
        let (journal, journal_capacity) = banks.journal();
        let timestamps = journal.offset(journal_capacity);
        let undo = timestamps.offset(8 * program.annotated.len() as u32);
        let io_capacity = if config.virtualize_io { 32 } else { 0 };
        let io_buffer = undo.offset(config.undo_log_bytes());
        let segments = io_buffer.offset(4 * io_capacity);
        let end = segments.offset(config.segment_array_bytes());
        RuntimeLayout {
            control,
            banks,
            timestamps,
            undo,
            io_buffer,
            segments,
            end,
            seg_size: config.seg_size,
            n_segments: config.n_segments,
            undo_capacity: config.undo_capacity,
            io_capacity,
        }
    }

    /// The address range of segment `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn segment(&self, idx: u32) -> Region {
        assert!(idx < self.n_segments, "segment {idx} out of range");
        Region::with_len(self.segments.offset(idx * self.seg_size), self.seg_size)
    }

    /// Which segment contains `addr`, if any.
    #[must_use]
    pub fn segment_of(&self, addr: Addr) -> Option<u32> {
        if addr < self.segments || addr >= self.segments.offset(self.segment_array_bytes()) {
            return None;
        }
        Some((addr.raw() - self.segments.raw()) / self.seg_size)
    }

    /// Timestamp slot of annotated variable `var`.
    #[must_use]
    pub fn timestamp_slot(&self, var: u16) -> Addr {
        self.timestamps.offset(8 * u32::from(var))
    }

    /// Buffered-send slot `idx` (a 4-byte value).
    #[must_use]
    pub fn io_slot(&self, idx: u32) -> Addr {
        self.io_buffer.offset(4 * idx)
    }

    /// Total bytes of the segment array.
    #[must_use]
    pub fn segment_array_bytes(&self) -> u32 {
        self.seg_size * self.n_segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_minic::program::{AnnotatedVar, Program};

    fn layout() -> RuntimeLayout {
        let mut p = Program::default();
        p.annotated.push(AnnotatedVar {
            global_index: 0,
            ttl_us: 1,
        });
        RuntimeLayout::compute(Addr(0x5000), &TicsConfig::s2(), &p)
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = layout();
        let (journal, journal_capacity) = l.banks.journal();
        assert!(l.control < l.banks.a);
        assert!(l.banks.a < l.banks.b);
        assert!(l.banks.b < journal);
        assert!(journal < l.timestamps);
        assert!(l.timestamps < l.undo);
        assert!(l.undo < l.segments);
        assert!(l.segments < l.end);
        // Checkpoint buffers hold header, misc block and a full segment.
        assert_eq!(l.banks.b.raw() - l.banks.a.raw(), 16 + 24 + 256);
        // The journal sits between the banks and the timestamp table.
        assert_eq!(journal.raw() - l.banks.b.raw(), 16 + 24 + 256);
        assert_eq!(l.timestamps.raw() - journal.raw(), journal_capacity);
        assert_eq!(journal_capacity, 1_024);
    }

    #[test]
    fn segment_of_maps_addresses() {
        let l = layout();
        assert_eq!(l.segment_of(l.segments), Some(0));
        assert_eq!(l.segment_of(l.segments.offset(255)), Some(0));
        assert_eq!(l.segment_of(l.segments.offset(256)), Some(1));
        assert_eq!(l.segment_of(l.end), None);
        assert_eq!(l.segment_of(Addr(0)), None);
        let last = l.segments.offset(l.segment_array_bytes() - 1);
        assert_eq!(l.segment_of(last), Some(7));
    }

    #[test]
    fn segment_regions_tile_the_array() {
        let l = layout();
        assert_eq!(l.segment(0).start, l.segments);
        assert_eq!(l.segment(7).end, l.end);
        assert_eq!(l.segment(3).len(), 256);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_index_is_checked() {
        let _ = layout().segment(8);
    }

    #[test]
    fn slots_are_addressable() {
        let l = layout();
        assert_eq!(l.timestamp_slot(0), l.timestamps);
        assert_eq!(l.banks.bank(1), l.banks.a);
        assert_eq!(l.banks.bank(2), l.banks.b);
    }
}
