//! TICS runtime configuration.

use tics_minic::Program;

/// Configuration of the TICS runtime buffers and policies.
///
/// The paper's evaluation sweeps the working-stack (segment) size — its
/// `S1` = 50 B and `S2` = 256 B configurations — and optionally enables a
/// 10 ms checkpoint timer (`S1*`, `S2*`). Segment size trades checkpoint
/// frequency against per-checkpoint cost (§5.3.2); it can never be
/// smaller than the program's largest frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TicsConfig {
    /// Stack segment size in bytes. Must be ≥ the program's largest
    /// frame; validated when execution starts.
    pub seg_size: u32,
    /// Number of segments in the segment array (recursion depth bound ×
    /// frame granularity). The paper used a 2048 B array.
    pub n_segments: u32,
    /// Undo-log capacity in entries (8 bytes each). The paper used a
    /// 2048 B log.
    pub undo_capacity: u32,
    /// Timer-driven checkpoint period in µs (the paper's `*`
    /// configurations use 10 ms). `None` disables the timer.
    pub timer_period_us: Option<u64>,
    /// Virtualize the I/O interface across power failures (the paper's
    /// §7 future work): `send` transmissions are buffered in FRAM and
    /// released only when the enclosing state commits, so a rollback can
    /// never leave a transmission the program later un-executes.
    pub virtualize_io: bool,
}

impl TicsConfig {
    /// The paper's `S2` configuration scaled to this VM's frame sizes:
    /// 256-byte segments, 2 KB segment array, 2 KB undo log, no timer.
    #[must_use]
    pub fn s2() -> TicsConfig {
        TicsConfig {
            seg_size: 256,
            n_segments: 8,
            undo_capacity: 256,
            timer_period_us: None,
            virtualize_io: false,
        }
    }

    /// `S2*`: `S2` plus a 10 ms checkpoint timer.
    #[must_use]
    pub fn s2_star() -> TicsConfig {
        TicsConfig {
            timer_period_us: Some(10_000),
            ..TicsConfig::s2()
        }
    }

    /// Builder-style segment size override.
    #[must_use]
    pub fn with_seg_size(mut self, seg_size: u32) -> TicsConfig {
        self.seg_size = seg_size;
        self
    }

    /// Builder-style segment count override.
    #[must_use]
    pub fn with_segments(mut self, n: u32) -> TicsConfig {
        self.n_segments = n;
        self
    }

    /// Builder-style timer override.
    #[must_use]
    pub fn with_timer(mut self, period_us: Option<u64>) -> TicsConfig {
        self.timer_period_us = period_us;
        self
    }

    /// Builder-style I/O virtualization enable.
    #[must_use]
    pub fn with_virtualized_io(mut self) -> TicsConfig {
        self.virtualize_io = true;
        self
    }

    /// The paper's `S1` segment size for `program`: its largest frame,
    /// rounded up to 64 B — the smallest segment the program runs in,
    /// since the maximum stack frame dictates the minimum block size
    /// (§3.1.1).
    #[must_use]
    pub fn s1_seg_size(program: &Program) -> u32 {
        program.max_frame_size().next_multiple_of(64)
    }

    /// This configuration with its segment size raised to
    /// [`TicsConfig::s1_seg_size`] where it is smaller.
    #[must_use]
    pub fn fitted_to(mut self, program: &Program) -> TicsConfig {
        self.seg_size = self.seg_size.max(TicsConfig::s1_seg_size(program));
        self
    }

    /// Total bytes of the segment array.
    #[must_use]
    pub fn segment_array_bytes(&self) -> u32 {
        self.seg_size * self.n_segments
    }

    /// Total bytes of the undo log (8-byte entries plus the count word).
    #[must_use]
    pub fn undo_log_bytes(&self) -> u32 {
        8 * self.undo_capacity
    }
}

impl Default for TicsConfig {
    fn default() -> Self {
        TicsConfig::s2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s2_matches_paper_buffer_sizes() {
        let c = TicsConfig::s2();
        assert_eq!(c.segment_array_bytes(), 2048);
        assert_eq!(c.undo_log_bytes(), 2048);
        assert_eq!(c.timer_period_us, None);
    }

    #[test]
    fn star_config_enables_10ms_timer() {
        assert_eq!(TicsConfig::s2_star().timer_period_us, Some(10_000));
    }

    #[test]
    fn builders_override_fields() {
        let c = TicsConfig::default()
            .with_seg_size(128)
            .with_segments(16)
            .with_timer(Some(5_000));
        assert_eq!(c.seg_size, 128);
        assert_eq!(c.n_segments, 16);
        assert_eq!(c.timer_period_us, Some(5_000));
    }
}
