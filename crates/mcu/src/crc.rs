//! CRC-32 (IEEE 802.3) integrity stamps for checkpoint banks.
//!
//! Every hardened runtime stamps the bank it commits with a CRC-32 over
//! the bank payload and validates the stamp before restoring at reboot.
//! The polynomial is the reflected IEEE one (`0xEDB8_8320`). The
//! simulator computes it slicing-by-8: eight 256-entry lookup tables,
//! built at compile time, fold eight input bytes per step, and a tail
//! shorter than eight bytes finishes one byte at a time. Checkpoint
//! banks for the large-footprint programs run to tens of kilobytes and
//! are re-validated on every commit, so the CRC is on the host-side hot
//! path of every checkpointing runtime. (The tables are a host-speed
//! concern only — the stamp value is identical to the bitwise form an
//! MSP430 runtime would compute.)

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables for [`POLY`], built at compile time.
/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32/ISO-HDLC (the zlib/PNG/Ethernet CRC) of `data`.
///
/// Init `0xFFFF_FFFF`, reflected polynomial `0xEDB8_8320`, final XOR
/// `0xFFFF_FFFF`. Check value: `crc32(b"123456789") == 0xCBF4_3926`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Streaming CRC-32 over multiple chunks, equivalent to [`crc32`] of
/// their concatenation. Lets callers stamp a header-plus-payload bank
/// without first copying the parts into one buffer.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh digest.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ u64::from(crc);
            let byte = |i: u32| ((v >> (8 * i)) & 0xFF) as usize;
            crc = TABLES[7][byte(0)]
                ^ TABLES[6][byte(1)]
                ^ TABLES[5][byte(2)]
                ^ TABLES[4][byte(3)]
                ^ TABLES[3][byte(4)]
                ^ TABLES[2][byte(5)]
                ^ TABLES[1][byte(6)]
                ^ TABLES[0][byte(7)];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the CRC of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_yields_zero() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn single_bit_flip_changes_the_crc() {
        let a = [0u8; 64];
        let mut b = a;
        b[37] ^= 0x10;
        assert_ne!(crc32(&a), crc32(&b));
    }

    #[test]
    fn is_position_sensitive() {
        assert_ne!(crc32(&[1, 2, 3, 4]), crc32(&[4, 3, 2, 1]));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Crc32::new();
        h.update(&data[..13]);
        h.update(&data[13..700]);
        h.update(&data[700..]);
        assert_eq!(h.finish(), crc32(&data));
    }

    /// The bitwise reference the tables are derived from.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect()
    }

    #[test]
    fn table_matches_the_bitwise_form() {
        let data = pattern(4096);
        assert_eq!(crc32(&data), bitwise(&data));
    }

    #[test]
    fn slicing_matches_the_bitwise_form_at_every_length_and_alignment() {
        // Every tail length, the 8-byte step boundaries, and page-sized
        // buffers on either side of a multiple of 8, each starting at
        // every offset within an 8-byte word.
        let data = pattern(4097 + 8);
        let lengths = (0..=64).chain([4095, 4096, 4097]);
        for len in lengths {
            for start in 0..8 {
                let chunk = &data[start..start + len];
                assert_eq!(crc32(chunk), bitwise(chunk), "len {len}, start {start}");
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data = pattern(64);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }
}
