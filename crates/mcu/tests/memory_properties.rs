//! Property-style tests of the memory substrate: roundtrips, bounds,
//! volatility, and copy semantics under random access patterns. Inputs
//! come from a seeded splitmix64 stream (128 deterministic cases per
//! property) instead of a fuzzing crate, so the suite builds offline and
//! replays exactly.

use tics_mcu::{Addr, Memory, MemoryLayout};

const CASES: u64 = 128;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.next().is_multiple_of(2)
    }
}

fn mem() -> Memory {
    Memory::new(MemoryLayout::default())
}

/// A one-byte read on the byte-range form.
fn read_u8(m: &mut Memory, a: Addr) -> u8 {
    let mut b = [0u8; 1];
    m.read_bytes(a, &mut b).unwrap();
    b[0]
}

fn fram_addr(off: u32) -> Addr {
    MemoryLayout::default().fram.start.offset(off)
}

fn sram_addr(off: u32) -> Addr {
    MemoryLayout::default().sram.start.offset(off)
}

/// Any write is read back exactly, in either region.
#[test]
fn write_read_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng(0x0AA0_0000 + case);
        let off = rng.range(0, 64 * 1024 - 8) as u32;
        let v = rng.next() as u32 as i32;
        let mut m = mem();
        let a = fram_addr(off);
        m.write_i32(a, v).unwrap();
        assert_eq!(m.read_i32(a).unwrap(), v, "case {case}");
    }
}

/// Byte-level and word-level views agree (little-endian).
#[test]
fn byte_and_word_views_agree() {
    for case in 0..CASES {
        let mut rng = Rng(0x0BB0_0000 + case);
        let off = rng.range(0, 1000) as u32;
        let v = rng.next() as u32;
        let mut m = mem();
        let a = fram_addr(off * 4);
        m.write_word(a, v).unwrap();
        let bytes = m.peek_slice(a, 4).unwrap();
        assert_eq!(
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            v,
            "case {case}"
        );
    }
}

/// Power failure is exactly "SRAM forgets, FRAM remembers" —
/// regardless of what was written where.
#[test]
fn power_failure_volatility() {
    for case in 0..CASES {
        let mut rng = Rng(0x0CC0_0000 + case);
        let n = rng.range(1, 40) as usize;
        let writes: Vec<(u32, i32, bool)> = (0..n)
            .map(|_| {
                (
                    rng.range(0, 500) as u32,
                    rng.next() as u32 as i32,
                    rng.bool(),
                )
            })
            .collect();
        let mut m = mem();
        let mut fram_truth = std::collections::HashMap::new();
        for (slot, v, to_fram) in &writes {
            if *to_fram {
                m.write_i32(fram_addr(slot * 4), *v).unwrap();
                fram_truth.insert(*slot, *v);
            } else {
                m.write_i32(sram_addr(slot * 4), *v).unwrap();
            }
        }
        m.power_fail();
        for (slot, v) in &fram_truth {
            assert_eq!(m.read_i32(fram_addr(slot * 4)).unwrap(), *v, "case {case}");
        }
        // Every SRAM word is clobbered to the recognizable pattern.
        for (slot, _, to_fram) in &writes {
            if !to_fram {
                let got = m.read_i32(sram_addr(slot * 4)).unwrap() as u32;
                assert_eq!(got, 0xA5A5_A5A5, "case {case}");
            }
        }
    }
}

/// `copy` moves exactly the requested bytes and nothing else.
#[test]
fn copy_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng(0x0DD0_0000 + case);
        let src_off = rng.range(0, 512) as u32;
        let dst_off = rng.range(1024, 1536) as u32;
        let len = rng.range(1, 64) as u32;
        let fill = rng.next() as u8;
        let mut m = mem();
        let src = fram_addr(src_off);
        let dst = fram_addr(dst_off);
        let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        m.write_bytes(src, &payload).unwrap();
        // Sentinels around the destination.
        m.write_bytes(Addr(dst.raw() - 1), &[0xEE]).unwrap();
        m.write_bytes(dst.offset(len), &[0xEE]).unwrap();
        m.copy(src, dst, len).unwrap();
        assert_eq!(m.peek_slice(dst, len).unwrap(), payload, "case {case}");
        assert_eq!(read_u8(&mut m, Addr(dst.raw() - 1)), 0xEE, "case {case}");
        assert_eq!(read_u8(&mut m, dst.offset(len)), 0xEE, "case {case}");
    }
}

/// Out-of-range accesses are always errors, never wraps or panics.
#[test]
fn unmapped_accesses_error() {
    for case in 0..CASES {
        let mut rng = Rng(0x0EE0_0000 + case);
        let addr = rng.next() as u32;
        let layout = MemoryLayout::default();
        let mut m = mem();
        let a = Addr(addr);
        let mapped = layout.sram.contains_range(a, 4) || layout.fram.contains_range(a, 4);
        assert_eq!(m.read_word(a).is_ok(), mapped, "case {case}: {addr:#x}");
        assert_eq!(m.write_word(a, 1).is_ok(), mapped, "case {case}: {addr:#x}");
        assert_eq!(m.read_i32(a).is_ok(), mapped, "case {case}: {addr:#x}");
        assert_eq!(m.write_i32(a, 1).is_ok(), mapped, "case {case}: {addr:#x}");
    }
    // Make sure both outcomes were reachable: probe known-mapped and
    // known-unmapped addresses explicitly.
    let layout = MemoryLayout::default();
    let mut m = mem();
    assert!(m.read_word(layout.fram.start).is_ok());
    assert!(m.read_word(Addr(u32::MAX - 8)).is_err());
}

/// Cycle accounting is monotone: accesses never make time go
/// backwards, and FRAM writes are never cheaper than SRAM writes.
#[test]
fn cycles_are_monotone() {
    for case in 0..CASES {
        let mut rng = Rng(0x0FF0_0000 + case);
        let n = rng.range(1, 30) as usize;
        let mut m = mem();
        let mut last = m.cycles();
        for _ in 0..n {
            let slot = rng.range(0, 200) as u32;
            let a = if rng.bool() {
                fram_addr(slot * 4)
            } else {
                sram_addr(slot * 4)
            };
            m.write_i32(a, 7).unwrap();
            assert!(m.cycles() >= last, "case {case}");
            last = m.cycles();
        }
    }
}
