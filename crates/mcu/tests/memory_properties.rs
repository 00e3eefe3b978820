//! Property-style tests of the memory substrate: roundtrips, bounds,
//! volatility, and copy semantics under random access patterns. Inputs
//! come from a seeded splitmix64 stream (128 deterministic cases per
//! property) instead of a fuzzing crate, so the suite builds offline and
//! replays exactly.

use tics_mcu::{Addr, CorruptionModel, Memory, MemoryLayout};

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

/// A random address with room for `len` bytes, in SRAM or FRAM, spread
/// over the whole region so stores reach its top limbs too.
fn any_addr(rng: &mut Rng, len: u32) -> Addr {
    let layout = MemoryLayout::default();
    let region = if rng.bool() { layout.sram } else { layout.fram };
    region
        .start
        .offset(rng.range(0, u64::from(region.len() - len + 1)) as u32)
}

/// One random step of a device life on `m`: a store in any form, a
/// dirty clear over a random range, a power failure, or a change to the
/// armed cut, corruption model, span or cycle count.
fn random_step(m: &mut Memory, rng: &mut Rng) {
    let len = rng.range(1, 300) as u32;
    match rng.range(0, 12) {
        0 => {
            let buf: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            m.write_bytes(any_addr(rng, len), &buf).unwrap();
        }
        1 => m.fill(any_addr(rng, len), len, rng.next() as u8).unwrap(),
        2 => {
            let (src, dst) = (any_addr(rng, len), any_addr(rng, len));
            m.copy(src, dst, len).unwrap();
        }
        3 => {
            let buf: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            m.poke_bytes(any_addr(rng, len), &buf).unwrap();
        }
        4 => m.write_word(any_addr(rng, 4), rng.next() as u32).unwrap(),
        5 => m.write_i32(any_addr(rng, 4), rng.next() as i32).unwrap(),
        6 => {
            let frame_len = 4 * rng.range(1, 16) as u32;
            let fp = any_addr(rng, frame_len);
            let mut burst = m.word_burst(fp, frame_len).expect("frame in one region");
            for _ in 0..rng.range(1, 8) {
                let off = 4 * rng.range(0, u64::from(frame_len / 4)) as u32;
                burst.write_frame::<true>(off, rng.next() as u32).unwrap();
                let addr = any_addr(rng, 4);
                burst.write_word::<true>(addr, rng.next() as u32).unwrap();
            }
            burst.commit();
        }
        7 => {
            let len = rng.range(1, 64 * 1024) as u32;
            let layout = MemoryLayout::default();
            let region = if rng.bool() { layout.sram } else { layout.fram };
            let len = len.min(region.len());
            let off = rng.range(0, u64::from(region.len() - len + 1)) as u32;
            m.clear_dirty(region.start.offset(off), len);
        }
        8 => m.power_fail(),
        9 => {
            let model = CorruptionModel::new(rng.range(0, 5_000), 0.3, 0.2, rng.next());
            let model = if rng.bool() {
                model.with_sram_decay(0.5)
            } else {
                model
            };
            m.set_corruption(rng.bool().then_some(model));
        }
        10 => {
            let cut = m.cycles() + rng.range(0, 400);
            m.set_power_cut(rng.bool().then_some(cut));
        }
        _ => {
            m.add_cycles(rng.range(0, 100));
            m.set_span(if rng.bool() {
                tics_trace::SpanKind::Checkpoint
            } else {
                tics_trace::SpanKind::App
            });
        }
    }
}

/// `reset` after any sequence of stores, dirty clears, power failures
/// (with and without SRAM decay) and armed corruption leaves both
/// regions' bytes, the dirty bitmap, the statistics, the cycle and span
/// counters, the cut and the corruption model exactly as `Memory::new`
/// builds them — although it zeroes only what the run wrote.
#[test]
fn reset_equals_fresh_memory() {
    let layout = MemoryLayout::default();
    let fresh = mem();
    let (mut torn, mut corrupted) = (0, 0);
    for case in 0..CASES {
        let mut rng = Rng(0x1AA0_0000 + case);
        let mut m = mem();
        // Several lives per case: a recycled memory must reset as well
        // as a new one.
        for life in 0..3 {
            for _ in 0..rng.range(1, 80) {
                random_step(&mut m, &mut rng);
            }
            torn += m.stats().torn_writes;
            corrupted += m.stats().corrupted_writes;
            m.reset();
            for region in [layout.sram, layout.fram] {
                let got = m.peek_slice(region.start, region.len()).unwrap();
                let want = fresh.peek_slice(region.start, region.len()).unwrap();
                let stale = got.iter().zip(want).position(|(g, w)| g != w);
                assert_eq!(
                    stale, None,
                    "case {case} life {life}: byte offset of region {:?} survives reset",
                    region.start
                );
                assert_eq!(
                    m.count_dirty_words(region.start, region.len()),
                    0,
                    "case {case} life {life}: dirty bits at {:?} survive reset",
                    region.start
                );
            }
            assert_eq!(m.stats(), fresh.stats(), "case {case} life {life}");
            assert_eq!(m.cycles(), fresh.cycles(), "case {case} life {life}");
            assert_eq!(m.span_cycles_all(), fresh.span_cycles_all(), "case {case}");
            assert_eq!(m.current_span(), fresh.current_span(), "case {case}");
            assert_eq!(m.power_cut(), None, "case {case} life {life}");
            assert_eq!(m.corruption(), None, "case {case} life {life}");
        }
    }
    assert!(
        torn > 0 && corrupted > 0,
        "torn {torn}, corrupted {corrupted}"
    );
}
