//! The calibration kernel: a fixed bytecode interpreter loop, timed after
//! every piece of an untraced round to gauge how fast the host runs at
//! the moment.
//!
//! A shared host slows the simulator down for seconds to minutes at a
//! time, by 10% to 2x, when its neighbours get busy: the clock steps down
//! and the core's front end and caches are shared. An interpreter loop
//! slows down with the simulator's interpreter, so the benchmark scales
//! its host-time metrics by the kernel's fastest time over the run. On a
//! 2-vCPU Xeon VM this cut the quartile spread of `runs_per_s` across runs
//! from 6-15% to 1-4%.
//!
//! A loop this small runs up to 10% faster or slower depending on where
//! its code falls relative to 64-byte cache lines, and a Rust function's
//! placement shifts whenever any crate linked before it changes. On
//! x86-64 the loop is therefore written in assembly and pinned to a cache
//! line, so no change elsewhere in the program moves its speed. Other
//! targets time a chain of dependent multiplications instead, which is
//! also independent of placement but sees only clock changes.

/// Seconds [`kernel`] takes on the host the baseline in `README.md` was
/// recorded on, at its fastest. Host-time metrics are scaled to that host.
pub const REFERENCE_S: f64 = 0.000_52;

/// Interpreter steps per kernel call (about half a millisecond).
const STEPS: u64 = 250_000;

/// Bytecode the kernel interprets: 256 opcodes in `0..8` from a fixed
/// xorshift stream.
const PROGRAM: [u8; 256] = {
    let mut program = [0u8; 256];
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut i = 0;
    while i < program.len() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        program[i] = (x >> 61) as u8;
        i += 1;
    }
    program
};

// Fetch an opcode, jump through a table of eight handlers, loop.
// `rdi` counts the steps down, `rsi` points at the program; only
// caller-saved registers are used and nothing touches the stack.
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".pushsection .text.tics_perf_calibration,\"ax\",@progbits",
    ".p2align 6",
    "tics_perf_calibration:",
    "    mov rax, 1",
    "    mov r11, 0x5EED",
    "    mov r9, 0x9E3779B97F4A7C15",
    "    xor r8d, r8d",
    "    lea r10, [rip + .Ltics_perf_table]",
    ".Ltics_perf_next:",
    "    movzx edx, byte ptr [rsi + r8]",
    "    add r8d, 1",
    "    and r8d, 255",
    "    movsxd rdx, dword ptr [r10 + 4*rdx]",
    "    add rdx, r10",
    "    jmp rdx",
    ".Ltics_perf_h0:",
    "    add rax, r11",
    "    jmp .Ltics_perf_tail",
    ".Ltics_perf_h1:",
    "    xor r11, rax",
    "    rol r11, 13",
    "    jmp .Ltics_perf_tail",
    ".Ltics_perf_h2:",
    "    imul rax, r9",
    "    jmp .Ltics_perf_tail",
    ".Ltics_perf_h3:",
    "    mov rdx, rax",
    "    shr rdx, 17",
    "    xor rax, rdx",
    "    jmp .Ltics_perf_tail",
    ".Ltics_perf_h4:",
    "    add r11, r9",
    "    ror r11, 7",
    "    jmp .Ltics_perf_tail",
    ".Ltics_perf_h5:",
    "    lea rax, [rax + 2*r11]",
    "    jmp .Ltics_perf_tail",
    ".Ltics_perf_h6:",
    "    test al, 1",
    "    jz .Ltics_perf_tail",
    "    add r11, 3",
    "    jmp .Ltics_perf_tail",
    ".Ltics_perf_h7:",
    "    sub rax, r11",
    "    bswap rax",
    ".Ltics_perf_tail:",
    "    sub rdi, 1",
    "    jnz .Ltics_perf_next",
    "    ret",
    ".p2align 2",
    ".Ltics_perf_table:",
    "    .long .Ltics_perf_h0 - .Ltics_perf_table",
    "    .long .Ltics_perf_h1 - .Ltics_perf_table",
    "    .long .Ltics_perf_h2 - .Ltics_perf_table",
    "    .long .Ltics_perf_h3 - .Ltics_perf_table",
    "    .long .Ltics_perf_h4 - .Ltics_perf_table",
    "    .long .Ltics_perf_h5 - .Ltics_perf_table",
    "    .long .Ltics_perf_h6 - .Ltics_perf_table",
    "    .long .Ltics_perf_h7 - .Ltics_perf_table",
    ".popsection",
);

#[cfg(target_arch = "x86_64")]
extern "sysv64" {
    fn tics_perf_calibration(steps: u64, program: *const u8) -> u64;
}

/// Runs the kernel once and returns its final accumulator.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn kernel() -> u64 {
    // SAFETY: the routine reads only `program[0..256]` (the index is
    // masked to 255 and `PROGRAM` has 256 bytes), writes only the
    // caller-saved registers rax, rdx, rdi, r8-r11 and the flags, never
    // touches memory through them or the stack, and returns with `ret`
    // under the System V ABI it is declared with. `STEPS` is non-zero, so
    // the count-down loop ends.
    unsafe { tics_perf_calibration(STEPS, PROGRAM.as_ptr()) }
}

/// Runs the kernel once and returns its final state.
#[cfg(not(target_arch = "x86_64"))]
#[must_use]
#[inline(never)]
pub fn kernel() -> u64 {
    let multiplier = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut x = std::hint::black_box(u64::from(PROGRAM[0]) + 1);
    for _ in 0..STEPS {
        x = x.wrapping_mul(multiplier) ^ (x >> 29);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
        assert!(PROGRAM.iter().all(|&op| op < 8));
        assert!((0..8).all(|op| PROGRAM.contains(&op)), "every handler runs");
    }
}
