//! The frozen reference kernel that every end-to-end time is normalized by.
//!
//! It is single-threaded integer work shaped like the codec's inner loop:
//! a causal neighbourhood, a gradient quantized through a table, a context
//! picked from it, and eight binary decisions per pixel descending a
//! 256-node count tree with a table-driven interval split and byte
//! renormalisation. Its input comes from a fixed xorshift sequence, so every
//! call does the same work.
//!
//! Do not edit this file: a change to it moves every normalized figure of
//! every commit measured after it.

/// Pixels one call processes.
pub const PIXELS: u32 = 1 << 16;

/// Nominal time per pixel in nanoseconds: the kernel's speed in its fast
/// mode on the 2-vCPU x86-64 VM the benchmark's reference figures were
/// taken on. A run multiplies its times by `NOMINAL_NS_PX / measured`.
pub const NOMINAL_NS_PX: f64 = 40.0;

const CONTEXTS: usize = 64;
const WIDTH: usize = 256;
const SEED: u32 = 0x9E37_79B9;

/// Runs the kernel once and returns a checksum of its output.
pub fn run() -> u64 {
    let mut quant = [0u8; 511];
    for (i, q) in quant.iter_mut().enumerate() {
        *q = match (i as i32 - 255).unsigned_abs() {
            0..=2 => 0,
            3..=7 => 1,
            8..=20 => 2,
            _ => 3,
        };
    }
    let mut recip = [0u32; 2048];
    for (t, r) in recip.iter_mut().enumerate().skip(1) {
        *r = (1 << 16) / t as u32;
    }
    let mut tree = vec![[1u16; 2]; CONTEXTS * 256];
    let mut row = [128u8; WIDTH];
    let mut x = SEED;
    let (mut low, mut range, mut sum) = (0u64, u32::MAX, 0u64);
    for i in 0..PIXELS as usize {
        let col = i % WIDTH;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let west = if col > 0 { row[col - 1] } else { row[col] };
        let north = row[col];
        let px = ((u32::from(west) + u32::from(north)) / 2 + (x & 15)).saturating_sub(8) as u8;
        let grad = quant[(i32::from(west) - i32::from(north) + 255) as usize];
        let base = (usize::from(grad) * 16 + usize::from(north >> 4)) % CONTEXTS * 256;
        let mut node = 1usize;
        for b in (0..8).rev() {
            let bit = usize::from((px >> b) & 1);
            let c = &mut tree[base + node];
            let total = u32::from(c[0]) + u32::from(c[1]);
            let p0 = ((u32::from(c[0]) * recip[total as usize]) >> 4).clamp(1, 4095);
            let split = (range >> 12) * p0;
            if bit == 0 {
                range = split;
            } else {
                low += u64::from(split);
                range -= split;
            }
            while range < 1 << 24 {
                sum = sum.wrapping_mul(31) ^ (low >> 24);
                low = (low << 8) & 0xFFFF_FFFF;
                range <<= 8;
            }
            c[bit] += 1;
            if total >= 1000 {
                c[0] = c[0].div_ceil(2);
                c[1] = c[1].div_ceil(2);
            }
            node = node * 2 + bit;
        }
        row[col] = px;
    }
    sum ^ low
}
