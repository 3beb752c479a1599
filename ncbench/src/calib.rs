//! The calibration kernel: a fixed piece of simulator-like host work that
//! belongs to the benchmark, not to the program, timed next to every
//! round. Its CPU time tracks how fast the shared host runs at that
//! moment, so host metrics can be put at one reference speed.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::OnceLock;

use crate::clock::CpuInstant;
use crate::stats::median;

/// The kernel's typical [`calib_s`] on the machine the benchmark was tuned
/// on (a 2-vCPU KVM guest on an Intel Xeon Sapphire Rapids host), CPU
/// seconds. Host metrics are reported at that machine's speed: a round's
/// CPU time is scaled by `CALIB_REF_S / calib_s()` measured around it.
pub const CALIB_REF_S: f64 = 0.025;

/// Events the kernel's queue processes.
const EVENTS: u64 = 1 << 17;
/// Bytes of the strided source the kernel packs (4 of every 16).
const STRIDED: usize = 16 << 20;

/// Slots of the pointer-chase ring (u32 each, 16 MiB).
const RING: usize = 1 << 22;
/// Dependent loads one pass makes around the ring.
const HOPS: usize = 1 << 16;

/// A single cycle through all `RING` slots in a fixed pseudo-random order
/// (Sattolo's shuffle driven by xorshift64).
fn ring() -> Vec<u32> {
    let mut next: Vec<u32> = (0..RING as u32).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..RING).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

/// One pass: an event queue with a small allocation and a map update per
/// event, a strided 4-of-16-byte pack of a 16 MiB buffer, then a chain of
/// dependent loads around a 16 MiB ring.
fn kernel(src: &[u8], dst: &mut [u8], ring: &[u32]) -> u64 {
    let mut heap = BinaryHeap::new();
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for i in 0..256u64 {
        heap.push(std::cmp::Reverse((i.wrapping_mul(0x9E37_79B9) % 1000, i)));
    }
    let mut acc = 0u64;
    for n in 0..EVENTS {
        let std::cmp::Reverse((t, id)) = heap.pop().expect("queue never empties");
        let payload: Vec<u64> = (0..(id % 8 + 1)).map(|k| k ^ t).collect();
        acc = acc.wrapping_add(payload.iter().sum::<u64>());
        *seen.entry(id % 4096).or_insert(0) += 1;
        heap.push(std::cmp::Reverse((
            t + 1 + (n ^ id) % 997,
            id.wrapping_add(n) % 65_536,
        )));
    }
    for (o, row) in dst.chunks_exact_mut(4).zip(src.chunks_exact(16)) {
        o.copy_from_slice(&row[..4]);
    }
    let mut at = 0u32;
    for _ in 0..HOPS {
        at = ring[at as usize];
    }
    acc.wrapping_add(seen.len() as u64 + u64::from(at)) ^ u64::from(dst[dst.len() / 2])
}

/// [`calib_s`] taken inside a round's timed phase: the reading, and the
/// CPU seconds the whole call cost, which the round takes out of its own
/// time.
pub fn calib_inside() -> (f64, f64) {
    let t = CpuInstant::now();
    let c = calib_s();
    (c, CpuInstant::now().secs_since(t))
}

/// Median CPU seconds of three passes of the kernel.
pub fn calib_s() -> f64 {
    static RING_ORDER: OnceLock<Vec<u32>> = OnceLock::new();
    let ring = RING_ORDER.get_or_init(ring);
    let src: Vec<u8> = (0..STRIDED).map(|i| i as u8).collect();
    let mut dst = vec![0u8; STRIDED / 4];
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = CpuInstant::now();
            black_box(kernel(black_box(&src), &mut dst, ring));
            CpuInstant::now().secs_since(t)
        })
        .collect();
    median(&times)
}
