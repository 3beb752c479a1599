//! GPU-offloaded datatype packing: turn a plan's stride program into
//! device-internal copy operations.
//!
//! This is the paper's first contribution (§IV-A): instead of moving each
//! non-contiguous row across PCIe, the layout is packed *inside* device
//! memory — ideally with a single strided `cudaMemcpy2D` — and then crosses
//! PCIe as one contiguous block.
//!
//! [`SegmentMap`] slices a committed layout into arbitrary packed-byte
//! ranges (pipeline chunks) and emits the cheapest device operation
//! sequence for each:
//!
//! * one contiguous `memcpy` when the range is a single run,
//! * one strided 2-D copy when the runs are uniform (optionally with
//!   trimmed head/tail runs from chunk boundaries),
//! * a generic gather/scatter pack kernel for irregular layouts
//!   (indexed/struct types — beyond what the paper evaluated, but what its
//!   production descendants do).
//!
//! For a `Strided2D` plan the choice is plain arithmetic on the chunk's
//! row span; any other layout maps the chunk to its pieces first and
//! applies the rules above to them. Both reach the same decision for the
//! same range.

use std::sync::Arc;

use gpu_sim::{Copy2d, DevPtr, Gpu, Loc, Stream};
use mpi_sim::flat::{Layout, Segment};
use mpi_sim::Plan;
use sim_core::Completion;

/// A committed layout, sliced into device operations per packed range.
///
/// A thin view over a shared [`Plan`]: building one from a committed
/// datatype's cached plan (`SegmentMap::from_plan(dt.plan(count))`)
/// allocates nothing.
pub struct SegmentMap {
    plan: Arc<Plan>,
}

/// One run of bytes in the user buffer: (byte offset relative to the buffer
/// address, length).
pub type Piece = mpi_sim::plan::Piece;

/// `height` rows of `width` bytes, `pitch` apart, the first at user offset
/// `first`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Rows {
    first: isize,
    pitch: usize,
    width: usize,
    height: usize,
}

/// The device operations that move one packed range.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Ops {
    /// One contiguous copy.
    Contig(Piece),
    /// One pitched 2-D copy.
    Rows(Rows),
    /// Clipped head run, pitched middle, clipped tail run.
    Peeled(Piece, Rows, Piece),
    /// A generic gather/scatter kernel over these pieces.
    Kernel(Vec<Piece>),
}

impl SegmentMap {
    /// Build from an explicit segment list.
    pub fn new(segs: Vec<Segment>) -> Self {
        Self::from_plan(Arc::new(Plan::from_segments(segs)))
    }

    /// Wrap a (usually cached) communication plan.
    pub fn from_plan(plan: Arc<Plan>) -> Self {
        SegmentMap { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Total packed bytes.
    pub fn total(&self) -> usize {
        self.plan.total()
    }

    /// Number of runs.
    pub fn num_segments(&self) -> usize {
        self.plan.num_segments()
    }

    /// The user-buffer runs covering packed-byte range `[off, off+len)`.
    pub fn pieces(&self, off: usize, len: usize) -> Vec<Piece> {
        self.plan.pieces(off, len)
    }

    fn ops(&self, off: usize, len: usize) -> Ops {
        assert!(len > 0, "empty packed range");
        match *self.plan.layout() {
            Layout::Strided2D {
                first,
                pitch,
                width,
                height,
            } => {
                assert!(
                    off + len <= width * height,
                    "range [{off}, +{len}) exceeds packed size {}",
                    width * height
                );
                strided_ops(first, pitch, width, off, len)
            }
            _ => ops_of(self.plan.pieces(off, len)),
        }
    }

    /// Enqueue the device ops that pack packed bytes `[off, off+len)` of
    /// the user buffer at `user` into contiguous device memory at `dst`.
    /// Returns the completion of the last op.
    pub fn gather(
        &self,
        gpu: &Gpu,
        stream: &Stream,
        user: DevPtr,
        off: usize,
        len: usize,
        dst: DevPtr,
    ) -> Completion {
        enqueue_ops(gpu, stream, user, self.ops(off, len), dst, true)
    }

    /// Enqueue the device ops that scatter `len` contiguous bytes at `src`
    /// into packed bytes `[off, off+len)` of the user buffer at `user`.
    pub fn scatter(
        &self,
        gpu: &Gpu,
        stream: &Stream,
        user: DevPtr,
        off: usize,
        len: usize,
        src: DevPtr,
    ) -> Completion {
        enqueue_ops(gpu, stream, user, self.ops(off, len), src, false)
    }
}

/// If `pieces` form `height` equal-width runs at a constant pitch no
/// smaller than the width, return them as rows. Overlapping runs (a legal
/// send layout) are not a 2-D copy.
fn uniform(pieces: &[Piece]) -> Option<Rows> {
    match pieces {
        [] => None,
        &[(first, len)] => Some(Rows {
            first,
            pitch: len,
            width: len,
            height: 1,
        }),
        &[(o0, w0), (o1, w1), ref rest @ ..] => {
            if w1 != w0 || o1 - o0 < w0 as isize {
                return None;
            }
            let pitch = (o1 - o0) as usize;
            let mut prev = o1;
            for &(o, w) in rest {
                if w != w0 || o - prev != pitch as isize {
                    return None;
                }
                prev = o;
            }
            Some(Rows {
                first: o0,
                pitch,
                width: w0,
                height: pieces.len(),
            })
        }
    }
}

/// The device operations for an explicit piece list.
fn ops_of(pieces: Vec<Piece>) -> Ops {
    assert!(!pieces.is_empty(), "empty piece list");
    // Whole range uniform: one strided copy (or a plain memcpy for a single
    // run).
    if let Some(r) = uniform(&pieces) {
        if r.height == 1 || r.pitch == r.width {
            return Ops::Contig((r.first, pieces.iter().map(|&(_, l)| l).sum()));
        }
        return Ops::Rows(r);
    }
    // Chunk boundaries often clip the first/last run of an otherwise
    // uniform pattern: peel them off and 2-D-copy the middle.
    let n = pieces.len();
    if n >= 3 {
        if let Some(mid) = uniform(&pieces[1..n - 1]) {
            let (head, tail) = (pieces[0], pieces[n - 1]);
            if mid.height >= 2 && head.1 <= mid.width && tail.1 <= mid.width {
                return Ops::Peeled(head, mid, tail);
            }
        }
    }
    Ops::Kernel(pieces)
}

/// [`ops_of`] for packed range `[off, off+len)` of `width`-byte rows at
/// `pitch > width`, computed from the range's row span alone.
fn strided_ops(first: isize, pitch: usize, width: usize, off: usize, len: usize) -> Ops {
    let at = |row: usize| first + (row * pitch) as isize;
    let (r0, c0) = (off / width, off % width);
    let end = off + len;
    let r1 = (end - 1) / width;
    if r0 == r1 {
        return Ops::Contig((at(r0) + c0 as isize, len));
    }
    let head = (at(r0) + c0 as isize, width - c0);
    let tail = (at(r1), end - r1 * width);
    let n = r1 - r0 + 1;
    if n == 2 {
        // Two equal clipped runs are still uniform, at the clipped pitch.
        if head.1 == tail.1 {
            return Ops::Rows(Rows {
                first: head.0,
                pitch: pitch - c0,
                width: head.1,
                height: 2,
            });
        }
        return Ops::Kernel(vec![head, tail]);
    }
    let rows = |r: usize, height: usize| Rows {
        first: at(r),
        pitch,
        width,
        height,
    };
    if c0 == 0 && tail.1 == width {
        return Ops::Rows(rows(r0, n));
    }
    if n >= 4 {
        return Ops::Peeled(head, rows(r0 + 1, n - 2), tail);
    }
    Ops::Kernel(vec![head, (at(r0 + 1), width), tail])
}

fn dev_at(base: DevPtr, rel: isize) -> DevPtr {
    base.add_signed(rel)
}

fn enqueue_ops(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    ops: Ops,
    contig: DevPtr,
    gather: bool,
) -> Completion {
    let copy1d = |(rel, len): Piece, cbase: DevPtr| {
        let (d, s) = if gather {
            (cbase, dev_at(user, rel))
        } else {
            (dev_at(user, rel), cbase)
        };
        gpu.memcpy_async(d, s, len, stream)
    };
    let copy2d = |r: Rows, cbase: DevPtr| {
        let strided = Loc::Device(dev_at(user, r.first));
        let contig_loc = Loc::Device(cbase);
        let p = if gather {
            Copy2d {
                dst: contig_loc,
                dpitch: r.width,
                src: strided,
                spitch: r.pitch,
                width: r.width,
                height: r.height,
            }
        } else {
            Copy2d {
                dst: strided,
                dpitch: r.pitch,
                src: contig_loc,
                spitch: r.width,
                width: r.width,
                height: r.height,
            }
        };
        gpu.memcpy_2d_async(p, stream)
    };
    match ops {
        Ops::Contig(piece) => copy1d(piece, contig),
        Ops::Rows(r) => copy2d(r, contig),
        Ops::Peeled(head, mid, tail) => {
            copy1d(head, contig);
            let coff = contig.add(head.1);
            copy2d(mid, coff);
            copy1d(tail, coff.add(mid.width * mid.height))
        }
        Ops::Kernel(pieces) => {
            let total: usize = pieces.iter().map(|&(_, l)| l).sum();
            let cost = gpu.cost_model().pack_kernel(total as u64, pieces.len());
            gpu.launch_kernel(
                if gather {
                    "pack_gather"
                } else {
                    "unpack_scatter"
                },
                cost,
                stream,
                move |g| {
                    let mut coff = contig;
                    for (rel, len) in pieces {
                        let u = dev_at(user, rel);
                        if gather {
                            let bytes = g.read_bytes(u, len);
                            g.write_bytes(coff, &bytes);
                        } else {
                            let bytes = g.read_bytes(coff, len);
                            g.write_bytes(u, &bytes);
                        }
                        coff = coff.add(len);
                    }
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::Datatype;
    use sim_core::Sim;

    fn in_sim(f: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("t", f);
        sim.run();
    }

    fn map_of(dt: &Datatype, count: usize) -> SegmentMap {
        dt.commit();
        SegmentMap::from_plan(dt.plan(count))
    }

    fn rows(first: isize, pitch: usize, width: usize, height: usize) -> Rows {
        Rows {
            first,
            pitch,
            width,
            height,
        }
    }

    #[test]
    fn pieces_slices_ranges() {
        let dt = Datatype::vector(4, 1, 4, &Datatype::float());
        let m = map_of(&dt, 1); // runs of 4 at 0,16,32,48
        assert_eq!(m.total(), 16);
        assert_eq!(m.pieces(0, 16), vec![(0, 4), (16, 4), (32, 4), (48, 4)]);
        assert_eq!(m.pieces(2, 4), vec![(2, 2), (16, 2)]);
        assert_eq!(m.pieces(6, 6), vec![(18, 2), (32, 4)]);
        assert!(m.pieces(16, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds packed size")]
    fn pieces_out_of_range_panics() {
        let dt = Datatype::float();
        let m = map_of(&dt, 1);
        let _ = m.pieces(0, 5);
    }

    #[test]
    fn uniform_detection() {
        assert_eq!(
            uniform(&[(0, 4), (16, 4), (32, 4)]),
            Some(rows(0, 16, 4, 3))
        );
        assert_eq!(uniform(&[(8, 4)]), Some(rows(8, 4, 4, 1)));
        // Overlapping runs are not a 2-D copy.
        assert_eq!(uniform(&[(0, 8), (4, 8), (8, 8)]), None);
        assert_eq!(uniform(&[(0, 4), (16, 8)]), None);
        assert_eq!(uniform(&[(0, 4), (16, 4), (30, 4)]), None);
        assert_eq!(uniform(&[]), None);
    }

    #[test]
    fn gather_uniform_uses_one_2d_copy() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(256);
            let tbuf = gpu.malloc(64);
            gpu.write_bytes(user, &(0..=255).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            let dt = Datatype::vector(8, 1, 8, &Datatype::float());
            let m = map_of(&dt, 1);
            let before = gpu.counters().get("cudaMemcpy2DAsync");
            m.gather(&gpu, &s, user, 0, 32, tbuf).wait();
            assert_eq!(gpu.counters().get("cudaMemcpy2DAsync"), before + 1);
            let got = gpu.read_bytes(tbuf, 32);
            for r in 0..8 {
                assert_eq!(&got[r * 4..r * 4 + 4], gpu.read_bytes(user.add(r * 32), 4));
            }
            // A row-aligned pipeline chunk (rows 2..6) is one 2-D copy too.
            let kernels = gpu.counters().get("kernelLaunch");
            m.gather(&gpu, &s, user, 8, 16, tbuf).wait();
            assert_eq!(gpu.counters().get("cudaMemcpy2DAsync"), before + 2);
            assert_eq!(gpu.counters().get("kernelLaunch"), kernels);
            assert_eq!(gpu.read_bytes(tbuf, 16), &got[8..24]);
        });
    }

    #[test]
    fn gather_with_clipped_head_tail() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(1024);
            let tbuf = gpu.malloc(256);
            gpu.write_bytes(
                user,
                &(0..1024).map(|i| (i * 7 % 251) as u8).collect::<Vec<_>>(),
            );
            let s = gpu.create_stream();
            let dt = Datatype::vector(32, 1, 8, &Datatype::float());
            let m = map_of(&dt, 1); // 32 runs of 4 bytes
                                    // A range that starts and ends mid-run.
            m.gather(&gpu, &s, user, 2, 100, tbuf).wait();
            // Reference: CPU-computed expected packed bytes.
            let all: Vec<u8> = (0..32)
                .flat_map(|r| gpu.read_bytes(user.add(r * 32), 4))
                .collect();
            assert_eq!(gpu.read_bytes(tbuf, 100), &all[2..102]);
        });
    }

    #[test]
    fn irregular_layout_uses_pack_kernel() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(256);
            let tbuf = gpu.malloc(64);
            gpu.write_bytes(user, &(0..=255).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            let dt = Datatype::indexed(&[(1, 0), (2, 9), (1, 30), (3, 40)], &Datatype::int());
            let m = map_of(&dt, 1);
            let before = gpu.counters().get("kernelLaunch");
            let copies = gpu.counters().get("cudaMemcpy2DAsync");
            m.gather(&gpu, &s, user, 0, m.total(), tbuf).wait();
            assert_eq!(gpu.counters().get("kernelLaunch"), before + 1);
            let mut expect = Vec::new();
            for (bl, disp) in [(1usize, 0usize), (2, 9), (1, 30), (3, 40)] {
                expect.extend(gpu.read_bytes(user.add(disp * 4), bl * 4));
            }
            assert_eq!(gpu.read_bytes(tbuf, m.total()), expect);
            // A pipeline chunk of the same layout is one kernel as well.
            m.gather(&gpu, &s, user, 2, 20, tbuf).wait();
            assert_eq!(gpu.counters().get("kernelLaunch"), before + 2);
            assert_eq!(gpu.counters().get("cudaMemcpy2DAsync"), copies);
            assert_eq!(gpu.read_bytes(tbuf, 20), &expect[2..22]);
        });
    }

    #[test]
    fn scatter_inverts_gather() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let a = gpu.malloc(512);
            let b = gpu.malloc(512);
            let tbuf = gpu.malloc(128);
            gpu.write_bytes(a, &(0..512).map(|i| (i % 241) as u8).collect::<Vec<_>>());
            let s = gpu.create_stream();
            let dt = Datatype::vector(16, 2, 8, &Datatype::float());
            let m = map_of(&dt, 1); // 16 runs of 8 bytes, pitch 32
            m.gather(&gpu, &s, a, 0, m.total(), tbuf).wait();
            m.scatter(&gpu, &s, b, 0, m.total(), tbuf).wait();
            for r in 0..16 {
                assert_eq!(
                    gpu.read_bytes(b.add(r * 32), 8),
                    gpu.read_bytes(a.add(r * 32), 8),
                    "run {r}"
                );
            }
        });
    }

    #[test]
    fn contiguous_range_uses_1d_copy() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(128);
            let tbuf = gpu.malloc(128);
            gpu.write_bytes(user, &(0..128).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            let dt = Datatype::contiguous(32, &Datatype::float());
            let m = map_of(&dt, 1);
            let before2d = gpu.counters().get("cudaMemcpy2DAsync");
            m.gather(&gpu, &s, user, 0, 128, tbuf).wait();
            assert_eq!(gpu.counters().get("cudaMemcpy2DAsync"), before2d);
            assert_eq!(gpu.read_bytes(tbuf, 128), gpu.read_bytes(user, 128));
        });
    }

    #[test]
    fn strided_arithmetic_matches_the_piece_rules() {
        // Every range of every small strided geometry: the row-span
        // arithmetic picks exactly the ops the piece-list rules pick.
        for width in 1..5usize {
            for pitch in width + 1..width + 4 {
                for height in 1..7usize {
                    let segs = (0..height)
                        .map(|r| Segment {
                            offset: 3 + (r * pitch) as isize,
                            len: width,
                        })
                        .collect();
                    let m = SegmentMap::new(segs);
                    let total = width * height;
                    for off in 0..total {
                        for len in 1..=total - off {
                            assert_eq!(
                                m.ops(off, len),
                                ops_of(m.pieces(off, len)),
                                "w{width} p{pitch} h{height} [{off}, +{len})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overlapping_rows_pack_with_the_gather_kernel() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(64);
            let tbuf = gpu.malloc(64);
            gpu.write_bytes(user, &(0..64).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            // Three 8-byte blocks every 4 bytes: a legal send type.
            let m = map_of(&Datatype::hvector(3, 2, 4, &Datatype::float()), 1);
            let k0 = gpu.counters().get("kernelLaunch");
            m.gather(&gpu, &s, user, 0, 24, tbuf).wait();
            assert_eq!(gpu.counters().get("kernelLaunch"), k0 + 1);
            let expect: Vec<u8> = (0..3u8).flat_map(|b| b * 4..b * 4 + 8).collect();
            assert_eq!(gpu.read_bytes(tbuf, 24), expect);
        });
    }
}
