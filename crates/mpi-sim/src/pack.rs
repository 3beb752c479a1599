//! CPU pack/unpack engine for host buffers.
//!
//! [`PackCursor`]/[`UnpackCursor`] stream a committed datatype's bytes
//! to/from a contiguous representation in chunk-sized pieces — O(total)
//! overall even when a message is packed in many chunks, which matters for
//! the pipelined rendezvous path. Cursors walk a shared [`Plan`]'s stride
//! program (usually a plan-cache hit, so creating one allocates nothing)
//! and move every run of a chunk under one lock of the user buffer.

use std::ops::Range;
use std::sync::Arc;

use hostmem::{HostPtr, Runs, WriteView};

use crate::flat::Segment;
use crate::plan::{Batch, Plan, Walker};

/// Streaming packer: reads a non-contiguous layout (`plan` relative to
/// `base`) and produces the packed byte stream incrementally.
pub struct PackCursor {
    base: HostPtr,
    plan: Arc<Plan>,
    walker: Walker,
    produced: usize,
}

/// Streaming unpacker: consumes a packed byte stream and scatters it into a
/// non-contiguous layout.
pub struct UnpackCursor {
    base: HostPtr,
    plan: Arc<Plan>,
    walker: Walker,
    consumed: usize,
}

fn abs_offset(base: &HostPtr, rel: isize) -> usize {
    let off = base.offset() as isize + rel;
    assert!(
        off >= 0,
        "datatype segment at negative absolute offset {off} (buffer offset {}, segment {rel})",
        base.offset(),
    );
    off as usize
}

/// A batch of runs as absolute runs of the buffer at `base`.
fn host_runs(base: &HostPtr, (first, stride, len, count): Batch) -> Runs {
    // A negative stride puts the last run lowest: it must not fall before
    // the buffer either.
    abs_offset(base, first + (count as isize - 1) * stride);
    Runs {
        offset: abs_offset(base, first),
        stride,
        len,
        count,
    }
}

impl PackCursor {
    /// Create a packer over `segments` of the buffer at `base`.
    pub fn new(base: HostPtr, segments: Vec<Segment>) -> Self {
        Self::from_plan(base, Arc::new(Plan::from_segments(segments)))
    }

    /// Create a packer over a shared plan of the buffer at `base`.
    pub fn from_plan(base: HostPtr, plan: Arc<Plan>) -> Self {
        PackCursor {
            base,
            plan,
            walker: Walker::default(),
            produced: 0,
        }
    }

    /// Total bytes produced so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// True when every run has been packed.
    pub fn finished(&self) -> bool {
        self.produced == self.plan.total()
    }

    /// Pack the next `out.len()` bytes of the stream into `out`. Panics if
    /// fewer bytes remain.
    pub fn pack_into(&mut self, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        assert!(
            self.produced + out.len() <= self.plan.total(),
            "PackCursor: packed past the end of the datatype"
        );
        let base = &self.base;
        let mut rows = self.plan.rows(self.walker, out.len());
        let from = base
            .buf()
            .read_view(rows.clone().flat_map(|b| host_runs(base, b).iter()));
        let mut pos = 0;
        for batch in rows.by_ref() {
            let runs = host_runs(base, batch);
            from.gather(runs, &mut out[pos..pos + runs.bytes()]);
            pos += runs.bytes();
        }
        self.walker = rows.walker;
        self.produced += out.len();
    }

    /// Pack the entire remaining stream.
    pub fn pack_all(&mut self) -> Vec<u8> {
        let mut out = vec![0u8; self.plan.total() - self.produced];
        self.pack_into(&mut out);
        out
    }
}

impl UnpackCursor {
    /// Create an unpacker over `segments` of the buffer at `base`.
    pub fn new(base: HostPtr, segments: Vec<Segment>) -> Self {
        Self::from_plan(base, Arc::new(Plan::from_segments(segments)))
    }

    /// Create an unpacker over a shared plan of the buffer at `base`.
    pub fn from_plan(base: HostPtr, plan: Arc<Plan>) -> Self {
        UnpackCursor {
            base,
            plan,
            walker: Walker::default(),
            consumed: 0,
        }
    }

    /// Total bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// True when every run has been filled.
    pub fn finished(&self) -> bool {
        self.consumed == self.plan.total()
    }

    /// Scatter the next `data.len()` bytes of the packed stream. Panics if
    /// that exceeds the layout's remaining capacity.
    pub fn unpack_from(&mut self, data: &[u8]) {
        self.unpack(
            data.len(),
            || data,
            |to, data, runs, packed| to.scatter(runs, &data[packed]),
        );
    }

    /// Scatter the next `len` bytes of the packed stream straight from the
    /// host buffer at `src` (a staging vbuf), holding the user buffer's
    /// lock and then the vbuf's.
    pub fn unpack_from_host(&mut self, src: &HostPtr, len: usize) {
        assert_ne!(
            src.buf().id(),
            self.base.buf().id(),
            "UnpackCursor: source and destination are the same buffer"
        );
        let s = src.offset();
        self.unpack(
            len,
            || src.buf().read_view([(s, len)]),
            |to, from, runs, packed| to.scatter_from(runs, from, s + packed.start),
        );
    }

    /// Walk the next `len` packed bytes under one write view of the user
    /// buffer: `open` yields the source once the view is held, and `put`
    /// moves one batch of runs (absolute runs, packed range relative to
    /// this call).
    fn unpack<S>(
        &mut self,
        len: usize,
        open: impl FnOnce() -> S,
        put: impl Fn(&mut WriteView<'_>, &S, Runs, Range<usize>),
    ) {
        if len == 0 {
            return;
        }
        assert!(
            self.consumed + len <= self.plan.total(),
            "UnpackCursor: unpacked past the end of the datatype"
        );
        let base = &self.base;
        let mut rows = self.plan.rows(self.walker, len);
        let mut to = base
            .buf()
            .write_view(rows.clone().flat_map(|b| host_runs(base, b).iter()));
        let src = open();
        let mut pos = 0;
        for batch in rows.by_ref() {
            let runs = host_runs(base, batch);
            put(&mut to, &src, runs, pos..pos + runs.bytes());
            pos += runs.bytes();
        }
        self.walker = rows.walker;
        self.consumed += len;
    }
}

/// CPU memory/packing cost model (host side of the MPI library).
#[derive(Clone, Debug)]
pub struct CpuModel {
    /// Packing/copy bandwidth on one core, bytes per second.
    pub pack_bw_bps: f64,
    /// Fixed cost per touched segment (loop + address computation), ns.
    pub per_segment_ns: f64,
    /// Cost of one MPI call's bookkeeping, ns.
    pub mpi_call_ns: u64,
    /// Cost of handling one incoming packet in the progress engine, ns.
    pub handle_pkt_ns: u64,
}

impl CpuModel {
    /// Calibrated for the paper's Westmere-era Xeon host.
    pub fn westmere() -> Self {
        CpuModel {
            pack_bw_bps: 3.0e9,
            per_segment_ns: 4.0,
            mpi_call_ns: 200,
            handle_pkt_ns: 150,
        }
    }

    /// Time to pack/unpack `bytes` spread over `segments` runs.
    pub fn pack_time(&self, bytes: usize, segments: usize) -> sim_core::SimDur {
        let ns = bytes as f64 / self.pack_bw_bps * 1e9 + self.per_segment_ns * segments as f64;
        sim_core::SimDur::from_nanos(ns.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostmem::HostBuf;

    fn segs(v: &[(isize, usize)]) -> Vec<Segment> {
        v.iter()
            .map(|&(offset, len)| Segment { offset, len })
            .collect()
    }

    #[test]
    fn pack_all_gathers_segments_in_order() {
        let buf = HostBuf::from_vec((0u8..16).collect());
        let mut p = PackCursor::new(buf.base(), segs(&[(12, 2), (0, 3), (6, 1)]));
        assert_eq!(p.pack_all(), vec![12, 13, 0, 1, 2, 6]);
        assert!(p.finished());
        assert_eq!(p.produced(), 6);
    }

    #[test]
    fn chunked_pack_equals_whole_pack() {
        let buf = HostBuf::from_vec((0u8..64).collect());
        let s = segs(&[(1, 5), (10, 7), (30, 3), (40, 9)]);
        let mut whole = PackCursor::new(buf.base(), s.clone());
        let expect = whole.pack_all();
        let mut chunked = PackCursor::new(buf.base(), s);
        let mut got = Vec::new();
        for chunk_len in [3usize, 1, 7, 6, 4, 3] {
            let mut tmp = vec![0u8; chunk_len];
            chunked.pack_into(&mut tmp);
            got.extend_from_slice(&tmp);
        }
        assert_eq!(got, expect);
        assert!(chunked.finished());
    }

    #[test]
    fn unpack_round_trips_pack() {
        let src = HostBuf::from_vec((100u8..164).collect());
        let dst = HostBuf::alloc(64);
        let s = segs(&[(2, 6), (20, 10), (45, 5)]);
        let packed = PackCursor::new(src.base(), s.clone()).pack_all();
        let mut u = UnpackCursor::new(dst.base(), s.clone());
        // Unpack in uneven chunks.
        u.unpack_from(&packed[..7]);
        u.unpack_from(&packed[7..9]);
        u.unpack_from(&packed[9..]);
        assert!(u.finished());
        for seg in &s {
            let o = seg.offset as usize;
            assert_eq!(dst.read(o, seg.len), src.read(o, seg.len));
        }
        // Bytes outside segments stay zero.
        assert_eq!(dst.read(0, 2), vec![0, 0]);
    }

    #[test]
    fn base_offset_applies() {
        let buf = HostBuf::from_vec((0u8..32).collect());
        let mut p = PackCursor::new(buf.ptr(8), segs(&[(0, 2), (4, 2)]));
        assert_eq!(p.pack_all(), vec![8, 9, 12, 13]);
    }

    #[test]
    fn negative_segment_with_positive_base_is_ok() {
        let buf = HostBuf::from_vec((0u8..16).collect());
        let mut p = PackCursor::new(buf.ptr(8), segs(&[(-4, 2)]));
        assert_eq!(p.pack_all(), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "negative absolute offset")]
    fn negative_absolute_offset_panics() {
        let buf = HostBuf::alloc(16);
        let mut p = PackCursor::new(buf.base(), segs(&[(-4, 2)]));
        let _ = p.pack_all();
    }

    #[test]
    #[should_panic(expected = "same buffer")]
    fn unpacking_a_buffer_into_itself_panics() {
        let buf = HostBuf::alloc(16);
        let mut u = UnpackCursor::new(buf.base(), segs(&[(0, 4)]));
        u.unpack_from_host(&buf.ptr(8), 4);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn overpack_panics() {
        let buf = HostBuf::alloc(16);
        let mut p = PackCursor::new(buf.base(), segs(&[(0, 4)]));
        let mut out = vec![0u8; 5];
        p.pack_into(&mut out);
    }

    #[test]
    fn strided_chunks_match_whole_pack() {
        // 6 rows of 3 bytes at pitch 8 — a Strided2D plan. Chunk
        // boundaries that split a row must resume mid-run; results must
        // equal the whole pack either way.
        let src = HostBuf::from_vec((0u8..64).collect());
        let s = segs(&[(1, 3), (9, 3), (17, 3), (25, 3), (33, 3), (41, 3)]);
        let expect = PackCursor::new(src.base(), s.clone()).pack_all();
        assert_eq!(expect.len(), 18);
        for chunks in [vec![18], vec![4, 4, 4, 6], vec![1, 16, 1], vec![7, 11]] {
            let mut p = PackCursor::new(src.base(), s.clone());
            let mut got = Vec::new();
            for c in chunks {
                let mut tmp = vec![0u8; c];
                p.pack_into(&mut tmp);
                got.extend_from_slice(&tmp);
            }
            assert_eq!(got, expect);
            assert!(p.finished());

            let dst = HostBuf::alloc(64);
            let mut u = UnpackCursor::new(dst.base(), s.clone());
            u.unpack_from(&got[..5]);
            u.unpack_from(&got[5..]);
            assert!(u.finished());
            for seg in &s {
                let o = seg.offset as usize;
                assert_eq!(dst.read(o, seg.len), src.read(o, seg.len));
            }
        }
    }

    #[test]
    fn cpu_model_pack_time_scales() {
        let m = CpuModel::westmere();
        let small = m.pack_time(1024, 1);
        let big = m.pack_time(1 << 20, 1);
        assert!(big > small);
        // Segment-heavy layouts cost more than flat ones of the same size.
        assert!(m.pack_time(4096, 1024) > m.pack_time(4096, 1));
    }
}
