//! # hostmem — simulated host (CPU) memory regions
//!
//! In the simulated cluster every node's host memory lives in the test
//! process's address space. A [`HostBuf`] is one allocation (a user buffer, a
//! registered staging buffer, an MPI bounce buffer); a [`HostPtr`] is a
//! cheap, cloneable "address" into one. Both the GPU simulator (PCIe DMA)
//! and the InfiniBand simulator (NIC DMA) move bytes between these regions,
//! so the crate sits below both.
//!
//! Buffers carry a process-global unique id used as a registration key by
//! the verbs layer, and a *pinned* flag mirroring page-locked host memory:
//! RDMA requires registration, and registration pins.
//!
//! # Lock order
//!
//! Each buffer's bytes sit behind one lock. A datatype mover takes each
//! buffer's lock once per call, through a [`ReadView`] or [`WriteView`],
//! and walks all of its runs under it. Movers that copy between two
//! buffers without an intermediate vector hold two locks, always the
//! **destination's before the source's**:
//!
//! * [`HostBuf::copy`] between distinct buffers;
//! * [`HostPtr::write_with`] when its closure reads another buffer: a CPU
//!   pack cursor filling a staging buffer holds the vbuf, then the user
//!   buffer;
//! * a CPU unpack cursor draining a staging buffer holds the user buffer,
//!   then the vbuf;
//! * a NIC scatter/gather write holds the target MR's buffer, then the
//!   local source buffer.
//!
//! A mover never holds a buffer's lock while taking it again. Device
//! movers in `gpu-sim` take the device arena's lock before any host
//! buffer's.

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::lock::{Mutex, MutexGuard};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Zero-filled backing storage that materializes on first write.
///
/// MPI-style workloads register large pools of bounce buffers at init and
/// touch only a few of them; at 1k+ simulated ranks the eager `vec![0; len]`
/// per buffer dominated wall-clock (tens of GB faulted, zeroed and unmapped
/// per run). Reads of an unmaterialized buffer see zeros without
/// allocating; the vector exists only once something is written.
struct Storage {
    len: usize,
    vec: Option<Vec<u8>>,
}

impl Storage {
    fn materialize(&mut self) -> &mut Vec<u8> {
        let len = self.len;
        self.vec.get_or_insert_with(|| vec![0u8; len])
    }
}

struct Inner {
    id: u64,
    data: Mutex<Storage>,
    pinned: AtomicBool,
}

/// One host memory allocation. Clones are shallow (same storage).
#[derive(Clone)]
pub struct HostBuf {
    inner: Arc<Inner>,
}

impl fmt::Debug for HostBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostBuf#{}[{}B]", self.inner.id, self.len())
    }
}

impl HostBuf {
    /// Allocate a zero-filled buffer of `len` bytes. The backing memory is
    /// not touched until the first write (see [`Storage`]), so large pools
    /// of rarely-used staging buffers cost nothing but address-space
    /// bookkeeping.
    pub fn alloc(len: usize) -> Self {
        HostBuf {
            inner: Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: Mutex::new(Storage { len, vec: None }),
                pinned: AtomicBool::new(false),
            }),
        }
    }

    /// Wrap an existing byte vector.
    pub fn from_vec(v: Vec<u8>) -> Self {
        HostBuf {
            inner: Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: Mutex::new(Storage {
                    len: v.len(),
                    vec: Some(v),
                }),
                pinned: AtomicBool::new(false),
            }),
        }
    }

    /// The buffer's process-global unique id (registration key).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.data.lock().len
    }

    /// Whether the backing vector has been materialized by a write (for
    /// diagnostics and the laziness regression test).
    pub fn is_materialized(&self) -> bool {
        self.inner.data.lock().vec.is_some()
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark as page-locked (done by memory registration).
    pub fn pin(&self) {
        self.inner.pinned.store(true, Ordering::Relaxed);
    }

    /// Whether the buffer is page-locked.
    pub fn is_pinned(&self) -> bool {
        self.inner.pinned.load(Ordering::Relaxed)
    }

    /// A pointer to byte `offset`.
    pub fn ptr(&self, offset: usize) -> HostPtr {
        assert!(
            offset <= self.len(),
            "HostBuf::ptr: offset {offset} out of bounds (len {})",
            self.len()
        );
        HostPtr {
            buf: self.clone(),
            offset,
        }
    }

    /// A pointer to the start of the buffer.
    pub fn base(&self) -> HostPtr {
        self.ptr(0)
    }

    /// Lock the buffer for reading the byte ranges `runs`, each `(offset,
    /// len)`. With the sanitizer on, every run is reported as a read
    /// before the lock is taken, so a caller that names its datatype's
    /// runs keeps per-run precision while paying for one lock. The view
    /// itself only bounds-checks; `runs` is not consumed when the
    /// sanitizer is off.
    pub fn read_view(&self, runs: impl IntoIterator<Item = (usize, usize)>) -> ReadView<'_> {
        self.report(runs, false);
        ReadView {
            data: self.inner.data.lock(),
        }
    }

    /// Lock the buffer for writing the byte ranges `runs`, reported like
    /// [`HostBuf::read_view`]'s. The buffer materializes on the view's
    /// first write.
    pub fn write_view(&self, runs: impl IntoIterator<Item = (usize, usize)>) -> WriteView<'_> {
        self.report(runs, true);
        WriteView {
            data: self.inner.data.lock(),
        }
    }

    fn report(&self, runs: impl IntoIterator<Item = (usize, usize)>, write: bool) {
        if sim_core::san::enabled() {
            for (offset, len) in runs {
                sim_core::san::on_host_access(self.inner.id, offset, len, write);
            }
        }
    }

    /// Copy `out.len()` bytes starting at `offset` into `out`.
    pub fn read_into(&self, offset: usize, out: &mut [u8]) {
        self.read_view([(offset, out.len())]).read_into(offset, out)
    }

    /// Read `len` bytes starting at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_into(offset, &mut v);
        v
    }

    /// Write `src` starting at `offset`.
    pub fn write(&self, offset: usize, src: &[u8]) {
        self.write_view([(offset, src.len())]).write(offset, src)
    }

    /// Gather `height` rows of `width` bytes whose starts are `pitch` bytes
    /// apart (first row at `offset`) into the contiguous `out`, under a
    /// single lock acquisition. `out.len()` must equal `width * height`.
    /// Each row is reported to the sanitizer individually, so this is as
    /// precise as `height` separate [`HostBuf::read_into`] calls but much
    /// cheaper.
    pub fn read_strided(
        &self,
        offset: usize,
        pitch: usize,
        width: usize,
        height: usize,
        out: &mut [u8],
    ) {
        let runs = Runs {
            offset,
            stride: pitch as isize,
            len: width,
            count: height,
        };
        self.read_view(runs.iter()).gather(runs, out);
    }

    /// Run `f` over the raw storage (single lock acquisition; used by bulk
    /// operations like strided copies). Conservatively counts as a write of
    /// the whole buffer for the sanitizer.
    pub fn with_slice<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        sim_core::san::on_host_access(self.inner.id, 0, self.len(), true);
        f(self.inner.data.lock().materialize())
    }

    /// Byte-for-byte copy between host buffers (may be the same buffer as
    /// long as the ranges do not overlap). Distinct buffers are copied
    /// slice to slice under both locks, destination first (see the lock
    /// order in the crate docs), with no intermediate vector.
    pub fn copy(src: &HostPtr, dst: &HostPtr, len: usize) {
        let (s, d, l) = (src.offset, dst.offset, len);
        if Arc::ptr_eq(&src.buf.inner, &dst.buf.inner) {
            let mut data = src.buf.inner.data.lock();
            assert!(
                s + l <= data.len && d + l <= data.len,
                "HostBuf::copy: out of bounds"
            );
            assert!(
                s + l <= d || d + l <= s || l == 0,
                "HostBuf::copy: overlapping ranges within one buffer"
            );
            data.materialize().copy_within(s..s + l, d);
            return;
        }
        let mut to = dst.buf.write_view([(d, l)]);
        let from = src.buf.read_view([(s, l)]);
        to.copy_from(d, &from, s, l);
    }
}

impl Storage {
    /// `offset..offset + len`, or a panic naming `what` if that leaves the
    /// buffer.
    fn range(&self, what: &str, offset: usize, len: usize) -> std::ops::Range<usize> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len => offset..end,
            _ => panic!(
                "{what}: range {offset}..+{len} out of bounds (len {})",
                self.len
            ),
        }
    }
}

/// `count` runs of `len` bytes in one buffer, run `r` starting at byte
/// `offset + r * stride`. The stride may be negative or smaller than
/// `len` (overlapping runs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Runs {
    /// Offset of the first run.
    pub offset: usize,
    /// Distance between consecutive run starts, bytes.
    pub stride: isize,
    /// Bytes per run.
    pub len: usize,
    /// Number of runs.
    pub count: usize,
}

impl Runs {
    /// Total bytes the runs hold.
    pub fn bytes(&self) -> usize {
        self.len * self.count
    }

    /// Each run as `(offset, len)`.
    pub fn iter(self) -> impl Iterator<Item = (usize, usize)> {
        (0..self.count).map(move |r| (self.at(r), self.len))
    }

    fn at(&self, r: usize) -> usize {
        (self.offset as isize + r as isize * self.stride) as usize
    }

    /// Panic naming `what` unless every run lies within `buf_len` bytes and
    /// `packed` holds exactly their bytes; false if there are none.
    fn check(&self, what: &str, buf_len: usize, packed: usize) -> bool {
        assert_eq!(
            packed,
            self.bytes(),
            "{what}: contiguous side is {packed} bytes for {self:?}"
        );
        if self.bytes() == 0 {
            return false;
        }
        let last = self.offset as isize + (self.count - 1) as isize * self.stride;
        let (lo, hi) = (
            last.min(self.offset as isize),
            last.max(self.offset as isize),
        );
        assert!(
            lo >= 0 && hi as usize + self.len <= buf_len,
            "{what}: {} runs of {}B at stride {} from {} exceed buffer (len {buf_len})",
            self.count,
            self.len,
            self.stride,
            self.offset
        );
        true
    }
}

/// Copy run `r` of `src` (at `s + r * ss`) to run `r` of `dst` (at
/// `d + r * ds`) for `count` runs of `len` bytes, in order. Narrow
/// power-of-two runs get fixed-width copies, which compile to plain loads
/// and stores instead of a `memcpy` call per run; runs packed on both
/// sides are one bulk copy. Panics if a run leaves its slice.
///
/// Inlined so that a single run, the common batch of an irregular
/// layout, costs one bounds check and a `memcpy`.
#[inline]
pub fn copy_runs(
    dst: &mut [u8],
    (d, ds): (usize, isize),
    src: &[u8],
    (s, ss): (usize, isize),
    len: usize,
    count: usize,
) {
    if count == 1 || (ds == len as isize && ss == len as isize) {
        let n = len * count;
        dst[d..d + n].copy_from_slice(&src[s..s + n]);
    } else {
        copy_strided(dst, (d, ds), src, (s, ss), len, count);
    }
}

/// The strided case of [`copy_runs`].
fn copy_strided(
    dst: &mut [u8],
    (d, ds): (usize, isize),
    src: &[u8],
    (s, ss): (usize, isize),
    len: usize,
    count: usize,
) {
    fn fixed<const W: usize>(
        dst: &mut [u8],
        (d, ds): (usize, isize),
        src: &[u8],
        (s, ss): (usize, isize),
        count: usize,
    ) {
        for r in 0..count as isize {
            let (d, s) = (
                (d as isize + r * ds) as usize,
                (s as isize + r * ss) as usize,
            );
            dst[d..d + W].copy_from_slice(&src[s..s + W]);
        }
    }
    match len {
        1 => fixed::<1>(dst, (d, ds), src, (s, ss), count),
        2 => fixed::<2>(dst, (d, ds), src, (s, ss), count),
        4 => fixed::<4>(dst, (d, ds), src, (s, ss), count),
        8 => fixed::<8>(dst, (d, ds), src, (s, ss), count),
        16 => fixed::<16>(dst, (d, ds), src, (s, ss), count),
        _ => {
            for r in 0..count as isize {
                let (d, s) = (
                    (d as isize + r * ds) as usize,
                    (s as isize + r * ss) as usize,
                );
                dst[d..d + len].copy_from_slice(&src[s..s + len]);
            }
        }
    }
}

/// A host buffer locked for reading (see [`HostBuf::read_view`]). A
/// buffer that was never written reads as zeros and stays unmaterialized.
pub struct ReadView<'a> {
    data: MutexGuard<'a, Storage>,
}

impl ReadView<'_> {
    /// The `len` bytes at `offset`, or `None` if the buffer was never
    /// written (they are all zero). Panics if the range leaves the buffer.
    pub fn get(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let r = self.data.range("HostBuf read", offset, len);
        self.data.vec.as_ref().map(|v| &v[r])
    }

    /// Copy `out.len()` bytes starting at `offset` into `out`.
    pub fn read_into(&self, offset: usize, out: &mut [u8]) {
        match self.get(offset, out.len()) {
            Some(bytes) => out.copy_from_slice(bytes),
            None => out.fill(0),
        }
    }

    /// Gather `runs` into the contiguous `out` (exactly their bytes).
    pub fn gather(&self, runs: Runs, out: &mut [u8]) {
        if !runs.check("HostBuf gather", self.data.len, out.len()) {
            return;
        }
        match &self.data.vec {
            Some(v) => copy_runs(
                out,
                (0, runs.len as isize),
                v,
                (runs.offset, runs.stride),
                runs.len,
                runs.count,
            ),
            None => out.fill(0),
        }
    }
}

/// A host buffer locked for writing (see [`HostBuf::write_view`]).
pub struct WriteView<'a> {
    data: MutexGuard<'a, Storage>,
}

impl WriteView<'_> {
    /// The `len` bytes at `offset`, writable in place. Materializes the
    /// buffer; panics if the range leaves it.
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        let r = self.data.range("HostBuf write", offset, len);
        &mut self.data.materialize()[r]
    }

    /// Write `src` starting at `offset`.
    pub fn write(&mut self, offset: usize, src: &[u8]) {
        self.slice_mut(offset, src.len()).copy_from_slice(src);
    }

    /// Scatter the contiguous `src` (exactly their bytes) into `runs`, in
    /// order: where runs overlap, the later one's bytes stay.
    pub fn scatter(&mut self, runs: Runs, src: &[u8]) {
        if !runs.check("HostBuf scatter", self.data.len, src.len()) {
            return;
        }
        copy_runs(
            self.data.materialize(),
            (runs.offset, runs.stride),
            src,
            (0, runs.len as isize),
            runs.len,
            runs.count,
        );
    }

    /// [`WriteView::scatter`] from the contiguous bytes at `from` of
    /// another locked buffer.
    pub fn scatter_from(&mut self, runs: Runs, src: &ReadView<'_>, from: usize) {
        match src.get(from, runs.bytes()) {
            Some(bytes) => self.scatter(runs, bytes),
            None if runs.check("HostBuf scatter", self.data.len, runs.bytes()) => {
                let v = self.data.materialize();
                for (at, len) in runs.iter() {
                    v[at..at + len].fill(0);
                }
            }
            None => {}
        }
    }

    /// Copy `len` bytes at `from` of another locked buffer to `offset`.
    pub fn copy_from(&mut self, offset: usize, src: &ReadView<'_>, from: usize, len: usize) {
        let bytes = src.get(from, len);
        let out = self.slice_mut(offset, len);
        match bytes {
            Some(b) => out.copy_from_slice(b),
            None => out.fill(0),
        }
    }
}

/// A cheap cloneable address inside a [`HostBuf`].
#[derive(Clone)]
pub struct HostPtr {
    buf: HostBuf,
    offset: usize,
}

impl fmt::Debug for HostPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostPtr#{}+{}", self.buf.id(), self.offset)
    }
}

impl HostPtr {
    /// The underlying buffer.
    pub fn buf(&self) -> &HostBuf {
        &self.buf
    }

    /// Byte offset within the buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// A pointer `bytes` further into the buffer.
    pub fn add(&self, bytes: usize) -> HostPtr {
        self.buf.ptr(self.offset + bytes)
    }

    /// Bytes remaining between this pointer and the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.offset
    }

    /// Read `len` bytes at this address.
    pub fn read(&self, len: usize) -> Vec<u8> {
        self.buf.read(self.offset, len)
    }

    /// Write `src` at this address.
    pub fn write(&self, src: &[u8]) {
        self.buf.write(self.offset, src)
    }

    /// Fill the `len` bytes at this address in place: `f` gets them as one
    /// writable slice under the buffer's lock, so a producer (a packer
    /// filling a staging buffer) needs no intermediate vector. Reported to
    /// the sanitizer as a write of exactly that range. `f` may read other
    /// buffers (their locks nest inside this one, see the crate docs) but
    /// must not touch this one.
    pub fn write_with<R>(&self, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let off = self.offset;
        f(self.buf.write_view([(off, len)]).slice_mut(off, len))
    }
}

/// Fixed-size scalars that can live in simulated memory (host or device).
///
/// All storage is little-endian, matching the simulated homogeneous cluster.
pub trait Scalar: Copy + PartialEq + fmt::Debug + Send + 'static {
    /// Size of the encoded scalar in bytes.
    const SIZE: usize;
    /// Encode into `out` (exactly `SIZE` bytes).
    fn write_le(self, out: &mut [u8]);
    /// Decode from `inp` (exactly `SIZE` bytes).
    fn read_le(inp: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn read_le(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp.try_into().expect("Scalar::read_le: wrong length"))
            }
        }
    )*};
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Encode a slice of scalars into bytes.
pub fn scalars_to_bytes<T: Scalar>(vals: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; vals.len() * T::SIZE];
    for (i, v) in vals.iter().enumerate() {
        v.write_le(&mut out[i * T::SIZE..(i + 1) * T::SIZE]);
    }
    out
}

/// Decode bytes into scalars. Panics if `bytes` is not a whole number of
/// scalars.
pub fn bytes_to_scalars<T: Scalar>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(
        bytes.len() % T::SIZE,
        0,
        "bytes_to_scalars: {} is not a multiple of {}",
        bytes.len(),
        T::SIZE
    );
    bytes.chunks_exact(T::SIZE).map(|c| T::read_le(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorshift::XorShift64;

    #[test]
    fn alloc_is_zeroed() {
        let b = HostBuf::alloc(16);
        assert_eq!(b.read(0, 16), vec![0u8; 16]);
        assert_eq!(b.len(), 16);
        assert!(!b.is_empty());
        assert!(HostBuf::alloc(0).is_empty());
    }

    #[test]
    fn alloc_is_lazy_until_first_write() {
        let b = HostBuf::alloc(1 << 20);
        assert!(!b.is_materialized(), "fresh buffer must not allocate");
        assert_eq!(b.read(1 << 19, 4), vec![0u8; 4]);
        let mut out = vec![0xffu8; 8];
        b.read_strided(0, 16, 4, 2, &mut out);
        assert_eq!(out, vec![0u8; 8]);
        assert!(!b.is_materialized(), "reads see zeros without allocating");
        b.write(7, &[1]);
        assert!(b.is_materialized());
        assert_eq!(b.read(6, 3), vec![0, 1, 0]);
        assert!(HostBuf::from_vec(vec![1, 2]).is_materialized());
    }

    #[test]
    fn ids_are_unique() {
        let a = HostBuf::alloc(1);
        let b = HostBuf::alloc(1);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), a.clone().id(), "clones share identity");
    }

    #[test]
    fn read_write_round_trip() {
        let b = HostBuf::alloc(8);
        b.write(2, &[1, 2, 3]);
        assert_eq!(b.read(0, 8), vec![0, 0, 1, 2, 3, 0, 0, 0]);
        assert_eq!(b.ptr(2).read(3), vec![1, 2, 3]);
    }

    #[test]
    fn ptr_arithmetic() {
        let b = HostBuf::alloc(10);
        let p = b.ptr(4);
        assert_eq!(p.offset(), 4);
        assert_eq!(p.add(3).offset(), 7);
        assert_eq!(p.remaining(), 6);
        p.write(&[9]);
        assert_eq!(b.read(4, 1), vec![9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        HostBuf::alloc(4).write(2, &[0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_ptr_panics() {
        let _ = HostBuf::alloc(4).ptr(5);
    }

    #[test]
    fn copy_between_buffers() {
        let a = HostBuf::from_vec(vec![1, 2, 3, 4]);
        let b = HostBuf::alloc(4);
        HostBuf::copy(&a.ptr(1), &b.ptr(2), 2);
        assert_eq!(b.read(0, 4), vec![0, 0, 2, 3]);
    }

    #[test]
    fn copy_within_one_buffer_disjoint() {
        let a = HostBuf::from_vec(vec![1, 2, 3, 4, 5, 6]);
        HostBuf::copy(&a.ptr(0), &a.ptr(3), 3);
        assert_eq!(a.read(0, 6), vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn copy_overlap_panics() {
        let a = HostBuf::alloc(8);
        HostBuf::copy(&a.ptr(0), &a.ptr(2), 4);
    }

    #[test]
    fn strided_read_gathers_rows() {
        let b = HostBuf::from_vec((0u8..24).collect());
        // 3 rows of 2 bytes, 8 apart, starting at 1: {1,2}, {9,10}, {17,18}.
        let mut out = vec![0u8; 6];
        b.read_strided(1, 8, 2, 3, &mut out);
        assert_eq!(out, vec![1, 2, 9, 10, 17, 18]);
        // Degenerate shapes are no-ops.
        b.read_strided(0, 8, 0, 3, &mut []);
        b.read_strided(0, 8, 2, 0, &mut []);
    }

    #[test]
    #[should_panic(expected = "exceed buffer")]
    fn strided_read_oob_panics() {
        let b = HostBuf::alloc(16);
        let mut out = vec![0u8; 6];
        b.read_strided(0, 8, 2, 3, &mut out);
    }

    #[test]
    fn views_move_many_runs_under_one_lock() {
        let a = HostBuf::from_vec((0u8..32).collect());
        let b = HostBuf::alloc(32);
        {
            let mut to = b.write_view([(0, 2), (10, 3)]);
            let from = a.read_view([(4, 5)]);
            to.copy_from(0, &from, 4, 2);
            to.copy_from(10, &from, 6, 3);
            to.write(20, &[9, 9]);
            assert_eq!(from.get(30, 2), Some(&[30u8, 31][..]));
        }
        assert_eq!(b.read(0, 3), vec![4, 5, 0]);
        assert_eq!(b.read(10, 3), vec![6, 7, 8]);
        assert_eq!(b.read(20, 2), vec![9, 9]);
    }

    #[test]
    fn views_of_a_never_written_buffer_read_zeros() {
        let fresh = HostBuf::alloc(64);
        let dst = HostBuf::from_vec(vec![0xaa; 8]);
        {
            let from = fresh.read_view([(8, 8)]);
            assert_eq!(from.get(8, 8), None, "zeros are not materialized");
            let mut out = [0xffu8; 4];
            from.read_into(60, &mut out);
            assert_eq!(out, [0; 4]);
            dst.write_view([(2, 4)]).copy_from(2, &from, 40, 4);
        }
        assert!(!fresh.is_materialized());
        assert_eq!(dst.read(0, 8), vec![0xaa, 0xaa, 0, 0, 0, 0, 0xaa, 0xaa]);
        // A write view that writes nothing leaves its buffer lazy.
        drop(fresh.write_view([]));
        assert!(!fresh.is_materialized());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_view_oob_panics() {
        let b = HostBuf::alloc(16);
        let _ = b.read_view([]).get(12, 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_view_oob_panics() {
        let b = HostBuf::alloc(16);
        b.write_view([]).write(usize::MAX, &[1]);
    }

    #[test]
    fn pinning() {
        let b = HostBuf::alloc(1);
        assert!(!b.is_pinned());
        b.pin();
        assert!(b.is_pinned());
    }

    #[test]
    fn scalar_round_trip_f32() {
        let vals = [1.5f32, -2.25, 0.0, f32::MAX];
        let bytes = scalars_to_bytes(&vals);
        assert_eq!(bytes.len(), 16);
        assert_eq!(bytes_to_scalars::<f32>(&bytes), vals);
    }

    #[test]
    fn scalar_round_trip_f64_u32() {
        let vals = [1.5f64, -0.125];
        assert_eq!(bytes_to_scalars::<f64>(&scalars_to_bytes(&vals)), vals);
        let ints = [7u32, 0xdead_beef];
        assert_eq!(bytes_to_scalars::<u32>(&scalars_to_bytes(&ints)), ints);
    }

    // Deterministic randomized coverage (replaces the former proptest
    // suite; seeds are fixed so every run exercises identical cases).

    #[test]
    fn random_write_then_read() {
        let mut rng = XorShift64::new(0xB0B1);
        for _ in 0..64 {
            let len = rng.gen_range(0, 256);
            let pad = rng.gen_range(0, 32);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let b = HostBuf::alloc(len + pad);
            b.write(pad / 2, &data);
            assert_eq!(b.read(pad / 2, len), data);
        }
    }

    #[test]
    fn random_scalars_round_trip() {
        let mut rng = XorShift64::new(0xB0B2);
        for _ in 0..64 {
            let n = rng.gen_range(0, 64);
            let vals: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
            assert_eq!(bytes_to_scalars::<i64>(&scalars_to_bytes(&vals)), vals);
        }
    }

    #[test]
    fn random_copy_is_exact() {
        let mut rng = XorShift64::new(0xB0B3);
        for _ in 0..64 {
            let len = rng.gen_range(1, 128);
            let doff = rng.gen_range(0, 64);
            let mut src = vec![0u8; len];
            rng.fill_bytes(&mut src);
            let a = HostBuf::from_vec(src.clone());
            let b = HostBuf::alloc(len + doff);
            HostBuf::copy(&a.base(), &b.ptr(doff), len);
            assert_eq!(b.read(doff, len), src);
        }
    }
}
