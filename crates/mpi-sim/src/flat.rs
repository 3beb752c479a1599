//! Committed datatype layouts.
//!
//! `MPI_Type_commit` canonicalizes the datatype tree into a stride
//! [`Program`] (see [`crate::program`]): nested `(count, stride)` blocks
//! whose runs are the typemap's byte segments in pack order, with runs
//! adjacent in memory merged. On top of a `(type, count)` program,
//! [`crate::plan::Plan`] classifies the pattern:
//!
//! * [`Layout::Contiguous`] — one run: the fast path everywhere.
//! * [`Layout::Strided2D`] — equal-length runs at a constant pitch wider
//!   than a run: exactly the patterns a single `cudaMemcpy2D` can
//!   pack/unpack. This classification is the hook the paper's GPU datatype
//!   offload relies on (a vector of N rows becomes one strided device copy
//!   instead of N separate transactions).
//! * [`Layout::Irregular`] — everything else (indexed/struct soups,
//!   overlapping rows): packed run-by-run (on the CPU) or with a gather
//!   kernel (on the GPU).
//!
//! [`FlatType::expanded`] and [`FlatType::classify`] keep the reference
//! semantics — a walk of the tree that materializes every segment — as the
//! oracle the stride programs are tested against; no communication path
//! calls them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::datatype::{Datatype, DtInner, DtKind};
use crate::plan::{Plan, PlanCache, PlanCacheStats};
use crate::program::Program;

/// One contiguous run of bytes at a (possibly negative) offset from the
/// buffer address.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Byte offset relative to the operation's buffer address.
    pub offset: isize,
    /// Run length in bytes.
    pub len: usize,
}

/// Classified layout of a (type, count) pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Layout {
    /// A single contiguous run.
    Contiguous {
        /// Offset of the run.
        offset: isize,
        /// Total bytes.
        len: usize,
    },
    /// `height` runs of `width` bytes, starting `pitch` bytes apart.
    Strided2D {
        /// Offset of the first run.
        first: isize,
        /// Bytes between run starts (> width: equal would be contiguous,
        /// smaller would overlap).
        pitch: usize,
        /// Run width in bytes.
        width: usize,
        /// Number of runs.
        height: usize,
    },
    /// No exploitable regularity.
    Irregular,
}

/// The committed form of a datatype: one element's stride program, plus
/// an LRU cache of per-count communication [`Plan`]s.
#[derive(Debug)]
pub struct FlatType {
    program: Arc<Program>,
    /// The datatype this was committed from, for the reference expansion.
    tree: Weak<DtInner>,
    size: usize,
    extent: isize,
    /// `(lo, hi)` byte span of one element's runs.
    span: (isize, isize),
    plans: PlanCache,
    builds: AtomicU64,
}

/// The stride program of one element of `dt`, built bottom-up in time
/// proportional to the tree (plus the runs of truly irregular parts).
fn program(dt: &Datatype) -> Program {
    match &dt.inner.kind {
        DtKind::Primitive { .. } => Program::seg(0, dt.size()),
        DtKind::Contiguous { count, child } => program(child).replicate(*count, child.extent()),
        DtKind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let cext = child.extent();
            program(child)
                .replicate(*blocklen, cext)
                .replicate(*count, stride * cext)
        }
        DtKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => program(child)
            .replicate(*blocklen, child.extent())
            .replicate(*count, *stride_bytes),
        DtKind::Indexed { blocks, child } => {
            let cext = child.extent();
            let elem = program(child);
            let mut out = Program::default();
            for &(blocklen, disp) in blocks {
                out.append(&elem.replicate(blocklen, cext), disp * cext);
            }
            out
        }
        DtKind::Hindexed { blocks, child } => {
            let elem = program(child);
            let mut out = Program::default();
            for &(blocklen, disp) in blocks {
                out.append(&elem.replicate(blocklen, child.extent()), disp);
            }
            out
        }
        DtKind::Struct { fields } => {
            let mut out = Program::default();
            for (blocklen, disp, child) in fields {
                out.append(&program(child).replicate(*blocklen, child.extent()), *disp);
            }
            out
        }
        DtKind::Resized { child, .. } => program(child),
    }
}

fn push_merged(out: &mut Vec<Segment>, seg: Segment) {
    if seg.len == 0 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.offset + last.len as isize == seg.offset {
            last.len += seg.len;
            return;
        }
    }
    out.push(seg);
}

/// Reference typemap walk: every primitive's bytes in pack order, merged
/// with the previous run when adjacent.
fn walk(dt: &Datatype, base: isize, out: &mut Vec<Segment>) {
    let mut run = |child: &Datatype, block: isize, blocklen: usize| {
        for j in 0..blocklen {
            walk(child, block + j as isize * child.extent(), out);
        }
    };
    match &dt.inner.kind {
        DtKind::Primitive { .. } => push_merged(
            out,
            Segment {
                offset: base,
                len: dt.size(),
            },
        ),
        DtKind::Contiguous { count, child } => run(child, base, *count),
        DtKind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            for i in 0..*count {
                run(
                    child,
                    base + i as isize * stride * child.extent(),
                    *blocklen,
                );
            }
        }
        DtKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            for i in 0..*count {
                run(child, base + i as isize * stride_bytes, *blocklen);
            }
        }
        DtKind::Indexed { blocks, child } => {
            for &(blocklen, disp) in blocks {
                run(child, base + disp * child.extent(), blocklen);
            }
        }
        DtKind::Hindexed { blocks, child } => {
            for &(blocklen, disp) in blocks {
                run(child, base + disp, blocklen);
            }
        }
        DtKind::Struct { fields } => {
            for (blocklen, disp, child) in fields {
                run(child, base + disp, *blocklen);
            }
        }
        DtKind::Resized { child, .. } => walk(child, base, out),
    }
}

impl FlatType {
    /// Canonicalize one element of `dt` into its stride program.
    pub fn build(dt: &Datatype) -> FlatType {
        let program = program(dt);
        let span = program.span().unwrap_or((0, 0));
        FlatType {
            program: Arc::new(program),
            tree: Arc::downgrade(&dt.inner),
            size: dt.size(),
            extent: dt.extent(),
            span,
            plans: PlanCache::default(),
            builds: AtomicU64::new(0),
        }
    }

    /// One element's stride program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub(crate) fn shared_program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Data bytes per element.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Extent per element.
    pub fn extent(&self) -> isize {
        self.extent
    }

    /// Total data bytes for `count` elements.
    pub fn total_bytes(&self, count: usize) -> usize {
        self.size * count
    }

    /// Reference expansion: the merged segments of `count` elements
    /// (element `i` shifted by `i * extent`), from a walk of the type tree
    /// that materializes every segment. This is the test oracle for stride
    /// programs; communication paths read [`FlatType::plan`] instead.
    /// Panics if the datatype has been dropped.
    pub fn expanded(&self, count: usize) -> Vec<Segment> {
        sim_core::instrument::global().record("flat_expand");
        let inner = self
            .tree
            .upgrade()
            .expect("reference expansion needs the live datatype");
        let mut elem = Vec::new();
        walk(&Datatype { inner }, 0, &mut elem);
        let mut out = Vec::with_capacity(elem.len() * count);
        for i in 0..count {
            let shift = i as isize * self.extent;
            for s in &elem {
                push_merged(
                    &mut out,
                    Segment {
                        offset: s.offset + shift,
                        len: s.len,
                    },
                );
            }
        }
        out
    }

    /// Classify the layout of `count` elements.
    pub fn layout(&self, count: usize) -> Layout {
        self.plan(count).layout().clone()
    }

    /// The cached communication plan for `count` elements: the replicated
    /// stride program with its prefix sums and classifications, built at
    /// most once per cached count and shared via `Arc`.
    pub fn plan(&self, count: usize) -> Arc<Plan> {
        self.plans.get_or_build(count, || {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Plan::build(self, count)
        })
    }

    /// This type's plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// How many plans this type has built (plan-cache misses): the
    /// per-message datatype processing the cache keeps off the steady
    /// state.
    pub fn expand_count(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Reference classification of an explicit segment list (the oracle
    /// for [`Plan::layout`]).
    pub fn classify(segs: &[Segment]) -> Layout {
        match segs {
            [] => Layout::Contiguous { offset: 0, len: 0 },
            [s] => Layout::Contiguous {
                offset: s.offset,
                len: s.len,
            },
            [first, second, rest @ ..] => {
                let width = first.len;
                if second.len != width || second.offset - first.offset <= width as isize {
                    return Layout::Irregular;
                }
                let pitch = (second.offset - first.offset) as usize;
                let mut prev = second.offset;
                for s in rest {
                    if s.len != width || s.offset - prev != pitch as isize {
                        return Layout::Irregular;
                    }
                    prev = s.offset;
                }
                Layout::Strided2D {
                    first: first.offset,
                    pitch,
                    width,
                    height: segs.len(),
                }
            }
        }
    }

    /// Smallest and one-past-largest byte offsets touched by `count`
    /// elements (used for buffer bounds checking). Returns `(0, 0)` for
    /// empty types.
    pub fn byte_range(&self, count: usize) -> (isize, isize) {
        if self.size == 0 || count == 0 {
            return (0, 0);
        }
        let (lo, hi) = self.span;
        let last_shift = (count as isize - 1) * self.extent;
        (lo.min(lo + last_shift), hi.max(hi + last_shift))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::SubarrayOrder;

    fn flat(dt: &Datatype) -> FlatType {
        FlatType::build(dt)
    }

    /// The runs of one element's program.
    fn segs(f: &FlatType) -> Vec<Segment> {
        f.program().segments().collect()
    }

    #[test]
    fn primitive_is_one_segment() {
        let f = flat(&Datatype::float());
        assert_eq!(segs(&f), &[Segment { offset: 0, len: 4 }]);
        assert_eq!(f.layout(1), Layout::Contiguous { offset: 0, len: 4 });
    }

    #[test]
    fn contiguous_merges_into_one_run() {
        let f = flat(&Datatype::contiguous(16, &Datatype::double()));
        assert_eq!(segs(&f).len(), 1);
        assert_eq!(segs(&f)[0].len, 128);
    }

    #[test]
    fn vector_flattens_to_strided_runs() {
        // 4 blocks of 1 float, stride 3 floats.
        let f = flat(&Datatype::vector(4, 1, 3, &Datatype::float()));
        assert_eq!(segs(&f).len(), 4);
        assert_eq!(
            f.layout(1),
            Layout::Strided2D {
                first: 0,
                pitch: 12,
                width: 4,
                height: 4
            }
        );
    }

    #[test]
    fn vector_blocks_merge_within_block() {
        // blocklen 2 floats per block -> 8-byte runs.
        let f = flat(&Datatype::vector(3, 2, 5, &Datatype::float()));
        assert_eq!(segs(&f).len(), 3);
        assert!(segs(&f).iter().all(|s| s.len == 8));
    }

    #[test]
    fn dense_vector_is_contiguous() {
        // stride == blocklen: no holes.
        let f = flat(&Datatype::vector(4, 2, 2, &Datatype::int()));
        assert_eq!(segs(&f).len(), 1);
        assert_eq!(f.layout(1), Layout::Contiguous { offset: 0, len: 32 });
    }

    #[test]
    fn count_replication_extends_strided_pattern() {
        // One element = 2 strided rows; the vector's extent (ub-lb = 3
        // strides' span) does NOT continue the arithmetic sequence, so
        // count>1 of this type is irregular... unless resized. Use the
        // classic column type: vector resized to one row.
        let col = Datatype::vector(4, 1, 6, &Datatype::float()); // 4 rows of 6 floats
        let col = Datatype::resized(&col, 0, 4); // extent = one float
        col.commit();
        let f = col.flat();
        // Two columns side by side is NOT a single 2D pattern (offsets
        // 0,24,48,72 then 4,28,52,76 — the sequence restarts), so count=2
        // must classify as Irregular.
        assert_eq!(f.layout(2), Layout::Irregular);
        // A single column is perfectly strided.
        assert_eq!(
            f.layout(1),
            Layout::Strided2D {
                first: 0,
                pitch: 24,
                width: 4,
                height: 4
            }
        );
    }

    #[test]
    fn count_replication_merges_when_contiguous() {
        let dt = Datatype::contiguous(4, &Datatype::float());
        let f = flat(&dt);
        let segs = f.expanded(8);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 128);
        assert_eq!(
            f.layout(8),
            Layout::Contiguous {
                offset: 0,
                len: 128
            }
        );
    }

    #[test]
    fn vector_count_replication_continues_pitch() {
        // Full-extent vector: count replication continues the pattern when
        // the element extent equals count*stride... Standard halo column:
        // hvector with explicit full-row extent.
        let elem = Datatype::hvector(4, 1, 24, &Datatype::float());
        let elem = Datatype::resized(&elem, 0, 96);
        elem.commit();
        let f = elem.flat();
        assert_eq!(
            f.layout(3),
            Layout::Strided2D {
                first: 0,
                pitch: 24,
                width: 4,
                height: 12
            }
        );
    }

    #[test]
    fn indexed_is_irregular() {
        let f = flat(&Datatype::indexed(
            &[(1, 0), (2, 3), (1, 9)],
            &Datatype::int(),
        ));
        assert_eq!(f.layout(1), Layout::Irregular);
        assert_eq!(f.total_bytes(1), 16);
    }

    #[test]
    fn struct_layout_flattens_in_field_order() {
        let t = Datatype::create_struct(&[(2, 16, Datatype::int()), (1, 0, Datatype::double())]);
        let f = flat(&t);
        // Pack order follows the typemap (field order), not address order.
        assert_eq!(
            segs(&f),
            &[
                Segment { offset: 16, len: 8 },
                Segment { offset: 0, len: 8 },
            ]
        );
    }

    #[test]
    fn subarray_2d_layout_is_strided() {
        let t = Datatype::subarray(
            &[8, 10],
            &[3, 4],
            &[2, 5],
            SubarrayOrder::C,
            &Datatype::float(),
        );
        t.commit();
        let f = t.flat();
        assert_eq!(
            f.layout(1),
            Layout::Strided2D {
                first: (2 * 10 + 5) * 4,
                pitch: 40,
                width: 16,
                height: 3
            }
        );
    }

    #[test]
    fn byte_range_covers_all_elements() {
        let t = Datatype::vector(2, 1, 4, &Datatype::float());
        t.commit();
        let f = t.flat();
        // one element: offsets 0..4 and 16..20 → (0, 20); extent 20.
        assert_eq!(f.byte_range(1), (0, 20));
        assert_eq!(f.byte_range(3), (0, 60));
        assert_eq!(f.byte_range(0), (0, 0));
    }

    #[test]
    fn negative_offsets_survive_flattening() {
        let t = Datatype::hindexed(&[(1, -8), (1, 4)], &Datatype::int());
        let f = flat(&t);
        assert_eq!(segs(&f)[0].offset, -8);
        assert_eq!(f.byte_range(1).0, -8);
    }

    #[test]
    fn classify_rejects_descending_offsets() {
        let segs = [
            Segment {
                offset: 100,
                len: 4,
            },
            Segment { offset: 0, len: 4 },
            Segment { offset: 50, len: 4 },
        ];
        assert_eq!(FlatType::classify(&segs), Layout::Irregular);
    }

    #[test]
    fn overlapping_rows_are_not_strided() {
        // Blocks of 8 bytes every 4: a legal send type whose rows overlap.
        let t = Datatype::hvector(3, 2, 4, &Datatype::float());
        t.commit();
        assert_eq!(t.flat().layout(1), Layout::Irregular);
        assert_eq!(FlatType::classify(&t.flat().expanded(1)), Layout::Irregular);
    }

    #[test]
    fn empty_type_flattens_to_nothing() {
        let f = flat(&Datatype::vector(0, 1, 1, &Datatype::float()));
        assert!(segs(&f).is_empty());
        assert_eq!(f.layout(5), Layout::Contiguous { offset: 0, len: 0 });
    }
}
