//! Committed communication plans.
//!
//! A [`Plan`] is everything the library needs to move one `(datatype,
//! count)` message: the stride [`Program`] of `count` elements, packed-byte
//! prefix sums per block, and its [`Layout`] and [`Canonical`]
//! classifications. Building one replicates the element program — an
//! outer dimension for any type with a one-block program — so its cost no
//! longer grows with the number of rows. Committed types still carry a
//! small LRU [`PlanCache`] keyed by `count`, and the steady-state send path
//! clones an `Arc<Plan>` instead of rebuilding.
//!
//! Cache traffic is observable two ways: per-type via
//! [`crate::Datatype::plan_cache_stats`], and process-wide through
//! `sim_core::instrument::global()` under the keys `plan_cache_hit`,
//! `plan_cache_miss` and `plan_cache_evict`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::lock::Mutex;

use crate::flat::{FlatType, Layout, Segment};
use crate::program::{Block, Program};

/// A piece of a packed-byte range mapped back to buffer space:
/// `(buffer offset, length)`.
pub type Piece = (isize, usize);

/// The immutable, shareable stride program of `count` elements of a
/// committed datatype, with packed-offset prefix sums and its classified
/// layouts.
#[derive(Debug)]
pub struct Plan {
    program: Arc<Program>,
    /// `prefix[i]` = packed bytes before block `i`; last entry = total.
    prefix: Vec<usize>,
    runs: usize,
    layout: Layout,
    canonical: Canonical,
}

/// A position in a plan's packed stream: run `run` of block `block`,
/// `within` bytes into the run. Advanced by [`Plan::next_piece`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Walker {
    block: usize,
    run: usize,
    within: usize,
}

impl Plan {
    /// Build a plan from an explicit segment list (already in pack order).
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        Plan::from_program(Arc::new(Program::from_segments(segments)))
    }

    /// Replicate and classify `count` elements of `flat`. One element
    /// shares the committed program.
    pub fn build(flat: &FlatType, count: usize) -> Self {
        Plan::from_program(match count {
            1 => Arc::clone(flat.shared_program()),
            _ => Arc::new(flat.program().replicate(count, flat.extent())),
        })
    }

    fn from_program(mut program: Arc<Program>) -> Self {
        // Blocks follow the type tree, which can split a regular pattern
        // off its grid (an indexed block straddling two groups of rows).
        // Re-folding such a program run by run recovers the canonical
        // grouping; only blocks of one run length can form a pattern, so
        // no other program pays for it.
        if program.blocks().len() > 1 && program.blocks().windows(2).all(|w| w[0].len == w[1].len) {
            program = Arc::new(Program::from_segments(
                program.segments().collect::<Vec<_>>(),
            ));
        }
        let mut prefix = Vec::with_capacity(program.blocks().len() + 1);
        let mut acc = 0usize;
        prefix.push(0);
        for b in program.blocks() {
            acc += b.bytes();
            prefix.push(acc);
        }
        let layout = match program.blocks() {
            [] => Layout::Contiguous { offset: 0, len: 0 },
            [b] => match *b.dims() {
                [] => Layout::Contiguous {
                    offset: b.offset,
                    len: b.len,
                },
                [(height, pitch)] if pitch > b.len as isize => Layout::Strided2D {
                    first: b.offset,
                    pitch: pitch as usize,
                    width: b.len,
                    height,
                },
                _ => Layout::Irregular,
            },
            _ => Layout::Irregular,
        };
        let canonical = Canonical::classify(&program, &layout);
        Plan {
            runs: program.runs(),
            program,
            prefix,
            layout,
            canonical,
        }
    }

    /// The stride program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of runs (merged segments): what per-run cost models bill.
    pub fn num_segments(&self) -> usize {
        self.runs
    }

    /// Total packed bytes.
    pub fn total(&self) -> usize {
        *self.prefix.last().unwrap()
    }

    /// The classified layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Heap bytes this plan holds: its blocks, their dimensions and the
    /// per-block prefix sums.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks: usize = self
            .program
            .blocks()
            .iter()
            .map(|b| size_of::<Block>() + size_of_val(b.dims()))
            .sum();
        blocks + size_of_val(&self.prefix[..])
    }

    /// The position of packed byte `off` (`off <= total()`).
    pub(crate) fn walker(&self, off: usize) -> Walker {
        assert!(
            off <= self.total(),
            "offset {off} exceeds packed size {}",
            self.total()
        );
        let block = self.prefix.partition_point(|&p| p <= off) - 1;
        let within = off - self.prefix[block];
        let len = self.program.blocks().get(block).map_or(1, |b| b.len);
        Walker {
            block,
            run: within / len,
            within: within % len,
        }
    }

    /// The next piece at `w`, at most `max` bytes (`max > 0`), advancing
    /// `w` past it; `None` at the end of the stream.
    pub(crate) fn next_piece(&self, w: &mut Walker, max: usize) -> Option<Piece> {
        let b: &Block = self.program.blocks().get(w.block)?;
        let off = b.run_offset(w.run) + w.within as isize;
        let take = (b.len - w.within).min(max);
        w.within += take;
        if w.within == b.len {
            w.within = 0;
            w.run += 1;
            if b.dims().is_empty() || w.run == b.runs() {
                w.run = 0;
                w.block += 1;
            }
        }
        Some((off, take))
    }

    /// Map the packed-byte range `[off, off+len)` to buffer-space pieces.
    /// Panics if the range exceeds the packed size.
    pub fn pieces(&self, off: usize, len: usize) -> Vec<Piece> {
        assert!(
            off + len <= self.total(),
            "range [{off}, +{len}) exceeds packed size {}",
            self.total()
        );
        let mut out = Vec::new();
        let mut w = self.walker(off);
        let mut left = len;
        while left > 0 {
            let p = self.next_piece(&mut w, left).expect("range within total");
            left -= p.1;
            out.push(p);
        }
        out
    }
}

/// TEMPI-style canonical form of a plan: the observation (PAPERS.md) that
/// almost every derived datatype seen in practice collapses into at most
/// two stride levels, so one small descriptor can drive an entire
/// transfer. A stride program states the levels directly — including
/// two-level patterns the single-level [`Layout`] classifier files under
/// [`Layout::Irregular`] (e.g. `count > 1` of a resized column type, or
/// the rows-within-planes of a 3-D subarray).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Canonical {
    /// One contiguous run at `offset`.
    Contig {
        /// Byte offset of the run, relative to the buffer pointer.
        offset: isize,
        /// Run length, bytes.
        len: usize,
    },
    /// A single stride level: `count` blocks of `block` bytes, `stride`
    /// bytes apart (an `MPI_Type_vector`).
    Strided1D {
        /// Offset of the first block, relative to the buffer pointer.
        first: isize,
        /// Bytes per block.
        block: usize,
        /// Distance between consecutive block starts, bytes.
        stride: usize,
        /// Number of blocks.
        count: usize,
    },
    /// Two stride levels: `outer_count` groups, `outer_stride` apart, each
    /// holding `count` blocks `stride` apart (rows within planes).
    Strided2D {
        /// Offset of the first block of the first group.
        first: isize,
        /// Bytes per block.
        block: usize,
        /// Distance between consecutive blocks within a group, bytes.
        stride: usize,
        /// Blocks per group.
        count: usize,
        /// Distance between consecutive group starts, bytes.
        outer_stride: usize,
        /// Number of groups.
        outer_count: usize,
    },
    /// No bounded strided description exists (deep struct soup).
    Irregular,
}

impl Canonical {
    /// The plan's canonical form (computed when the plan was built).
    pub fn of(plan: &Plan) -> Canonical {
        plan.canonical
    }

    /// A one-block program with two forward stride levels is two-level
    /// strided; group extents may interleave (a resized column type
    /// restarts below the previous column) — DMA order is the descriptor
    /// walk, not address order, so that's fine.
    fn classify(program: &Program, layout: &Layout) -> Canonical {
        match *layout {
            Layout::Contiguous { offset, len } => Canonical::Contig { offset, len },
            Layout::Strided2D {
                first,
                pitch,
                width,
                height,
            } => Canonical::Strided1D {
                first,
                block: width,
                stride: pitch,
                count: height,
            },
            Layout::Irregular => match program.blocks() {
                [b] => match *b.dims() {
                    [(count, stride), (outer_count, outer_stride)]
                        if stride > 0 && outer_stride > 0 =>
                    {
                        Canonical::Strided2D {
                            first: b.offset,
                            block: b.len,
                            stride: stride as usize,
                            count,
                            outer_stride: outer_stride as usize,
                            outer_count,
                        }
                    }
                    _ => Canonical::Irregular,
                },
                _ => Canonical::Irregular,
            },
        }
    }
}

/// One strided run of a [`WireDescriptor`], relative to the message's
/// buffer pointer (the engine rebases it into MR-absolute
/// [`ib_sim::SgEntry`]s once the buffer is registered).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WireEntry {
    /// Byte offset of the first block, relative to the buffer pointer.
    pub offset: isize,
    /// Bytes per block.
    pub len: usize,
    /// Distance between consecutive block starts, bytes.
    pub stride: usize,
    /// Number of blocks in the run.
    pub count: usize,
}

impl WireEntry {
    /// Payload bytes this run moves.
    pub fn bytes(&self) -> usize {
        self.len * self.count
    }
}

/// A bounded scatter/gather descriptor lowered from a [`Canonical`] plan:
/// the entry list a NIC offload engine walks instead of the CPU packing.
/// Entries are in pack order — walking them block by block yields exactly
/// the packed byte stream of the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDescriptor {
    entries: Vec<WireEntry>,
    total: usize,
}

impl WireDescriptor {
    /// Lower a plan into a descriptor of at most `budget` entries: one
    /// entry for `Contig`/`Strided1D`, one per group for `Strided2D`.
    /// `None` if the plan is `Irregular`, empty, or needs more entries
    /// than the HCA budget — callers fall back to the staged pipeline.
    pub fn lower(plan: &Plan, budget: usize) -> Option<WireDescriptor> {
        let total = plan.total();
        if total == 0 {
            return None;
        }
        let entries = match Canonical::of(plan) {
            Canonical::Contig { offset, len } => vec![WireEntry {
                offset,
                len,
                stride: len,
                count: 1,
            }],
            Canonical::Strided1D {
                first,
                block,
                stride,
                count,
            } => vec![WireEntry {
                offset: first,
                len: block,
                stride,
                count,
            }],
            Canonical::Strided2D {
                first,
                block,
                stride,
                count,
                outer_stride,
                outer_count,
            } => (0..outer_count)
                .map(|k| WireEntry {
                    offset: first + (k * outer_stride) as isize,
                    len: block,
                    stride,
                    count,
                })
                .collect(),
            Canonical::Irregular => return None,
        };
        if entries.len() > budget {
            return None;
        }
        Some(WireDescriptor { entries, total })
    }

    /// The entry list, in pack order.
    pub fn entries(&self) -> &[WireEntry] {
        &self.entries
    }

    /// Total payload bytes.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Clip to the first `bytes` of the packed stream — the receive-side
    /// descriptor when the posted buffer is larger than the message.
    /// Splitting mid-block may add one tail entry. Panics if `bytes`
    /// exceeds the descriptor's total.
    pub fn prefix(&self, bytes: usize) -> WireDescriptor {
        assert!(
            bytes <= self.total,
            "prefix({bytes}) exceeds descriptor total {}",
            self.total
        );
        let mut entries = Vec::new();
        let mut rem = bytes;
        for e in &self.entries {
            if rem == 0 {
                break;
            }
            if rem >= e.bytes() {
                entries.push(*e);
                rem -= e.bytes();
                continue;
            }
            let k = rem / e.len;
            if k > 0 {
                entries.push(WireEntry { count: k, ..*e });
            }
            let tail = rem % e.len;
            if tail > 0 {
                entries.push(WireEntry {
                    offset: e.offset + (k * e.stride) as isize,
                    len: tail,
                    stride: tail,
                    count: 1,
                });
            }
            rem = 0;
        }
        WireDescriptor {
            entries,
            total: bytes,
        }
    }

    /// Rebase into MR-absolute [`ib_sim::SgEntry`]s: `base` is the buffer
    /// offset of the message's pointer within the registered region.
    /// Panics if an entry would land before the buffer start.
    pub fn to_sg(&self, base: usize) -> Vec<ib_sim::SgEntry> {
        self.entries
            .iter()
            .map(|e| {
                let off = base as isize + e.offset;
                assert!(off >= 0, "descriptor entry before buffer start");
                ib_sim::SgEntry {
                    offset: off as usize,
                    len: e.len,
                    stride: e.stride,
                    count: e.count,
                }
            })
            .collect()
    }
}

/// Counters of one committed type's plan cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

/// Plans the LRU keeps per committed type. Real workloads reuse a handful
/// of counts (often exactly one); the bound only matters for adversarial
/// count churn.
const PLAN_CACHE_CAPACITY: usize = 8;

/// Small LRU cache of `count -> Arc<Plan>`, embedded in each committed
/// [`FlatType`]. Dropping the datatype drops the `FlatType` and the cache
/// with it — invalidation is ownership, not epochs.
#[derive(Default)]
pub struct PlanCache {
    /// `(count, plan)`; back = most recently used.
    entries: Mutex<Vec<(usize, Arc<Plan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Return the cached plan for `count`, building (and caching) it with
    /// `build` on a miss.
    pub fn get_or_build(&self, count: usize, build: impl FnOnce() -> Plan) -> Arc<Plan> {
        let global = sim_core::instrument::global();
        let mut entries = self.entries.lock();
        if let Some(i) = entries.iter().position(|(c, _)| *c == count) {
            let hit = entries.remove(i);
            let plan = Arc::clone(&hit.1);
            entries.push(hit);
            self.hits.fetch_add(1, Ordering::Relaxed);
            global.record("plan_cache_hit");
            return plan;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        global.record("plan_cache_miss");
        let plan = Arc::new(build());
        if entries.len() >= PLAN_CACHE_CAPACITY {
            entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            global.record("plan_cache_evict");
        }
        entries.push((count, Arc::clone(&plan)));
        plan
    }

    /// Current counter values.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &self.entries.lock().len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(offset: isize, len: usize) -> Segment {
        Segment { offset, len }
    }

    #[test]
    fn prefix_and_total() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(12, 4), seg(24, 8)]);
        assert_eq!(p.total(), 16);
        assert_eq!(p.num_segments(), 3);
        // Walking 8 bytes from the start lands where a seek to 8 does.
        let mut w = p.walker(0);
        assert_eq!(p.next_piece(&mut w, 8), Some((0, 4)));
        assert_eq!(p.next_piece(&mut w, 4), Some((12, 4)));
        assert_eq!(w, p.walker(8));
        assert_eq!(p.next_piece(&mut p.walker(16), 1), None);
    }

    #[test]
    fn pieces_split_and_clip_segments() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(12, 4), seg(24, 8)]);
        assert_eq!(p.pieces(0, 16), vec![(0, 4), (12, 4), (24, 8)]);
        assert_eq!(p.pieces(2, 4), vec![(2, 2), (12, 2)]);
        assert_eq!(p.pieces(10, 6), vec![(26, 6)]);
        assert_eq!(p.pieces(16, 0), Vec::<Piece>::new());
    }

    #[test]
    #[should_panic(expected = "exceeds packed size")]
    fn pieces_out_of_range_panics() {
        let p = Plan::from_segments(vec![seg(0, 4)]);
        let _ = p.pieces(2, 3);
    }

    #[test]
    fn empty_plan() {
        let p = Plan::from_segments(Vec::new());
        assert_eq!(p.total(), 0);
        assert!(p.pieces(0, 0).is_empty());
        assert_eq!(
            p.layout(),
            &Layout::Contiguous { offset: 0, len: 0 },
            "empty expansion classifies as a zero-length run"
        );
    }

    #[test]
    fn cache_hits_and_lru_eviction() {
        let cache = PlanCache::default();
        let mk = |n: usize| move || Plan::from_segments(vec![seg(0, n.max(1) * 4)]);
        let a = cache.get_or_build(1, mk(1));
        let b = cache.get_or_build(1, mk(1));
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same plan");
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        // Overflow the capacity; count 1 stays hot (re-touched each round).
        for n in 2..=PLAN_CACHE_CAPACITY + 2 {
            cache.get_or_build(n, mk(n));
            cache.get_or_build(1, mk(1));
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "overflow must evict: {s:?}");
        let before = cache.stats().misses;
        let c = cache.get_or_build(1, mk(1));
        assert_eq!(cache.stats().misses, before, "hot count 1 never evicted");
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn canonical_contig_and_vector() {
        let c = Plan::from_segments(vec![seg(8, 32)]);
        assert_eq!(Canonical::of(&c), Canonical::Contig { offset: 8, len: 32 });
        let v = Plan::from_segments(vec![seg(0, 4), seg(16, 4), seg(32, 4)]);
        assert_eq!(
            Canonical::of(&v),
            Canonical::Strided1D {
                first: 0,
                block: 4,
                stride: 16,
                count: 3
            }
        );
    }

    #[test]
    fn canonical_recovers_two_levels_from_irregular() {
        // Two planes of three rows: inner pitch 16, outer pitch 100 — the
        // single-level classifier calls this Irregular.
        let segs: Vec<Segment> = (0..2)
            .flat_map(|pl| (0..3).map(move |r| seg(pl * 100 + r * 16, 8)))
            .collect();
        let p = Plan::from_segments(segs);
        assert_eq!(p.layout(), &Layout::Irregular);
        assert_eq!(
            Canonical::of(&p),
            Canonical::Strided2D {
                first: 0,
                block: 8,
                stride: 16,
                count: 3,
                outer_stride: 100,
                outer_count: 2
            }
        );
        // Interleaved group extents (column restart) still canonicalize.
        let segs: Vec<Segment> = (0..2)
            .flat_map(|col| (0..4).map(move |r| seg(col * 4 + r * 24, 4)))
            .collect();
        let p = Plan::from_segments(segs);
        assert_eq!(
            Canonical::of(&p),
            Canonical::Strided2D {
                first: 0,
                block: 4,
                stride: 24,
                count: 4,
                outer_stride: 4,
                outer_count: 2
            }
        );
    }

    #[test]
    fn canonical_rejects_soup() {
        // Unequal widths.
        let p = Plan::from_segments(vec![seg(0, 4), seg(8, 8), seg(24, 4), seg(32, 8)]);
        assert_eq!(Canonical::of(&p), Canonical::Irregular);
        // Broken outer pitch.
        let p = Plan::from_segments(vec![
            seg(0, 4),
            seg(8, 4),
            seg(100, 4),
            seg(108, 4),
            seg(190, 4),
            seg(198, 4),
        ]);
        assert_eq!(Canonical::of(&p), Canonical::Irregular);
    }

    #[test]
    fn descriptor_walk_matches_pack_order() {
        let segs: Vec<Segment> = (0..2)
            .flat_map(|pl| (0..3).map(move |r| seg(pl * 100 + r * 16, 8)))
            .collect();
        let p = Plan::from_segments(segs.clone());
        let d = WireDescriptor::lower(&p, 16).expect("lowers");
        assert_eq!(d.entries().len(), 2);
        assert_eq!(d.total(), p.total());
        // Walking entry blocks in order reproduces the segment list.
        let mut walked = Vec::new();
        for e in d.entries() {
            for b in 0..e.count {
                walked.push(seg(e.offset + (b * e.stride) as isize, e.len));
            }
        }
        assert_eq!(walked, segs);
        // Entry budget rejection.
        assert!(WireDescriptor::lower(&p, 1).is_none());
    }

    #[test]
    fn descriptor_prefix_clips_and_splits() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(16, 4), seg(32, 4)]);
        let d = WireDescriptor::lower(&p, 8).unwrap();
        // Whole blocks only.
        let head = d.prefix(8);
        assert_eq!(
            head.entries(),
            &[WireEntry {
                offset: 0,
                len: 4,
                stride: 16,
                count: 2
            }]
        );
        // Mid-block split adds a tail entry.
        let head = d.prefix(6);
        assert_eq!(head.total(), 6);
        assert_eq!(
            head.entries(),
            &[
                WireEntry {
                    offset: 0,
                    len: 4,
                    stride: 16,
                    count: 1
                },
                WireEntry {
                    offset: 16,
                    len: 2,
                    stride: 2,
                    count: 1
                }
            ]
        );
        assert_eq!(d.prefix(0).entries().len(), 0);
    }

    #[test]
    fn descriptor_rebases_to_sg() {
        let p = Plan::from_segments(vec![seg(-8, 4), seg(8, 4)]);
        let d = WireDescriptor::lower(&p, 8).unwrap();
        let sg = d.to_sg(64);
        assert_eq!(sg.len(), 1);
        assert_eq!(sg[0].offset, 56);
        assert_eq!(sg[0].bytes(), 8);
    }
}
