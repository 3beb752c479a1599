//! Stride programs: the committed representation of a datatype layout.
//!
//! A [`Program`] is a short sequence of nested strided [`Block`]s. Walked
//! in order, its runs are exactly the typemap's byte segments in pack
//! order, with runs that touch in memory merged — the list a reference
//! walk of the type tree produces (see [`crate::flat::FlatType::expanded`]),
//! without ever materializing it. This is TEMPI's canonical strided form
//! (PAPERS.md): commit builds it straight from the datatype tree in time
//! proportional to the tree.
//!
//! * **Replication** (`contiguous`, `vector` blocks and counts, the message
//!   count) of a one-block program adds an outer `(count, stride)`
//!   dimension, or widens the run when the copies touch.
//! * **Concatenation** (`indexed`, `struct`) appends blocks one at a time
//!   and folds each into its predecessor when it continues the
//!   predecessor's pattern, so regular layouts spelled irregularly still
//!   come out as one block.
//! * **Touching runs** at a block boundary are merged by splitting off the
//!   two touching runs; this reproduces the partial cross-element merges
//!   of padded types exactly.
//!
//! Layouts without that regularity end up as many zero-dimensional blocks:
//! a plain segment list.

use crate::flat::Segment;

/// One nested strided block: runs of `len` bytes at `offset + Σ i_k·s_k`
/// for every `i_k < c_k`, where `dims` lists the `(c_k, s_k)` pairs
/// innermost first and the innermost index varies fastest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Byte offset of the first run, relative to the buffer address.
    pub offset: isize,
    /// Run length in bytes (never zero).
    pub len: usize,
    /// `(count, stride)` per dimension, innermost first; every count ≥ 2.
    dims: Vec<(usize, isize)>,
}

impl Block {
    /// A single run.
    fn seg(offset: isize, len: usize) -> Block {
        Block {
            offset,
            len,
            dims: Vec::new(),
        }
    }

    /// `(count, stride)` per dimension, innermost first.
    pub fn dims(&self) -> &[(usize, isize)] {
        &self.dims
    }

    /// Number of runs.
    pub(crate) fn runs(&self) -> usize {
        self.dims.iter().map(|&(c, _)| c).product()
    }

    /// Packed bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.len * self.runs()
    }

    /// Buffer offset of run `j` (`j < runs()`).
    pub(crate) fn run_offset(&self, mut j: usize) -> isize {
        let mut off = self.offset;
        for &(c, s) in &self.dims {
            off += (j % c) as isize * s;
            j /= c;
        }
        off
    }

    fn last_offset(&self) -> isize {
        self.offset
            + self
                .dims
                .iter()
                .map(|&(c, s)| (c as isize - 1) * s)
                .sum::<isize>()
    }

    /// Smallest and one-past-largest byte offsets the runs touch.
    fn span(&self) -> (isize, isize) {
        let mut lo = self.offset;
        let mut hi = self.offset + self.len as isize;
        for &(c, s) in &self.dims {
            let d = (c as isize - 1) * s;
            lo += d.min(0);
            hi += d.max(0);
        }
        (lo, hi)
    }

    fn shifted(&self, by: isize) -> Block {
        Block {
            offset: self.offset + by,
            ..self.clone()
        }
    }

    /// Same runs, canonical dimensions: single-iteration dimensions
    /// dropped, touching innermost runs widened, and a dimension that
    /// continues the one inside it (`s_{k+1} = c_k·s_k`) collapsed into it.
    fn normalized(mut self) -> Block {
        let mut dims: Vec<(usize, isize)> = Vec::with_capacity(self.dims.len());
        for &(c, s) in &self.dims {
            if c == 1 {
                continue;
            }
            if dims.is_empty() && s == self.len as isize {
                self.len *= c;
                continue;
            }
            if let Some((pc, ps)) = dims.last_mut() {
                if s == *pc as isize * *ps {
                    *pc *= c;
                    continue;
                }
            }
            dims.push((c, s));
        }
        self.dims = dims;
        self
    }

    fn with_dims(&self, dims: Vec<(usize, isize)>) -> Block {
        Block {
            offset: self.offset,
            len: self.len,
            dims,
        }
        .normalized()
    }

    /// Everything but the last run (as blocks, in order), and the last run.
    fn split_last(self) -> (Vec<Block>, Segment) {
        let mut rest = Vec::new();
        let mut b = self;
        while let Some(&(c, s)) = b.dims.last() {
            let inner = b.dims[..b.dims.len() - 1].to_vec();
            let mut outer = inner.clone();
            outer.push((c - 1, s));
            rest.push(b.with_dims(outer));
            b = Block {
                offset: b.offset + (c as isize - 1) * s,
                len: b.len,
                dims: inner,
            };
        }
        (
            rest,
            Segment {
                offset: b.offset,
                len: b.len,
            },
        )
    }

    /// The first run, and everything after it (as blocks, in order).
    fn split_first(self) -> (Segment, Vec<Block>) {
        let mut rest = Vec::new();
        let mut b = self;
        while let Some(&(c, s)) = b.dims.last() {
            let inner = b.dims[..b.dims.len() - 1].to_vec();
            let mut outer = inner.clone();
            outer.push((c - 1, s));
            rest.push(
                Block {
                    offset: b.offset + s,
                    len: b.len,
                    dims: outer,
                }
                .normalized(),
            );
            b = Block {
                offset: b.offset,
                len: b.len,
                dims: inner,
            };
        }
        rest.reverse();
        (
            Segment {
                offset: b.offset,
                len: b.len,
            },
            rest,
        )
    }
}

/// `b` appended right after `a` as one block, when `b` continues `a`'s
/// pattern. The caller has checked that the two do not touch.
fn fold(a: &Block, b: &Block) -> Option<Block> {
    if a.len != b.len {
        return None;
    }
    // `b` is the next outer iteration (or iterations) of `a`.
    if let Some((&(c, s), inner)) = a.dims.split_last() {
        if b.offset == a.offset + c as isize * s {
            if b.dims == inner {
                return Some(a.with_dims([inner, &[(c + 1, s)]].concat()));
            }
            if let Some((&(cb, sb), binner)) = b.dims.split_last() {
                if sb == s && binner == inner {
                    return Some(a.with_dims([inner, &[(c + cb, s)]].concat()));
                }
            }
        }
    }
    // `a` is the iteration just before `b`'s first.
    if let Some((&(cb, s), binner)) = b.dims.split_last() {
        if a.dims == binner && a.offset == b.offset - s {
            return Some(a.with_dims([binner, &[(cb + 1, s)]].concat()));
        }
    }
    // Two iterations of the same shape: a new outer dimension.
    if a.dims == b.dims {
        return Some(a.with_dims([&a.dims[..], &[(2, b.offset - a.offset)]].concat()));
    }
    None
}

/// A layout as a sequence of nested strided blocks (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    blocks: Vec<Block>,
}

impl Program {
    /// One run of `len` bytes at `offset` (nothing for `len == 0`).
    pub(crate) fn seg(offset: isize, len: usize) -> Program {
        let mut p = Program::default();
        p.push(Block::seg(offset, len));
        p
    }

    /// The program of an explicit segment list (already in pack order).
    pub(crate) fn from_segments(segs: impl IntoIterator<Item = Segment>) -> Program {
        let mut p = Program::default();
        for s in segs {
            p.push(Block::seg(s.offset, s.len));
        }
        p
    }

    /// The blocks, in pack order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of runs (merged segments).
    pub(crate) fn runs(&self) -> usize {
        self.blocks.iter().map(Block::runs).sum()
    }

    /// Smallest and one-past-largest byte offsets touched; `None` when
    /// empty.
    pub(crate) fn span(&self) -> Option<(isize, isize)> {
        self.blocks
            .iter()
            .map(Block::span)
            .reduce(|(l0, h0), (l1, h1)| (l0.min(l1), h0.max(h1)))
    }

    /// Every run, in pack order. This is the expansion programs exist to
    /// avoid: tests and the plan's re-fold of equal-length blocks use it.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.blocks.iter().flat_map(|b| {
            (0..b.runs()).map(move |j| Segment {
                offset: b.run_offset(j),
                len: b.len,
            })
        })
    }

    /// Append `b` after the last block, merging a run that touches the
    /// previous one and folding blocks that continue a pattern.
    fn push(&mut self, mut b: Block) {
        if b.len == 0 {
            return;
        }
        if let Some(a) = self.blocks.last() {
            if a.last_offset() + a.len as isize == b.offset {
                let a = self.blocks.pop().expect("last block");
                if a.dims.is_empty() && b.dims.is_empty() {
                    b = Block::seg(a.offset, a.len + b.len);
                } else {
                    // Only the two touching runs merge: split them off.
                    let (a_rest, a_last) = a.split_last();
                    let (b_first, b_rest) = b.split_first();
                    for x in a_rest {
                        self.push(x);
                    }
                    self.push(Block::seg(a_last.offset, a_last.len + b_first.len));
                    for x in b_rest {
                        self.push(x);
                    }
                    return;
                }
            }
        }
        while let Some(f) = self.blocks.last().and_then(|a| fold(a, &b)) {
            self.blocks.pop();
            b = f;
        }
        self.blocks.push(b);
    }

    /// Append every block of `other`, shifted by `shift` bytes.
    pub(crate) fn append(&mut self, other: &Program, shift: isize) {
        for b in &other.blocks {
            self.push(b.shifted(shift));
        }
    }

    /// `n` copies of this program, copy `i` shifted by `i·stride` bytes.
    /// A one-block program gains an outer dimension in O(1) unless the
    /// copies touch; anything else is appended copy by copy.
    pub(crate) fn replicate(&self, n: usize, stride: isize) -> Program {
        match n {
            0 => return Program::default(),
            1 => return self.clone(),
            _ => {}
        }
        if let [b] = &self.blocks[..] {
            let touches = b.last_offset() + b.len as isize == b.offset + stride;
            if !touches {
                return Program {
                    blocks: vec![b.with_dims([&b.dims[..], &[(n, stride)]].concat())],
                };
            }
            if b.dims.is_empty() {
                return Program::seg(b.offset, b.len * n);
            }
        }
        let mut out = Program::default();
        for i in 0..n {
            out.append(self, i as isize * stride);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segs(p: &Program) -> Vec<(isize, usize)> {
        p.segments().map(|s| (s.offset, s.len)).collect()
    }

    #[test]
    fn replicate_adds_and_collapses_dimensions() {
        let row = Program::seg(0, 4).replicate(8, 16);
        assert_eq!(row.blocks(), &[Block::seg(0, 4).with_dims(vec![(8, 16)])]);
        // Eight more rows continuing the pitch collapse into one dimension.
        let more = row.replicate(2, 128);
        assert_eq!(more.blocks()[0].dims(), &[(16, 16)]);
        // A different outer pitch is a second dimension.
        let planes = row.replicate(3, 1000);
        assert_eq!(planes.blocks()[0].dims(), &[(8, 16), (3, 1000)]);
        assert_eq!(planes.runs(), 24);
    }

    #[test]
    fn touching_copies_widen_the_run() {
        let p = Program::seg(8, 4).replicate(5, 4);
        assert_eq!(p.blocks(), &[Block::seg(8, 20)]);
    }

    #[test]
    fn concatenation_folds_regular_blocks() {
        // Rows 0, 16, 32 appended one at a time become one strided block.
        let p = Program::from_segments([0, 16, 32, 48].map(|o| Segment { offset: o, len: 4 }));
        assert_eq!(p.blocks().len(), 1);
        assert_eq!(p.blocks()[0].dims(), &[(4, 16)]);
        // Two groups of three rows become a two-level block.
        let p = Program::from_segments(
            [0, 8, 16, 100, 108, 116, 200, 208, 216].map(|o| Segment { offset: o, len: 4 }),
        );
        assert_eq!(p.blocks().len(), 1);
        assert_eq!(p.blocks()[0].dims(), &[(3, 8), (3, 100)]);
    }

    #[test]
    fn partial_cross_copy_merges_are_exact() {
        // One-block element: runs at 0 and 8, copies 12 apart, so the last
        // run of each copy touches the first of the next.
        let p = Program::seg(0, 4).replicate(2, 8).replicate(4, 12);
        assert_eq!(segs(&p), vec![(0, 4), (8, 8), (20, 8), (32, 8), (44, 4)]);
        assert!(p.blocks().len() <= 3, "{p:?}");
        // Two-block element (a padded struct): 4- and 8-byte runs, 16 apart.
        let s =
            Program::from_segments([(0, 4), (8, 8)].map(|(offset, len)| Segment { offset, len }))
                .replicate(3, 16);
        assert_eq!(segs(&s), vec![(0, 4), (8, 12), (24, 12), (40, 8)]);
    }

    #[test]
    fn split_first_and_last_cover_the_block() {
        let b = Block::seg(5, 2).with_dims(vec![(3, 10), (2, 100)]);
        let all: Vec<isize> = (0..b.runs()).map(|j| b.run_offset(j)).collect();
        let (rest, last) = b.clone().split_last();
        let mut got: Vec<isize> = rest
            .iter()
            .flat_map(|x| (0..x.runs()).map(|j| x.run_offset(j)))
            .collect();
        got.push(last.offset);
        assert_eq!(got, all);
        let (first, rest) = b.split_first();
        let mut got = vec![first.offset];
        got.extend(
            rest.iter()
                .flat_map(|x| (0..x.runs()).map(|j| x.run_offset(j))),
        );
        assert_eq!(got, all);
    }

    #[test]
    fn span_covers_negative_strides() {
        let p = Program::seg(0, 4).replicate(3, -12);
        assert_eq!(p.span(), Some((-24, 4)));
        assert_eq!(Program::default().span(), None);
    }
}
