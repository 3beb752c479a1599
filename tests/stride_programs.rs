//! Differential test of stride programs against the reference expansion.
//!
//! Commit canonicalizes a datatype tree straight into a stride program;
//! `FlatType::expanded` keeps the reference semantics (a walk of the tree
//! that materializes every merged segment). For seeded random trees of
//! every constructor — nested vector/hvector (negative strides included),
//! indexed/hindexed with zero-length blocks, struct, resized (negative lb,
//! extents that make consecutive elements touch), subarray — at counts
//! 1–4, everything a plan answers must equal what the expanded list gives:
//! the runs themselves, total, run count, layout, byte range, packed-range
//! pieces, the TEMPI canonical form and the NIC descriptor with its
//! prefixes. The reference classifiers below are the pre-program
//! algorithms, kept here as the oracle.

use gpu_nc_repro::mpi_sim::flat::{FlatType, Layout, Segment};
use gpu_nc_repro::mpi_sim::plan::Piece;
use gpu_nc_repro::mpi_sim::{Canonical, Datatype, SubarrayOrder, WireDescriptor};
use xorshift::XorShift64;

/// A random datatype tree of at most `depth` derived levels.
fn random_type(rng: &mut XorShift64, depth: usize) -> Datatype {
    let leaf = |rng: &mut XorShift64| match rng.gen_range(0, 3) {
        0 => Datatype::byte(),
        1 => Datatype::float(),
        _ => Datatype::double(),
    };
    if depth == 0 {
        return leaf(rng);
    }
    let signed = |rng: &mut XorShift64, lo: isize, hi: isize| {
        lo + rng.gen_range(0, (hi - lo) as usize) as isize
    };
    match rng.gen_range(0, 10) {
        0 => leaf(rng),
        1 => Datatype::contiguous(rng.gen_range(0, 4), &random_type(rng, depth - 1)),
        2 => {
            let bl = rng.gen_range(0, 3);
            // Strides from backwards through overlapping to sparse.
            let stride = signed(rng, -3, 6);
            Datatype::vector(
                rng.gen_range(0, 6),
                bl,
                stride,
                &random_type(rng, depth - 1),
            )
        }
        3 => {
            let child = random_type(rng, depth - 1);
            let ext = child.extent().max(1);
            let stride = match rng.gen_range(0, 4) {
                0 => ext * rng.gen_range(1, 4) as isize,
                1 => -ext,
                2 => signed(rng, -40, 80),
                _ => ext * rng.gen_range(1, 3) as isize + signed(rng, 1, 9),
            };
            Datatype::hvector(rng.gen_range(1, 6), rng.gen_range(0, 3), stride, &child)
        }
        4 => {
            let mut disp = signed(rng, -4, 2);
            let blocks: Vec<(usize, isize)> = (0..rng.gen_range(0, 5))
                .map(|_| {
                    let bl = rng.gen_range(0, 3);
                    let d = disp;
                    disp += bl as isize + signed(rng, 0, 4);
                    (bl, d)
                })
                .collect();
            Datatype::indexed(&blocks, &random_type(rng, depth - 1))
        }
        5 => {
            let child = random_type(rng, depth - 1);
            let ext = child.extent().max(1);
            // Evenly spaced blocks (foldable) or random ones.
            let even = rng.gen_bool();
            let step = ext * rng.gen_range(1, 4) as isize;
            let blocks: Vec<(usize, isize)> = (0..rng.gen_range(1, 6))
                .map(|i| {
                    let d = if even {
                        i as isize * step
                    } else {
                        signed(rng, -64, 128)
                    };
                    (rng.gen_range(0, 3), d)
                })
                .collect();
            Datatype::hindexed(&blocks, &child)
        }
        6 => {
            let fields: Vec<(usize, isize, Datatype)> = (0..rng.gen_range(1, 4))
                .map(|_| {
                    (
                        rng.gen_range(0, 3),
                        signed(rng, -16, 48),
                        random_type(rng, depth - 1),
                    )
                })
                .collect();
            Datatype::create_struct(&fields)
        }
        7 | 8 => {
            let child = random_type(rng, depth - 1);
            let lb = child.lb() + signed(rng, -8, 4);
            // Extents that tile, touch, overlap or leave holes.
            let extent = match rng.gen_range(0, 4) {
                0 => child.extent(),
                1 => child.size() as isize,
                2 => child.extent() + signed(rng, 1, 17),
                _ => signed(rng, 0, 33),
            };
            Datatype::resized(&child, lb, extent)
        }
        _ => {
            let nd = rng.gen_range(1, 4);
            let sizes: Vec<usize> = (0..nd).map(|_| rng.gen_range(1, 6)).collect();
            let subsizes: Vec<usize> = sizes.iter().map(|&s| rng.gen_range(1, s + 1)).collect();
            let starts: Vec<usize> = sizes
                .iter()
                .zip(&subsizes)
                .map(|(&s, &b)| rng.gen_range(0, s - b + 1))
                .collect();
            let child = if rng.gen_bool() {
                Datatype::float()
            } else {
                random_type(rng, depth - 1)
            };
            Datatype::subarray(&sizes, &subsizes, &starts, SubarrayOrder::C, &child)
        }
    }
}

/// Reference mapping of a packed range to buffer pieces.
fn oracle_pieces(segs: &[Segment], off: usize, len: usize) -> Vec<Piece> {
    let mut out = Vec::new();
    let (mut at, end) = (0usize, off + len);
    for s in segs {
        let (lo, hi) = (at.max(off), (at + s.len).min(end));
        if lo < hi {
            out.push((s.offset + (lo - at) as isize, hi - lo));
        }
        at += s.len;
    }
    out
}

/// Reference two-level recovery from a segment list the single-level
/// classifier calls irregular: equal-width blocks forming `g` groups of
/// `r`, constant inner pitch, constant outer pitch.
fn oracle_two_level(segs: &[Segment]) -> Canonical {
    let n = segs.len();
    if n < 4 {
        return Canonical::Irregular;
    }
    let w = segs[0].len;
    if w == 0 || segs.iter().any(|s| s.len != w) {
        return Canonical::Irregular;
    }
    let p = segs[1].offset - segs[0].offset;
    if p <= 0 {
        return Canonical::Irregular;
    }
    let r = (1..n)
        .find(|&i| segs[i].offset - segs[i - 1].offset != p)
        .unwrap_or(n);
    if r < 2 || r == n || !n.is_multiple_of(r) {
        return Canonical::Irregular;
    }
    let big = segs[r].offset - segs[0].offset;
    if big <= 0 {
        return Canonical::Irregular;
    }
    let g = n / r;
    for k in 0..g {
        if segs[k * r].offset - segs[0].offset != big * k as isize {
            return Canonical::Irregular;
        }
        for i in 1..r {
            if segs[k * r + i].offset - segs[k * r + i - 1].offset != p {
                return Canonical::Irregular;
            }
        }
    }
    Canonical::Strided2D {
        first: segs[0].offset,
        block: w,
        stride: p as usize,
        count: r,
        outer_stride: big as usize,
        outer_count: g,
    }
}

fn oracle_canonical(segs: &[Segment]) -> Canonical {
    match FlatType::classify(segs) {
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
        Layout::Irregular => oracle_two_level(segs),
    }
}

/// The blocks a descriptor's entries walk, in order.
fn walk(d: &WireDescriptor) -> Vec<Piece> {
    d.entries()
        .iter()
        .flat_map(|e| (0..e.count).map(move |b| (e.offset + (b * e.stride) as isize, e.len)))
        .collect()
}

fn check(dt: &Datatype, count: usize, rng: &mut XorShift64) -> Canonical {
    dt.commit();
    let flat = dt.flat();
    let oracle = flat.expanded(count);
    let plan = dt.plan(count);
    let ctx = || format!("{dt:?} x{count}");
    let total: usize = oracle.iter().map(|s| s.len).sum();
    assert_eq!(plan.total(), total, "total: {}", ctx());
    assert_eq!(plan.num_segments(), oracle.len(), "run count: {}", ctx());
    assert_eq!(
        plan.program().segments().collect::<Vec<_>>(),
        oracle,
        "runs: {} program {:?}",
        ctx(),
        plan.program()
    );
    assert_eq!(
        plan.layout(),
        &FlatType::classify(&oracle),
        "layout: {}",
        ctx()
    );
    if !oracle.is_empty() && count > 0 {
        let lo = oracle.iter().map(|s| s.offset).min().unwrap();
        let hi = oracle
            .iter()
            .map(|s| s.offset + s.len as isize)
            .max()
            .unwrap();
        assert_eq!(flat.byte_range(count), (lo, hi), "byte range: {}", ctx());
    }
    for _ in 0..6 {
        let off = rng.gen_range(0, total + 1);
        let len = rng.gen_range(0, total - off + 1);
        assert_eq!(
            plan.pieces(off, len),
            oracle_pieces(&oracle, off, len),
            "pieces({off}, {len}): {}",
            ctx()
        );
    }
    let canonical = oracle_canonical(&oracle);
    assert_eq!(Canonical::of(&plan), canonical, "canonical: {}", ctx());
    let entries = match canonical {
        Canonical::Contig { .. } | Canonical::Strided1D { .. } => Some(1),
        Canonical::Strided2D { outer_count, .. } => Some(outer_count),
        Canonical::Irregular => None,
    }
    .filter(|_| total > 0);
    for budget in [1usize, 2, 64] {
        let d = WireDescriptor::lower(&plan, budget);
        assert_eq!(
            d.as_ref().map(|d| d.entries().len()),
            entries.filter(|&n| n <= budget),
            "descriptor entries (budget {budget}): {}",
            ctx()
        );
        if let Some(d) = d {
            assert_eq!(d.total(), total);
            assert_eq!(
                walk(&d),
                oracle_pieces(&oracle, 0, total),
                "walk: {}",
                ctx()
            );
            let bytes = rng.gen_range(0, total + 1);
            assert_eq!(
                walk(&d.prefix(bytes)),
                oracle_pieces(&oracle, 0, bytes),
                "prefix({bytes}): {}",
                ctx()
            );
        }
    }
    canonical
}

#[test]
fn programs_match_the_reference_expansion() {
    let mut rng = XorShift64::new(0x5712_1DE5);
    let (mut strided, mut two_level, mut irregular) = (0, 0, 0);
    for _ in 0..20000 {
        let dt = random_type(&mut rng, 3);
        let count = rng.gen_range(1, 5);
        match check(&dt, count, &mut rng) {
            Canonical::Strided1D { .. } => strided += 1,
            Canonical::Strided2D { .. } => two_level += 1,
            Canonical::Irregular => irregular += 1,
            Canonical::Contig { .. } => {}
        }
    }
    // The generator reaches every class, so the comparison is not vacuous.
    assert!(
        strided > 50 && two_level > 10 && irregular > 50,
        "class mix: {strided} strided, {two_level} two-level, {irregular} irregular"
    );
}

#[test]
fn hand_picked_merges_match_the_reference_expansion() {
    let mut rng = XorShift64::new(7);
    let f = Datatype::float();
    let cases = [
        // Padded struct: each element's last run touches the next's first.
        Datatype::create_struct(&[(1, 0, Datatype::int()), (1, 8, Datatype::double())]),
        // Natural-extent vector: copies touch at the row boundary.
        Datatype::vector(2, 1, 2, &f),
        // Overlapping rows (legal for sends).
        Datatype::hvector(3, 2, 4, &f),
        // Backwards rows.
        Datatype::vector(4, 1, -2, &f),
        // Resized column types, tiling and touching.
        Datatype::resized(&Datatype::vector(4, 1, 6, &f), 0, 4),
        Datatype::resized(&Datatype::vector(3, 1, 2, &f), 0, 20),
        // Negative lb.
        Datatype::resized(&f, -8, 24),
        // Zero-length blocks between real ones.
        Datatype::indexed(&[(0, 0), (2, 1), (0, 9), (1, 5)], &f),
        // 3-D subarray: rows within planes.
        Datatype::subarray(&[4, 5, 6], &[2, 3, 4], &[1, 1, 1], SubarrayOrder::C, &f),
        // Regular blocks spelled irregularly.
        Datatype::hindexed(&[(1, 0), (1, 16), (1, 32), (1, 48)], &f),
    ];
    for dt in &cases {
        for count in 1..=4 {
            check(dt, count, &mut rng);
        }
    }
}

#[test]
fn the_paper_vector_commits_to_one_block() {
    // hvector of 2^20 four-byte rows at a 16-byte pitch: one block, one
    // dimension, whatever the row count.
    let block = Datatype::contiguous(4, &Datatype::byte());
    let dt = Datatype::hvector(1 << 20, 1, 16, &block);
    dt.commit();
    let plan = dt.plan(1);
    assert_eq!(plan.program().blocks().len(), 1);
    assert_eq!(plan.program().blocks()[0].dims(), &[(1 << 20, 16)]);
    assert_eq!(plan.num_segments(), 1 << 20);
    assert_eq!(
        plan.layout(),
        &Layout::Strided2D {
            first: 0,
            pitch: 16,
            width: 4,
            height: 1 << 20
        }
    );
}
