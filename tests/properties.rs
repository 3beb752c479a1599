//! Property-style tests on the core invariants: randomized datatype trees
//! and message geometries must round-trip exactly through every transfer
//! path (CPU pack, GPU pack, eager, staged pipeline, any block size).
//!
//! Each test runs a fixed number of cases drawn from a seeded [`XorShift64`]
//! stream, so failures are fully reproducible.

use gpu_nc_repro::mpi_sim::{Datatype, MpiConfig, MpiWorld};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use hostmem::HostBuf;
use xorshift::XorShift64;

/// A random, commit-able datatype tree plus the count to send. Kept small
/// so a single case stays fast.
#[derive(Debug, Clone)]
struct TypeSpec {
    dt: DtSpec,
    count: usize,
}

#[derive(Debug, Clone)]
enum DtSpec {
    Float,
    Double,
    Contig(usize, Box<DtSpec>),
    Vector(usize, usize, usize, Box<DtSpec>), // count, blocklen, stride>=blocklen
    Indexed(Vec<(usize, usize)>, Box<DtSpec>),
}

impl DtSpec {
    fn build(&self) -> Datatype {
        match self {
            DtSpec::Float => Datatype::float(),
            DtSpec::Double => Datatype::double(),
            DtSpec::Contig(n, c) => Datatype::contiguous(*n, &c.build()),
            DtSpec::Vector(n, bl, stride, c) => {
                Datatype::vector(*n, *bl, *stride as isize, &c.build())
            }
            DtSpec::Indexed(blocks, c) => {
                // Make displacements strictly increasing so blocks do not
                // overlap (overlapping receive layouts are invalid MPI).
                let mut disp = 0isize;
                let blocks: Vec<(usize, isize)> = blocks
                    .iter()
                    .map(|&(bl, gap)| {
                        let d = disp;
                        disp += (bl + gap) as isize;
                        (bl, d)
                    })
                    .collect();
                Datatype::indexed(&blocks, &c.build())
            }
        }
    }
}

fn leaf(rng: &mut XorShift64) -> DtSpec {
    if rng.gen_bool() {
        DtSpec::Float
    } else {
        DtSpec::Double
    }
}

/// A random datatype tree of at most `depth` derived levels over a leaf.
fn dt_spec(rng: &mut XorShift64, depth: usize) -> DtSpec {
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0, 4) {
        // Descend without wrapping sometimes, so shallow trees also occur.
        0 => dt_spec(rng, depth - 1),
        1 => DtSpec::Contig(rng.gen_range(1, 5), Box::new(dt_spec(rng, depth - 1))),
        2 => {
            let bl = rng.gen_range(1, 3);
            let stride = bl + rng.gen_range(0, 4);
            DtSpec::Vector(
                rng.gen_range(1, 6),
                bl,
                stride,
                Box::new(dt_spec(rng, depth - 1)),
            )
        }
        _ => {
            let blocks: Vec<(usize, usize)> = (0..rng.gen_range(1, 4))
                .map(|_| (rng.gen_range(1, 3), rng.gen_range(0, 4)))
                .collect();
            DtSpec::Indexed(blocks, Box::new(dt_spec(rng, depth - 1)))
        }
    }
}

fn type_spec(rng: &mut XorShift64) -> TypeSpec {
    TypeSpec {
        dt: dt_spec(rng, 2),
        count: rng.gen_range(1, 4),
    }
}

/// Footprint of (count, dtype) in bytes, with headroom.
fn footprint(dt: &Datatype, count: usize) -> usize {
    let (lo, hi) = dt.flat().byte_range(count);
    assert!(lo >= 0, "these specs never go negative");
    (hi as usize).max(1) + 64
}

/// Reference pack on the CPU from a byte pattern.
fn reference_pack(dt: &Datatype, count: usize, pattern: &[u8]) -> Vec<u8> {
    let segs = dt.flat().expanded(count);
    let mut out = Vec::new();
    for s in segs {
        let o = s.offset as usize;
        out.extend_from_slice(&pattern[o..o + s.len]);
    }
    out
}

/// Host -> host transfers with random derived types deliver exactly the
/// typemap bytes, regardless of path (eager or staged).
#[test]
fn host_transfer_round_trips() {
    let mut rng = XorShift64::new(0x5EED_0001);
    for _ in 0..24 {
        let spec = type_spec(&mut rng);
        let seed = rng.next_u64() as u8;
        let dt = spec.dt.build();
        dt.commit();
        let count = spec.count;
        let fp = footprint(&dt, count);
        let pattern: Vec<u8> = (0..fp).map(|i| (i as u8).wrapping_add(seed)).collect();
        let dtc = dt.clone();
        let patc = pattern.clone();
        MpiWorld::new(2).run(move |comm| {
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec(patc.clone());
                comm.send(buf.base(), count, &dtc, 1, 0);
            } else {
                let buf = HostBuf::alloc(fp);
                comm.recv(buf.base(), count, &dtc, 0, 0);
                assert_eq!(
                    reference_pack(&dtc, count, &buf.read(0, fp)),
                    reference_pack(&dtc, count, &patc),
                    "typemap bytes differ"
                );
            }
        });
    }
}

/// GPU -> GPU transfers with random derived types deliver exactly the
/// typemap bytes through the device pack/unpack pipeline.
#[test]
fn gpu_transfer_round_trips() {
    let mut rng = XorShift64::new(0x5EED_0002);
    for _ in 0..24 {
        let spec = type_spec(&mut rng);
        let seed = rng.next_u64() as u8;
        let dt = spec.dt.build();
        dt.commit();
        let count = spec.count;
        let fp = footprint(&dt, count);
        let pattern: Vec<u8> = (0..fp)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
            .collect();
        let dtc = dt.clone();
        let patc = pattern.clone();
        GpuCluster::new(2).run(move |env| {
            let dev = env.gpu.malloc(fp);
            if env.comm.rank() == 0 {
                env.gpu.write_bytes(dev, &patc);
                env.comm.send(dev, count, &dtc, 1, 0);
            } else {
                env.comm.recv(dev, count, &dtc, 0, 0);
                let got = env.gpu.read_bytes(dev, fp);
                assert_eq!(
                    reference_pack(&dtc, count, &got),
                    reference_pack(&dtc, count, &patc),
                    "typemap bytes differ"
                );
            }
        });
    }
}

/// The pipeline delivers identical bytes for any block size and any
/// message size (chunk boundaries hit arbitrary offsets).
#[test]
fn any_block_size_is_correct() {
    let mut rng = XorShift64::new(0x5EED_0003);
    for _ in 0..24 {
        let total = rng.gen_range(1, 96) << 10;
        let block = 1usize << rng.gen_range(12, 18);
        GpuCluster::new(2).block_size(block).run(move |env| {
            use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
            let x = VectorXfer::paper(total);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 5);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
            } else {
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                verify_vector(&env.gpu, dev, &x, 5);
            }
        });
    }
}

/// Matching semantics, specific tags: however the receiver permutes its
/// posts, each receive pairs with the message of its tag.
#[test]
fn matching_specific_tags_pairs_by_tag() {
    let mut rng = XorShift64::new(0x5EED_0004);
    for _ in 0..24 {
        let ntags = rng.gen_range(2, 10);
        let send_order: Vec<u32> = {
            let mut v: Vec<u32> = (0..ntags as u32).collect();
            rng.shuffle(&mut v);
            v
        };
        let post_order: Vec<u32> = {
            let mut v: Vec<u32> = (0..ntags as u32).collect();
            rng.shuffle(&mut v);
            v
        };
        MpiWorld::new(2).run(move |comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                for &tag in &send_order {
                    let buf = HostBuf::from_vec(vec![tag as u8 + 1; 64]);
                    comm.send(buf.base(), 64, &t, 1, tag);
                }
            } else {
                let reqs: Vec<_> = post_order
                    .iter()
                    .map(|&tag| {
                        let buf = HostBuf::alloc(64);
                        (tag, buf.clone(), comm.irecv(buf.base(), 64, &t, 0, tag))
                    })
                    .collect();
                for (tag, buf, req) in reqs {
                    let st = comm.wait(req).unwrap();
                    assert_eq!(st.tag, tag);
                    assert_eq!(buf.read(0, 64), vec![tag as u8 + 1; 64]);
                }
            }
        });
    }
}

/// Matching semantics, full wildcards: receives complete in message
/// arrival order (MPI's non-overtaking rule).
#[test]
fn matching_wildcards_preserve_arrival_order() {
    let mut rng = XorShift64::new(0x5EED_0005);
    for _ in 0..24 {
        let n = rng.gen_range(1, 12);
        let seed = rng.next_u64() as u8;
        MpiWorld::new(2).run(move |comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                for i in 0..n {
                    let buf = HostBuf::from_vec(vec![seed.wrapping_add(i as u8); 32]);
                    comm.send(buf.base(), 32, &t, 1, i as u32);
                }
            } else {
                use gpu_nc_repro::mpi_sim::{ANY_SOURCE, ANY_TAG};
                let reqs: Vec<_> = (0..n)
                    .map(|_| {
                        let buf = HostBuf::alloc(32);
                        (
                            buf.clone(),
                            comm.irecv(buf.base(), 32, &t, ANY_SOURCE, ANY_TAG),
                        )
                    })
                    .collect();
                for (i, (buf, req)) in reqs.into_iter().enumerate() {
                    let st = comm.wait(req).unwrap();
                    assert_eq!(st.tag, i as u32, "wildcard recv {i} overtaken");
                    assert_eq!(buf.read(0, 32), vec![seed.wrapping_add(i as u8); 32]);
                }
            }
        });
    }
}

/// Staged-path flow control survives arbitrary (tiny) window/pool
/// configurations without deadlock or corruption.
#[test]
fn tiny_windows_never_deadlock() {
    for window in 1usize..4 {
        for pool_extra in 0usize..4 {
            let cfg = MpiConfig {
                window_slots: window,
                pool_vbufs: 2 * window + pool_extra,
                ..MpiConfig::default()
            };
            GpuCluster::new(2).mpi_config(cfg).run(move |env| {
                use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
                let x = VectorXfer::paper(512 << 10);
                let dev = env.gpu.malloc(x.extent());
                if env.comm.rank() == 0 {
                    fill_vector(&env.gpu, dev, &x, 8);
                    env.comm.send(dev, 1, &x.dtype(), 1, 0);
                } else {
                    env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                    verify_vector(&env.gpu, dev, &x, 8);
                }
            });
        }
    }
}

/// A cached plan matches the reference expansion — runs, layout
/// classification and packed-range mapping — including after the LRU has
/// evicted and re-inserted the count.
#[test]
fn cached_plan_matches_fresh_expansion() {
    use gpu_nc_repro::mv2_gpu_nc::SegmentMap;

    let mut rng = XorShift64::new(0x5EED_0005);
    let mut evictions = 0u64;
    for _ in 0..12 {
        let dt = dt_spec(&mut rng, 2).build();
        dt.commit();
        let before = dt.plan_cache_stats();
        // More distinct counts than the cache holds, revisited in random
        // order: every count gets evicted and rebuilt at least once.
        let lookups = 40usize;
        for _ in 0..lookups {
            let count = rng.gen_range(1, 24);
            let plan = dt.plan(count);
            let fresh = dt.flat().expanded(count);
            assert_eq!(
                plan.program().segments().collect::<Vec<_>>(),
                fresh,
                "segment list diverged"
            );
            assert_eq!(
                plan.layout(),
                &gpu_nc_repro::mpi_sim::flat::FlatType::classify(&fresh),
                "layout diverged"
            );
            let map = SegmentMap::new(fresh);
            assert_eq!(plan.total(), map.total());
            assert_eq!(plan.num_segments(), map.num_segments());
            for _ in 0..4 {
                let total = plan.total();
                let off = rng.gen_range(0, total + 1);
                let len = rng.gen_range(0, total - off + 1);
                assert_eq!(plan.pieces(off, len), map.pieces(off, len));
            }
        }
        let s = dt.plan_cache_stats();
        assert_eq!(
            (s.hits + s.misses) - (before.hits + before.misses),
            lookups as u64,
            "every lookup is a hit or a miss"
        );
        evictions += s.evictions;
    }
    assert!(evictions > 0, "count churn past capacity must evict");
}
