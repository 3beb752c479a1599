//! # gpu-sim — a CUDA-like GPU device simulator
//!
//! Simulates the GPU side of the paper's testbed (NVIDIA Tesla C2050 behind
//! PCIe 2.0 x16): device memory with a real byte arena, streams, dual copy
//! engines, pitched (`cudaMemcpy2D`-style) copies and kernel launches — all
//! in the deterministic virtual time of [`sim_core`].
//!
//! Two things make it a faithful substrate for the paper:
//!
//! 1. **Functional realism** — device memory is real memory; every copy
//!    moves real bytes, so datatype pack/unpack logic built on top is tested
//!    end-to-end.
//! 2. **Temporal realism where it matters** — the [`cost::CostModel`] is
//!    calibrated to the paper's own measurements, in particular the huge
//!    per-row cost gap between strided copies *across PCIe* and strided
//!    copies *inside the device* that motivates GPU-side datatype packing.
//!
//! ```
//! use gpu_sim::Gpu;
//! use hostmem::HostBuf;
//!
//! let sim = sim_core::Sim::new();
//! sim.spawn("main", || {
//!     let gpu = Gpu::tesla_c2050(0);
//!     let dev = gpu.malloc(1024);
//!     let host = HostBuf::from_vec((0..1024).map(|i| (i % 256) as u8).collect());
//!     gpu.memcpy(dev, host.base(), 1024);          // H2D
//!     let back = HostBuf::alloc(1024);
//!     gpu.memcpy(back.base(), dev, 1024);          // D2H
//!     assert_eq!(back.read(0, 1024), host.read(0, 1024));
//!     assert!(sim_core::now().as_nanos() > 0);      // copies took time
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

pub mod cost;
mod gpu;
mod mem;

pub use cost::{CopyDir, CostModel, Shape2D};
pub use gpu::{Copy2d, Gpu, Loc, Stream};
pub use mem::{DevPtr, DeviceOom, DEVICE_ALLOC_ALIGN};

#[cfg(test)]
mod tests {
    use super::*;
    use hostmem::HostBuf;
    use sim_core::{now, Sim, SimDur, SimTime};

    fn in_sim(f: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("test", f);
        sim.run();
    }

    #[test]
    fn event_monitor_sees_stream_completions() {
        let sim = Sim::new();
        let gpu = Gpu::tesla_c2050(0);
        let waker = gpu.attach_event_monitor(&sim);
        {
            let gpu = gpu.clone();
            sim.spawn("test", move || {
                let dev = gpu.malloc(1 << 20);
                let host = HostBuf::alloc(1 << 20);
                let stream = gpu.create_stream();
                let c = gpu.memcpy_async(dev, host.base(), 1 << 20, &stream);
                let done = c.done_at().unwrap();
                assert!(
                    gpu.last_completion_seen().is_none_or(|t| t < done),
                    "monitor must not observe a completion before it happens"
                );
                c.wait();
                assert_eq!(gpu.last_completion_seen(), Some(done));
            });
        }
        sim.run();
        assert!(waker.ticks() >= 1, "monitor component never ticked");
    }

    #[test]
    fn h2d_d2h_round_trip_moves_bytes() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(64);
            let src = HostBuf::from_vec((0u8..64).collect());
            gpu.memcpy(dev, src.base(), 64);
            let dst = HostBuf::alloc(64);
            gpu.memcpy(dst.base(), dev, 64);
            assert_eq!(dst.read(0, 64), src.read(0, 64));
        });
    }

    #[test]
    fn sync_copy_blocks_for_modeled_time() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(1 << 20);
            let host = HostBuf::alloc(1 << 20);
            let t0 = now();
            gpu.memcpy(dev, host.base(), 1 << 20);
            let dt = now() - t0;
            let expect = gpu.cost_model().copy1d(CopyDir::H2D, 1 << 20);
            assert_eq!(dt, expect);
        });
    }

    #[test]
    fn memcpy2d_pack_gathers_strided_rows() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            // Device matrix: 4 rows x 8 bytes; extract a 2-byte-wide column
            // block starting at byte 3 of each row.
            let dev = gpu.malloc(32);
            gpu.write_bytes(dev, &(0u8..32).collect::<Vec<_>>());
            let host = HostBuf::alloc(8);
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Host(host.base()),
                dpitch: 2,
                src: Loc::Device(dev.add(3)),
                spitch: 8,
                width: 2,
                height: 4,
            });
            assert_eq!(host.read(0, 8), vec![3, 4, 11, 12, 19, 20, 27, 28]);
        });
    }

    #[test]
    fn memcpy2d_unpack_scatters_rows() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(32);
            let host = HostBuf::from_vec(vec![1, 2, 3, 4, 5, 6]);
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Device(dev.add(1)),
                dpitch: 8,
                src: Loc::Host(host.base()),
                spitch: 2,
                width: 2,
                height: 3,
            });
            let out = gpu.read_bytes(dev, 24);
            assert_eq!(&out[1..3], &[1, 2]);
            assert_eq!(&out[9..11], &[3, 4]);
            assert_eq!(&out[17..19], &[5, 6]);
        });
    }

    #[test]
    fn d2d_pack_is_correct_and_fast() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let src = gpu.malloc(1024);
            let dst = gpu.malloc(256);
            gpu.write_bytes(src, &(0..1024).map(|i| (i % 251) as u8).collect::<Vec<_>>());
            let t0 = now();
            // Pack: width 2 of every 8-byte row, 128 rows.
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Device(dst),
                dpitch: 2,
                src: Loc::Device(src),
                spitch: 8,
                width: 2,
                height: 128,
            });
            let d2d_time = now() - t0;
            let got = gpu.read_bytes(dst, 256);
            let src_bytes = gpu.read_bytes(src, 1024);
            for r in 0..128 {
                assert_eq!(&got[r * 2..r * 2 + 2], &src_bytes[r * 8..r * 8 + 2]);
            }
            // Strided inside the device is cheaper than strided over PCIe.
            let pcie = gpu
                .cost_model()
                .copy2d(CopyDir::D2H, Shape2D::OneStrided, 2, 128);
            assert!(d2d_time < pcie);
        });
    }

    #[test]
    fn async_copies_on_different_engines_overlap() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let d1 = gpu.malloc(1 << 20);
            let d2 = gpu.malloc(1 << 20);
            let h1 = HostBuf::alloc(1 << 20);
            let h2 = HostBuf::alloc(1 << 20);
            let s1 = gpu.create_stream();
            let s2 = gpu.create_stream();
            let t0 = now();
            let c1 = gpu.memcpy_async(d1, h1.base(), 1 << 20, &s1); // H2D engine
            let c2 = gpu.memcpy_async(h2.base(), d2, 1 << 20, &s2); // D2H engine
            c1.wait();
            c2.wait();
            let elapsed = (now() - t0).as_micros_f64();
            let one = gpu
                .cost_model()
                .copy1d(CopyDir::H2D, 1 << 20)
                .as_micros_f64();
            assert!(
                elapsed < 1.5 * one,
                "H2D/D2H should overlap: elapsed {elapsed} vs single {one}"
            );
        });
    }

    #[test]
    fn same_engine_serializes() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let d1 = gpu.malloc(1 << 20);
            let d2 = gpu.malloc(1 << 20);
            let h = HostBuf::alloc(2 << 20);
            let s1 = gpu.create_stream();
            let s2 = gpu.create_stream();
            let t0 = now();
            let c1 = gpu.memcpy_async(d1, h.base(), 1 << 20, &s1);
            let c2 = gpu.memcpy_async(d2, h.ptr(1 << 20), 1 << 20, &s2);
            c1.wait();
            c2.wait();
            let elapsed = (now() - t0).as_micros_f64();
            let one = gpu
                .cost_model()
                .copy1d(CopyDir::H2D, 1 << 20)
                .as_micros_f64();
            assert!(
                elapsed > 1.9 * one,
                "two H2D copies share one engine: elapsed {elapsed} vs single {one}"
            );
        });
    }

    #[test]
    fn stream_orders_operations() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(4096);
            let h = HostBuf::alloc(4096);
            let s = gpu.create_stream();
            let c1 = gpu.memcpy_async(dev, h.base(), 4096, &s);
            let c2 = gpu.memcpy_async(h.base(), dev, 4096, &s);
            // Different engines, same stream: still ordered.
            assert!(c2.done_at().unwrap() >= c1.done_at().unwrap());
            assert!(!s.query());
            s.synchronize();
            assert!(s.query());
        });
    }

    #[test]
    fn kernel_launch_runs_work_and_takes_time() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(16);
            gpu.write_scalars(dev, &[1.0f32, 2.0, 3.0, 4.0]);
            let s = gpu.create_stream();
            let c = gpu.launch_kernel("double", SimDur::from_micros(100), &s, |g| {
                let mut v = g.read_scalars::<f32>(dev, 4);
                for x in &mut v {
                    *x *= 2.0;
                }
                g.write_scalars(dev, &v);
            });
            let t = c.wait();
            assert!(t >= SimTime::from_nanos(100_000));
            assert_eq!(gpu.read_scalars::<f32>(dev, 4), vec![2.0, 4.0, 6.0, 8.0]);
        });
    }

    #[test]
    fn counters_record_api_calls() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(64);
            let h = HostBuf::alloc(64);
            gpu.memcpy(dev, h.base(), 64);
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Host(h.base()),
                dpitch: 2,
                src: Loc::Device(dev),
                spitch: 4,
                width: 2,
                height: 8,
            });
            assert_eq!(gpu.counters().get("cudaMalloc"), 1);
            assert_eq!(gpu.counters().get("cudaMemcpy"), 1);
            assert_eq!(gpu.counters().get("cudaMemcpy2D"), 1);
        });
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn copy_past_allocation_panics() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(64);
            let h = HostBuf::alloc(4096);
            gpu.memcpy(dev, h.base(), 4096);
        });
    }

    #[test]
    #[should_panic(expected = "belongs to gpu")]
    fn cross_gpu_pointer_rejected() {
        in_sim(|| {
            let a = Gpu::tesla_c2050(0);
            let b = Gpu::tesla_c2050(1);
            let pa = a.malloc(64);
            let h = HostBuf::alloc(64);
            b.memcpy(pa, h.base(), 64);
        });
    }

    #[test]
    fn malloc_free_cycle_releases_memory() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let before = gpu.mem_allocated();
            let p = gpu.malloc(1 << 20);
            assert!(gpu.mem_allocated() > before);
            gpu.free(p);
            assert_eq!(gpu.mem_allocated(), before);
            assert_eq!(gpu.live_allocs(), 0);
        });
    }

    #[test]
    fn device_synchronize_waits_for_everything() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(1 << 20);
            let h = HostBuf::alloc(1 << 20);
            let s = gpu.create_stream();
            let c = gpu.memcpy_async(dev, h.base(), 1 << 20, &s);
            gpu.synchronize();
            assert!(c.poll());
        });
    }

    #[test]
    fn memset_fills_and_takes_time() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(1 << 20);
            let t0 = now();
            gpu.memset(dev, 0xaa, 1 << 20);
            assert!(now() > t0);
            assert_eq!(gpu.read_bytes(dev.add(12345), 4), vec![0xaa; 4]);
            // Async variant on a stream.
            let s = gpu.create_stream();
            let c = gpu.memset_async(dev, 0x55, 4096, &s);
            c.wait();
            assert_eq!(gpu.read_bytes(dev, 4), vec![0x55; 4]);
        });
    }

    #[test]
    fn two_gpus_are_independent_devices() {
        in_sim(|| {
            let a = Gpu::tesla_c2050(0);
            let b = Gpu::tesla_c2050(1);
            let pa = a.malloc(16);
            let pb = b.malloc(16);
            a.write_bytes(pa, &[1u8; 16]);
            b.write_bytes(pb, &[2u8; 16]);
            assert_eq!(a.read_bytes(pa, 16), vec![1u8; 16]);
            assert_eq!(b.read_bytes(pb, 16), vec![2u8; 16]);
        });
    }

    /// Reference 2-D copy over plain vectors: gather every source row
    /// first, then scatter (memmove semantics when the ranges overlap).
    fn reference_2d(dst: &mut [u8], p: (usize, usize, usize, usize, usize, usize), src: &[u8]) {
        let (d, dpitch, s, spitch, width, height) = p;
        let rows: Vec<Vec<u8>> = (0..height)
            .map(|r| src[s + r * spitch..s + r * spitch + width].to_vec())
            .collect();
        for (r, row) in rows.iter().enumerate() {
            dst[d + r * dpitch..d + r * dpitch + width].copy_from_slice(row);
        }
    }

    #[test]
    fn row_mover_matches_reference_for_narrow_widths_and_host_endpoints() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let n = 1024;
            let pattern: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
            let a = gpu.malloc(n);
            let b = gpu.malloc(n);
            for width in 1..=17usize {
                for extra in [0usize, 1, 3] {
                    for height in [1usize, 3] {
                        let pitch = width + extra;
                        // Strided source packed into the destination, then
                        // packed source scattered to strided rows.
                        for (spitch, dpitch) in [(pitch, width), (width, pitch)] {
                            let p = (5, dpitch, 2, spitch, width, height);
                            let mut expect = vec![0u8; n];
                            reference_2d(&mut expect, p, &pattern);
                            let shape = |dst: Loc, src: Loc| Copy2d {
                                dst,
                                dpitch,
                                src,
                                spitch,
                                width,
                                height,
                            };
                            // D2D between two allocations.
                            gpu.write_bytes(a, &pattern);
                            gpu.write_bytes(b, &vec![0u8; n]);
                            gpu.memcpy_2d(shape(Loc::Device(b.add(5)), Loc::Device(a.add(2))));
                            assert_eq!(gpu.read_bytes(b, n), expect, "D2D {p:?}");
                            // H2D.
                            let host = HostBuf::from_vec(pattern.clone());
                            gpu.write_bytes(b, &vec![0u8; n]);
                            gpu.memcpy_2d(shape(Loc::Device(b.add(5)), Loc::Host(host.ptr(2))));
                            assert_eq!(gpu.read_bytes(b, n), expect, "H2D {p:?}");
                            // D2H.
                            let out = HostBuf::alloc(n);
                            gpu.memcpy_2d(shape(Loc::Host(out.ptr(5)), Loc::Device(a.add(2))));
                            assert_eq!(out.read(0, n), expect, "D2H {p:?}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn overlapping_d2d_copies_keep_memmove_semantics() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let n = 256;
            let pattern: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let a = gpu.malloc(n);
            // Strided rows packed onto themselves (dst inside src extent),
            // packed rows spread over themselves, and a 1-D shifted copy.
            for p in [
                (2, 4, 0, 8, 4, 8),
                (0, 8, 3, 4, 4, 8),
                (3, 40, 0, 40, 40, 1),
                (0, 40, 3, 40, 40, 1),
            ] {
                let (d, dpitch, s, spitch, width, height) = p;
                let mut expect = pattern.clone();
                reference_2d(&mut expect, p, &pattern);
                gpu.write_bytes(a, &pattern);
                gpu.memcpy_2d(Copy2d {
                    dst: Loc::Device(a.add(d)),
                    dpitch,
                    src: Loc::Device(a.add(s)),
                    spitch,
                    width,
                    height,
                });
                assert_eq!(gpu.read_bytes(a, n), expect, "{p:?}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn strided_d2d_past_allocation_panics() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let src = gpu.malloc(256);
            let dst = gpu.malloc(256);
            // The last row of the source ends past its 256-byte allocation.
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Device(dst),
                dpitch: 4,
                src: Loc::Device(src),
                spitch: 64,
                width: 4,
                height: 5,
            });
        });
    }

    #[test]
    #[should_panic(expected = "belongs to gpu")]
    fn d2d_to_a_foreign_gpu_is_rejected() {
        in_sim(|| {
            let a = Gpu::tesla_c2050(0);
            let b = Gpu::tesla_c2050(1);
            let pa = a.malloc(64);
            let pb = b.malloc(64);
            a.memcpy_2d(Copy2d {
                dst: Loc::Device(pb),
                dpitch: 4,
                src: Loc::Device(pa),
                spitch: 8,
                width: 4,
                height: 4,
            });
        });
    }

    #[test]
    #[should_panic(expected = "belongs to gpu")]
    fn d2h_from_a_foreign_gpu_is_rejected() {
        in_sim(|| {
            let a = Gpu::tesla_c2050(0);
            let b = Gpu::tesla_c2050(1);
            let pb = b.malloc(64);
            let h = HostBuf::alloc(64);
            a.memcpy(h.base(), pb, 64);
        });
    }

    /// Per-run reference of [`Gpu::move_runs`]: one `read_bytes` and one
    /// `write_bytes` per run.
    fn move_runs_reference(
        gpu: &Gpu,
        strided: DevPtr,
        runs: &[(isize, usize)],
        packed: DevPtr,
        gather: bool,
    ) {
        let mut coff = packed;
        for &(rel, len) in runs {
            let u = strided.add_signed(rel);
            let (s, d) = if gather { (u, coff) } else { (coff, u) };
            let bytes = gpu.read_bytes(s, len);
            gpu.write_bytes(d, &bytes);
            coff = coff.add(len);
        }
    }

    /// Run `move_runs` and its reference from the same `pattern` in `a`
    /// and `b` and compare both allocations afterwards.
    fn assert_moves_like_reference(
        gpu: &Gpu,
        (a, b, n): (DevPtr, DevPtr, usize),
        pattern: &[u8],
        strided: DevPtr,
        runs: &[(isize, usize)],
        packed: DevPtr,
        gather: bool,
    ) {
        let reset = || {
            gpu.write_bytes(a, pattern);
            gpu.write_bytes(b, &pattern.iter().map(|x| !x).collect::<Vec<_>>());
        };
        reset();
        move_runs_reference(gpu, strided, runs, packed, gather);
        let expect = (gpu.read_bytes(a, n), gpu.read_bytes(b, n));
        reset();
        gpu.move_runs(strided, runs, packed, gather);
        let got = (gpu.read_bytes(a, n), gpu.read_bytes(b, n));
        assert_eq!(got, expect, "runs {runs:?} gather {gather}");
    }

    #[test]
    fn run_mover_matches_per_run_reference() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let n = 1024;
            let pattern: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
            let (a, b) = (gpu.malloc(n), gpu.malloc(n));
            let mut rng = xorshift::XorShift64::new(0x6D0F);
            for width in 1..=17usize {
                for gather in [true, false] {
                    // Random offsets: runs may overlap each other, and a
                    // scatter with overlapping runs keeps the later bytes.
                    let runs: Vec<(isize, usize)> = (0..12)
                        .map(|_| (rng.gen_range(0, 480) as isize - 16, width))
                        .collect();
                    let packed = b.add(rng.gen_range(0, 8));
                    assert_moves_like_reference(
                        &gpu,
                        (a, b, n),
                        &pattern,
                        a.add(32),
                        &runs,
                        packed,
                        gather,
                    );
                }
            }
            // Layout and packed bytes in one allocation, overlapping: every
            // run reads its bytes before writing them (memmove).
            for gather in [true, false] {
                for runs in [
                    vec![(0isize, 8usize), (4, 8), (16, 8)],
                    vec![(6, 16), (2, 4), (30, 1)],
                ] {
                    assert_moves_like_reference(
                        &gpu,
                        (a, b, n),
                        &pattern,
                        a,
                        &runs,
                        a.add(3),
                        gather,
                    );
                }
            }
        });
    }

    #[test]
    fn run_list_spanning_two_adjacent_allocations_is_accepted() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let x = gpu.malloc(256);
            let y = gpu.malloc(256);
            assert_eq!(
                y.offset(),
                x.offset() + 256,
                "first-fit places them adjacent"
            );
            let packed = gpu.malloc(256);
            gpu.write_bytes(x, &[1u8; 256]);
            gpu.write_bytes(y, &[2u8; 256]);
            // The hull [250, 260) crosses the boundary; each run does not.
            gpu.move_runs(x, &[(250, 4), (256, 4)], packed, true);
            assert_eq!(gpu.read_bytes(packed, 8), vec![1, 1, 1, 1, 2, 2, 2, 2]);
        });
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn run_straddling_two_allocations_faults() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let x = gpu.malloc(256);
            let _y = gpu.malloc(256);
            let packed = gpu.malloc(256);
            gpu.move_runs(x, &[(0, 4), (254, 4)], packed, true);
        });
    }

    #[test]
    #[should_panic(expected = "belongs to gpu")]
    fn run_mover_rejects_a_foreign_gpu_pointer() {
        in_sim(|| {
            let a = Gpu::tesla_c2050(0);
            let b = Gpu::tesla_c2050(1);
            let pa = a.malloc(64);
            let pb = b.malloc(64);
            a.move_runs(pb, &[(0, 4), (8, 4)], pa, true);
        });
    }
}
