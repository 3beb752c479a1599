//! Micro-benchmarks of the hot paths under the simulator: datatype
//! commit, CPU packing, the simulation kernel itself and
//! the GPU data plane. These guard the *real* performance of the library code
//! (wall-clock), complementing the virtual-time experiment harness.
//!
//! Plain `harness = false` main (no external bench framework): each case
//! runs `MICRO_ITERS` iterations (default 20) after one warm-up and
//! reports mean/min wall time. `MICRO_ITERS=1` is a quick smoke run of
//! every case.

use gpu_sim::Gpu;
use hostmem::HostBuf;
use ib_sim::{Fabric, NetModel, SgEntry};
use mpi_sim::pack::{PackCursor, UnpackCursor};
use mpi_sim::Datatype;
use mv2_gpu_nc::SegmentMap;
use sim_core::{ExecMode, Sim, SimDur};
use sim_trace::{LaneKind, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Iterations per case: `MICRO_ITERS`, default 20.
fn iters() -> usize {
    std::env::var("MICRO_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Run `f` [`iters`] times and print per-iteration mean and min.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    let iters = iters();
    f(); // warm-up
    let mut min = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        min = min.min(dt);
        total += dt;
    }
    println!(
        "{name:<40} mean {:>10.1} us   min {:>10.1} us   ({iters} iters)",
        total / iters as f64 * 1e6,
        min * 1e6
    );
}

/// Commit of the paper's vector shape at 131072 rows: the datatype tree
/// canonicalizes to a one-block stride program, so this is independent of
/// the row count. Also reports the heap bytes of the message's plan.
fn bench_commit() {
    let rows = 1usize << 17;
    bench(&format!("datatype_commit/{rows}_rows"), || {
        let dt = Datatype::vector(rows, 1, 4, &Datatype::float());
        dt.commit();
        dt.flat().program().blocks().len()
    });
    let dt = Datatype::vector(rows, 1, 4, &Datatype::float());
    dt.commit();
    println!(
        "{:<40} {} bytes",
        format!("plan_heap_bytes/{rows}_rows"),
        dt.plan(1).heap_bytes()
    );
}

fn bench_cpu_pack() {
    let dt = Datatype::vector(1 << 16, 1, 4, &Datatype::float());
    dt.commit();
    let plan = dt.plan(1);
    let buf = HostBuf::from_vec(vec![1u8; 1 << 20]);
    bench("cpu_pack/gather_256k_over_64k_runs", || {
        let mut cursor = PackCursor::from_plan(buf.base(), Arc::clone(&plan));
        cursor.pack_all().len()
    });
}

/// 1 MiB packed through an irregular host layout (hindexed blocks of 96
/// and 160 bytes with 32-byte holes), packed and unpacked whole.
fn bench_cpu_pack_irregular() {
    let blocks: Vec<(usize, isize)> = (0..8192)
        .map(|i| {
            (
                if i % 2 == 0 { 96 } else { 160 },
                (i / 2 * 320 + i % 2 * 128) as isize,
            )
        })
        .collect();
    let dt = Datatype::hindexed(&blocks, &Datatype::byte());
    dt.commit();
    let plan = dt.plan(1);
    assert_eq!(plan.total(), 1 << 20);
    let src = HostBuf::from_vec(vec![1u8; 4096 * 320]);
    let dst = HostBuf::alloc(4096 * 320);
    bench("cpu_pack/irregular_1MiB", || {
        let packed = PackCursor::from_plan(src.base(), Arc::clone(&plan)).pack_all();
        UnpackCursor::from_plan(dst.base(), Arc::clone(&plan)).unpack_from(&packed);
        packed.len()
    });
}

fn bench_sim_kernel() {
    bench("sim_10k_timer_events", || {
        let sim = Sim::new();
        sim.spawn("p", || {
            for _ in 0..10_000 {
                sim_core::sleep(SimDur::from_nanos(10));
            }
        });
        sim.run()
    });
    bench("sim_spawn_join_8_processes", || {
        let sim = Sim::new();
        for i in 0..8 {
            sim.spawn(format!("p{i}"), move || {
                for _ in 0..100 {
                    sim_core::sleep(SimDur::from_micros(1));
                }
            });
        }
        sim.run()
    });
    // Launch cost of a 1024-rank world's carriers: each fiber gets its own
    // stack and is switched into once.
    bench("sim_spawn_run_1024_empty_fibers", || {
        let sim = Sim::new();
        sim.set_exec_mode(ExecMode::Event);
        for i in 0..1024 {
            sim.spawn(format!("p{i}"), || {});
        }
        sim.run()
    });
}

/// Lane registration at launch of a 1024-rank world: 16 lanes per rank on
/// a disabled recorder, as every untraced run registers them.
fn bench_trace_registry() {
    let keys: Vec<(String, &str)> = (0..1024)
        .flat_map(|r| {
            [
                "proto", "pack", "d2h", "rdma", "h2d", "unpack", "pool", "tuner",
            ]
            .into_iter()
            .flat_map(move |l| [(format!("rank{r}"), l), (format!("gpu{r}"), l)])
        })
        .collect();
    bench("trace_register_16384_lanes_off", || {
        let rec = Recorder::off();
        for (scope, name) in &keys {
            rec.lane(scope, name, LaneKind::Proto);
        }
        rec.lanes().len()
    });
}

/// `Gpu::memcpy_2d` D2D at the paper's 4 MiB vector geometry: 2^20
/// four-byte rows at a 16-byte pitch, packed to a 4-byte pitch. Timed
/// inside one simulated process, so only the row mover is measured.
fn bench_gpu_data_plane() {
    let sim = Sim::new();
    sim.spawn("p", || {
        let rows = 1usize << 20;
        let gpu = Gpu::new(0, gpu_sim::CostModel::tesla_c2050(), 64 << 20);
        let src = gpu.malloc(rows * 16);
        let dst = gpu.malloc(rows * 4);
        bench(&format!("gpu_copy/memcpy_2d_{rows}_rows"), || {
            gpu.memcpy_2d(gpu_sim::Copy2d {
                dst: gpu_sim::Loc::Device(dst),
                dpitch: 4,
                src: gpu_sim::Loc::Device(src),
                spitch: 16,
                width: 4,
                height: rows,
            })
        });
    });
    sim.run();
}

/// The device gather kernel over 256 irregular 4-byte runs: one
/// `SegmentMap::gather` that lands on the pack kernel, timed inside one
/// simulated process.
fn bench_gpu_pack_kernel() {
    let sim = Sim::new();
    sim.spawn("p", || {
        let blocks: Vec<(usize, isize)> = (0..256).map(|i| (1, i * 4 + i % 3)).collect();
        let dt = Datatype::indexed(&blocks, &Datatype::float());
        dt.commit();
        let map = SegmentMap::from_plan(dt.plan(1));
        let gpu = Gpu::new(0, gpu_sim::CostModel::tesla_c2050(), 1 << 20);
        let stream = gpu.create_stream();
        let user = gpu.malloc(8192);
        let packed = gpu.malloc(1024);
        bench("gpu_pack/kernel_256_runs", || {
            map.gather(&gpu, &stream, user, 0, map.total(), packed)
                .wait()
        });
    });
    sim.run();
}

/// One NIC scatter/gather write of 4096 gather entries (64-byte blocks at
/// a 96-byte pitch, one entry each) into one contiguous MR run.
fn bench_rdma_write_sg() {
    let entries = 4096;
    let fabric = Fabric::new(2, NetModel::qdr());
    let src = HostBuf::from_vec(vec![3u8; entries * 96]);
    let target = HostBuf::alloc(entries * 64);
    fabric.nic(0).register(&src);
    let key = fabric.nic(1).register(&target);
    let gather: Vec<SgEntry> = (0..entries)
        .map(|i| SgEntry {
            offset: i * 96,
            len: 64,
            stride: 64,
            count: 1,
        })
        .collect();
    let scatter = [SgEntry {
        offset: 0,
        len: entries * 64,
        stride: entries * 64,
        count: 1,
    }];
    let sim = Sim::new();
    sim.spawn("p", move || {
        let nic = fabric.nic(0);
        bench(&format!("ib/rdma_write_sg_{entries}_entries"), || {
            nic.rdma_write_sg(1, key, &src.base(), &gather, &scatter)
                .wait()
        });
    });
    sim.run();
}

fn main() {
    bench_commit();
    bench_cpu_pack();
    bench_cpu_pack_irregular();
    bench_sim_kernel();
    bench_trace_registry();
    bench_gpu_data_plane();
    bench_gpu_pack_kernel();
    bench_rdma_write_sg();
}
