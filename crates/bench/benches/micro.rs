//! Micro-benchmarks of the hot paths under the simulator: datatype
//! commit, CPU packing, the simulation kernel itself and
//! the GPU data plane. These guard the *real* performance of the library code
//! (wall-clock), complementing the virtual-time experiment harness.
//!
//! Plain `harness = false` main (no external bench framework): each case
//! runs a fixed iteration count and reports mean/min wall time.

use gpu_sim::Gpu;
use hostmem::HostBuf;
use mpi_sim::pack::PackCursor;
use mpi_sim::Datatype;
use sim_core::{ExecMode, Sim, SimDur};
use sim_trace::{LaneKind, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Run `f` `iters` times and print per-iteration mean and min.
fn bench<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
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
    bench(&format!("datatype_commit/{rows}_rows"), 20, || {
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
    bench("cpu_pack/gather_256k_over_64k_runs", 20, || {
        let mut cursor = PackCursor::from_plan(buf.base(), Arc::clone(&plan));
        cursor.pack_all().len()
    });
}

fn bench_sim_kernel() {
    bench("sim_10k_timer_events", 20, || {
        let sim = Sim::new();
        sim.spawn("p", || {
            for _ in 0..10_000 {
                sim_core::sleep(SimDur::from_nanos(10));
            }
        });
        sim.run()
    });
    bench("sim_spawn_join_8_processes", 20, || {
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
    bench("sim_spawn_run_1024_empty_fibers", 20, || {
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
    bench("trace_register_16384_lanes_off", 20, || {
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
        bench(&format!("gpu_copy/memcpy_2d_{rows}_rows"), 20, || {
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

fn main() {
    bench_commit();
    bench_cpu_pack();
    bench_sim_kernel();
    bench_trace_registry();
    bench_gpu_data_plane();
}
