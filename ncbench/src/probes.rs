//! Layer probes for the traced run: host cost of one call into a single
//! layer, repeated and reported as a median. Each probe runs the layer
//! alone (its own `Sim`, GPU or fabric where it needs one), at the
//! workload's rank count or datatype where that matters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_sim::{Copy2d, CostModel, Gpu};
use hostmem::HostBuf;
use ib_sim::{Fabric, NetModel};
use mpi_sim::pack::PackCursor;
use mpi_sim::{Datatype, MpiConfig, Plan, WireDescriptor};
use sim_core::{ExecMode, Sim, SimDur};

use crate::stats::median;
use crate::workloads::zoo::Layout;

/// Median host seconds of `reps` runs of `f`.
fn med_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Run `body` on one fiber of a fresh event-mode `Sim`; returns what it
/// reports.
fn in_sim<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let sim = Sim::new();
    sim.set_exec_mode(ExecMode::Event);
    let out: Arc<Mutex<Option<T>>> = Arc::default();
    let sink = Arc::clone(&out);
    sim.spawn("probe", move || {
        *sink
            .lock()
            .expect("probe result poisoned by a panicked probe") = Some(body())
    });
    sim.run();
    let v = out
        .lock()
        .expect("probe result poisoned by a panicked probe")
        .take();
    v.expect("probe fiber finished")
}

/// `Sim::spawn` host cost per process, at `ranks` processes per `Sim`.
fn spawn_us(ranks: usize) -> f64 {
    let reps = (4096 / ranks).clamp(3, 256);
    med_secs(reps, || {
        let sim = Sim::new();
        sim.set_exec_mode(ExecMode::Event);
        let t = timed(|| {
            for i in 0..ranks {
                sim.spawn(format!("rank{i}"), || {});
            }
        });
        sim.run();
        t
    }) * 1e6
        / ranks as f64
}

/// Host cost of one timer sleep/wake round trip of a fiber.
fn wake_ns() -> f64 {
    const N: u32 = 20_000;
    med_secs(3, || {
        in_sim(|| {
            timed(|| {
                for _ in 0..N {
                    sim_core::sleep(SimDur::from_nanos(1));
                }
            })
        })
    }) * 1e9
        / f64::from(N)
}

/// `Gpu::memcpy_2d` D2D at the paper vector geometry (2^20 4-byte rows at
/// a 16-byte pitch, packed to a 4-byte pitch), and one adaptive-chunk-sized
/// D2H `Gpu::memcpy`. Milliseconds and microseconds.
fn gpu_copies() -> (f64, f64) {
    in_sim(|| {
        let gpu = Gpu::new(0, CostModel::tesla_c2050(), 64 << 20);
        let rows = 1 << 20;
        let src = gpu.malloc(rows * 16);
        let dst = gpu.malloc(rows * 4);
        let d2d = med_secs(5, || {
            timed(|| {
                gpu.memcpy_2d(Copy2d {
                    dst: dst.into(),
                    dpitch: 4,
                    src: src.into(),
                    spitch: 16,
                    width: 4,
                    height: rows,
                })
            })
        });
        let chunk = MpiConfig::default().chunk_size;
        let host = HostBuf::alloc(chunk);
        host.pin();
        let d2h = med_secs(21, || timed(|| gpu.memcpy(host.base(), src, chunk)));
        (d2d * 1e3, d2h * 1e6)
    })
}

/// Host-memory movers: `HostBuf::copy` bandwidth over 4 MiB (GB/s) and a
/// 1 MiB `read_strided` of 64-byte rows at a 128-byte pitch (ms).
fn hostmem_movers() -> (f64, f64) {
    let len = 4 << 20;
    let a = HostBuf::from_vec(vec![7u8; len]);
    let b = HostBuf::from_vec(vec![0u8; len]);
    let copy = med_secs(11, || timed(|| HostBuf::copy(&a.base(), &b.base(), len)));
    let rows = (1 << 20) / 64;
    let mut out = vec![0u8; 1 << 20];
    let strided = med_secs(11, || timed(|| a.read_strided(0, 128, 64, rows, &mut out)));
    (len as f64 / copy / 1e9, strided * 1e3)
}

/// CPU pack of the irregular 1 MiB type through `PackCursor` (ms).
fn cpu_pack_ms() -> f64 {
    let (t, count, len) = Layout::Irregular.build(1 << 20);
    t.commit();
    let plan = t.plan(count);
    let buf = HostBuf::from_vec(vec![3u8; len]);
    med_secs(5, || {
        timed(|| {
            let mut c = PackCursor::from_plan(buf.base(), Arc::clone(&plan));
            std::hint::black_box(c.pack_all());
        })
    }) * 1e3
}

/// `Nic::rdma_write` of 1 MiB and `Nic::rdma_write_sg` of the two-level
/// strided 1 MiB layout (64 descriptor entries), host µs per call.
fn rdma_writes() -> (f64, f64) {
    let (t, count, extent) = Layout::Strided2d.build(1 << 20);
    t.commit();
    let sg = WireDescriptor::lower(&t.plan(count), MpiConfig::default().offload_entry_budget)
        .expect("strided2d lowers")
        .to_sg(0);
    in_sim(move || {
        let fabric = Fabric::new(2, NetModel::qdr());
        let (tx, rx) = (fabric.nic(0), fabric.nic(1));
        let len = 1 << 20;
        let src = HostBuf::from_vec(vec![5u8; extent.max(len)]);
        let dst = HostBuf::alloc(extent.max(len));
        tx.register(&src);
        let key = rx.register(&dst);
        let flat = med_secs(21, || {
            timed(|| {
                tx.rdma_write(1, key, 0, &src.base(), len).wait();
            })
        });
        let sgw = med_secs(21, || {
            timed(|| {
                tx.rdma_write_sg(1, key, &src.base(), &sg, &sg).wait();
            })
        });
        (flat * 1e6, sgw * 1e6)
    })
}

/// Every probe, keyed by per-layer metric name.
pub fn run(ranks: usize, plan_type: &(Datatype, usize)) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("sim_core.spawn_us".into(), spawn_us(ranks));
    m.insert("sim_core.wake_ns".into(), wake_ns());
    let (dt, count) = plan_type;
    let flat = dt.flat();
    m.insert(
        "mpi_sim.plan_build_ms".into(),
        med_secs(5, || timed(|| drop(Plan::build(&flat, *count)))) * 1e3,
    );
    let (d2d, d2h) = gpu_copies();
    m.insert("gpu_sim.memcpy2d_ms".into(), d2d);
    m.insert("gpu_sim.memcpy_us".into(), d2h);
    let (gbps, strided) = hostmem_movers();
    m.insert("hostmem.copy_gbps".into(), gbps);
    m.insert("hostmem.strided_ms".into(), strided);
    m.insert("mpi_sim.cpu_pack_ms".into(), cpu_pack_ms());
    let (w, sg) = rdma_writes();
    m.insert("ib_sim.rdma_write_us".into(), w);
    m.insert("ib_sim.rdma_write_sg_us".into(), sg);
    m
}
