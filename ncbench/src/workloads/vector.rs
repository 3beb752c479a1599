//! `vector_4m`: the paper's Figure 5 headline. Two ranks on two nodes;
//! rank 0 sends back-to-back one-way messages of a device-resident vector
//! (4-byte rows at a 16-byte pitch) to rank 1 with a barrier between them,
//! under the default `MpiConfig` (adaptive chunking, `Auto { offload:
//! false }`), so every message takes the staged 5-stage pipeline. The
//! receiver checks every message's bytes, holes included.
//!
//! The seed draws the pattern the rows carry and trims the vector by up to
//! 4095 rows below 2^20 (4 MiB), so virtual times differ a little between
//! seeds and repeat exactly for one seed. [`Params::paper`] is the exact
//! committed `BENCH_pipeline.json` configuration.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mpi_sim::Datatype;
use mv2_gpu_nc::baselines::VectorXfer;
use mv2_gpu_nc::GpuCluster;
use sim_core::{ExecMode, SimTime};

use super::{mix, secs, Bench, Ctx, Marks, Round, Shared, Virt};
use crate::clock::CpuInstant;
use crate::trace::{host_layers, recorder_layers, GPU_ENGINES};

/// Tag of the untimed warm-up message.
const WARMUP_TAG: u32 = 99_999;

#[derive(Clone)]
pub struct Params {
    /// Rows of 4 bytes each.
    pub rows: usize,
    /// Timed messages after the warm-up.
    pub msgs: usize,
    /// Sender and receiver images of the two alternating messages: the
    /// sender's whole strided extent, and what the receiver must hold
    /// after it (the rows, holes untouched).
    images: Arc<[(Vec<u8>, Vec<u8>); 2]>,
}

impl Params {
    pub fn new(rows: usize, msgs: usize, seed: u64) -> Params {
        let x = VectorXfer::paper(rows * 4);
        let image = |k: u64| {
            let salt = mix(seed, 2 + k) as u8;
            let send: Vec<u8> = (0..x.extent())
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
                .collect();
            let mut recv = vec![0u8; x.extent()];
            for r in 0..x.height() {
                let o = r * x.stride;
                recv[o..o + x.elem].copy_from_slice(&send[o..o + x.elem]);
            }
            (send, recv)
        };
        Params {
            rows,
            msgs,
            images: Arc::new([image(0), image(1)]),
        }
    }

    pub fn from_seed(seed: u64) -> Params {
        Params::new((1 << 20) - (mix(seed, 1) % 4096) as usize, 8, seed)
    }

    /// The 4 MiB adaptive point of `BENCH_pipeline.json`: 2^20 rows, one
    /// warm-up and 8 timed messages.
    pub fn paper() -> Params {
        Params::new(1 << 20, 8, 0)
    }

    pub fn xfer(&self) -> VectorXfer {
        VectorXfer::paper(self.rows * 4)
    }
}

#[derive(Default)]
struct State {
    marks: Marks,
    /// Per message: earliest host instant a rank left the barrier, and the
    /// receiver's host instant after the message landed.
    host_start: Vec<Option<CpuInstant>>,
    host_end: Vec<Option<CpuInstant>>,
    /// Per message: virtual one-way latency and window.
    lat_ns: Vec<u64>,
    windows: Vec<(SimTime, SimTime)>,
    failed: u64,
    queue_wait_ns: BTreeMap<String, u64>,
}

impl Bench for Params {
    fn ops(&self) -> u64 {
        self.msgs as u64 + 1
    }

    fn ranks(&self) -> usize {
        2
    }

    fn probe_type(&self) -> (Datatype, usize) {
        (self.xfer().dtype(), 1)
    }

    fn required_lanes(&self) -> &'static [&'static str] {
        &[
            "stage/pack",
            "stage/d2h",
            "stage/rdma",
            "stage/h2d",
            "stage/unpack",
            "gpu/d2h",
            "gpu/h2d",
            "gpu/d2d",
            "hca/hca_tx",
        ]
    }

    fn round(&self, ctx: &Ctx) -> Round {
        let images = Arc::clone(&self.images);
        let st = Shared::<State>::default();
        {
            let mut s = st.lock();
            s.host_start = vec![None; self.msgs];
            s.host_end = vec![None; self.msgs];
        }
        let p = self.clone();
        let spans = ctx.spans.clone();
        let launch = Instant::now();
        let launch_cpu = CpuInstant::now();
        let root = spans.open_at(launch);
        let mut cluster = GpuCluster::new(2)
            .exec(ExecMode::Event)
            .recorder(ctx.rec.clone());
        if let Some(w) = &ctx.wake {
            cluster = cluster.wake_trace(w.clone());
        }
        let state = st.clone();
        let end_virt = cluster.run(move |env| {
            let me = env.comm.rank();
            let rank = me as i64;
            spans.close(
                spans.open_at(launch),
                "launch",
                "sim_core",
                rank,
                0,
                root.id(),
            );
            let x = p.xfer();
            let dt = spans.time("commit", "mpi_sim", rank, 0, root.id(), || x.dtype());
            let dev = env.gpu.malloc(x.extent());
            let check = |k: usize| {
                let got = env.gpu.read_bytes(dev, x.extent());
                if got != images[k % 2].1 {
                    state.lock().failed += 1;
                }
            };
            // Untimed warm-up: fills the staging pools on both sides and
            // gives the adaptive tuner its first observation.
            if me == 0 {
                env.gpu.write_bytes(dev, &images[0].0);
                env.comm.send(dev, 1, &dt, 1, WARMUP_TAG);
            } else {
                env.comm.recv(dev, 1, &dt, 0, WARMUP_TAG);
                check(0);
            }
            state.lock().marks.ready.push(CpuInstant::now());
            for k in 0..p.msgs {
                let op = k as u64 + 1;
                if me == 0 {
                    env.gpu.write_bytes(dev, &images[(k + 1) % 2].0);
                }
                spans.time("barrier", "mpi_sim", rank, op, root.id(), || {
                    env.comm.barrier()
                });
                let t0 = sim_core::now();
                let h0 = CpuInstant::now();
                {
                    let mut s = state.lock();
                    let slot = &mut s.host_start[k];
                    *slot = Some(slot.map_or(h0, |t| t.min(h0)));
                }
                if me == 0 {
                    spans.time("send", "mpi_sim", rank, op, root.id(), || {
                        env.comm.send(dev, 1, &dt, 1, k as u32)
                    });
                } else {
                    spans.time("recv", "mpi_sim", rank, op, root.id(), || {
                        env.comm.recv(dev, 1, &dt, 0, k as u32)
                    });
                    let t1 = sim_core::now();
                    {
                        let mut s = state.lock();
                        s.host_end[k] = Some(CpuInstant::now());
                        s.lat_ns.push((t1 - t0).as_nanos());
                        s.windows.push((t0, t1));
                    }
                    spans.time("verify", "bench", rank, op, root.id(), || check(k + 1));
                }
            }
            env.gpu.free(dev);
            let mut s = state.lock();
            add_queue_waits(&mut s.queue_wait_ns, &env.gpu);
            s.marks.exited.push(CpuInstant::now());
        });
        let end = CpuInstant::now();
        ctx.spans.close(root, "round", "bench", -1, 0, 0);
        let s = st.lock();
        let (setup_s, run_s, finalize_s) = s.marks.phases(launch_cpu, end);
        let msg_host_us = s
            .host_start
            .iter()
            .zip(&s.host_end)
            .filter_map(|(a, b)| Some(secs((*a)?, (*b)?) * 1e6))
            .collect();
        let mut r = Round {
            setup_s,
            run_s,
            msg_host_us,
            virt: Virt {
                op_ns: s.lat_ns.clone(),
                makespan_ns: end_virt.as_nanos(),
                marks: Vec::new(),
            },
            attempted: self.ops(),
            failed: s.failed,
            ..Round::default()
        };
        if ctx.is_traced() {
            r.layers = recorder_layers(&ctx.rec, &s.windows, &s.queue_wait_ns);
            let sp = ctx.spans.snapshot();
            r.layers.insert("mpi_sim.finalize_s".into(), finalize_s);
            r.layers.extend(host_layers(&sp));
        }
        r
    }
}

/// Add one GPU's per-engine queue waits (ns) to `acc`. Every workload
/// calling this runs one rank per node, so each GPU is added once.
pub fn add_queue_waits(acc: &mut BTreeMap<String, u64>, gpu: &gpu_sim::Gpu) {
    let q = gpu.queue_waits();
    for e in GPU_ENGINES {
        *acc.entry(e.to_string()).or_insert(0) += q.get(&format!("queue_wait.{e}"));
    }
}
