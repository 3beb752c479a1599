//! `halo3d_1024`: a 16×8×8 grid of ranks, one per node, each owning a
//! block of f32 cells, exchanging six ~1 KiB subarray halos per Jacobi
//! step with the MV2 variant (device buffers + datatypes). The benchmark
//! drives `Halo3dRank::new` / `step` itself and checks every rank's block
//! against the serial `halo3d::reference_run`.
//!
//! The seed picks the block shape among the six orderings of 15×16×17
//! cells: the halo faces change size by up to 1/16 per axis, so virtual
//! times differ a little between seeds, while the cell count (host work)
//! stays within 0.4% of 16³.
//! [`Params::committed`] is the 1024-rank point of `BENCH_rank_scale.json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use halo3d::{reference_run, Halo3dParams, Halo3dRank, Variant};
use mpi_sim::Datatype;
use mv2_gpu_nc::GpuCluster;
use sim_core::ExecMode;

use super::{mix, Bench, Ctx, Marks, Round, Shared, Virt};
use crate::calib;
use crate::clock::CpuInstant;
use crate::trace::{host_layers, instances, recorder_layers};
use crate::workloads::vector::add_queue_waits;

/// Seeded block shapes: every ordering of 15×16×17.
const SHAPES: [(usize, usize, usize); 6] = [
    (15, 16, 17),
    (15, 17, 16),
    (16, 15, 17),
    (16, 17, 15),
    (17, 15, 16),
    (17, 16, 15),
];

#[derive(Clone)]
pub struct Params {
    pub p: Halo3dParams,
    /// Serial reference of the whole grid after `p.iters` steps.
    reference: Arc<Vec<f32>>,
}

impl Params {
    pub fn new(p: Halo3dParams) -> Params {
        let n = (
            p.grid.0 * p.local.0,
            p.grid.1 * p.local.1,
            p.grid.2 * p.local.2,
        );
        Params {
            p,
            reference: Arc::new(reference_run::<f32>(n, p.iters)),
        }
    }

    pub fn from_seed(seed: u64) -> Params {
        Params::new(Halo3dParams {
            grid: (16, 8, 8),
            local: SHAPES[(mix(seed, 1) % SHAPES.len() as u64) as usize],
            iters: 2,
        })
    }

    /// `BENCH_rank_scale.json`'s 1024-rank point: 16×8×8 ranks, 16³ cells
    /// each, 2 steps.
    pub fn committed() -> Params {
        Params::new(Halo3dParams {
            grid: (16, 8, 8),
            local: (16, 16, 16),
            iters: 2,
        })
    }

    /// Whether `rank`'s interior equals its block of the reference.
    fn matches(&self, rank: usize, interior: &[f32]) -> bool {
        let (ni, nj, nk) = self.p.local;
        let (ci, cj, ck) = self.p.coords(rank);
        let (gj, gk) = (self.p.grid.1 * nj, self.p.grid.2 * nk);
        let mut it = interior.iter();
        for i in 0..ni {
            for j in 0..nj {
                let row = ((ci * ni + i) * gj + cj * nj + j) * gk + ck * nk;
                for r in &self.reference[row..row + nk] {
                    match it.next() {
                        Some(v) if v.to_bits() == r.to_bits() => {}
                        _ => return false,
                    }
                }
            }
        }
        it.next().is_none()
    }
}

#[derive(Default)]
struct State {
    marks: Marks,
    /// Per rank, per step: virtual ns.
    step_ns: Vec<(usize, Vec<u64>)>,
    /// Per rank: virtual ns from the warm-up barrier to the closing one.
    elapsed_ns: Vec<u64>,
    failed_ranks: u64,
    queue_wait_ns: BTreeMap<String, u64>,
    /// Calibration readings taken after each step, and their CPU cost.
    calib_inside: Vec<f64>,
    calib_cost_s: f64,
}

impl Bench for Params {
    fn ops(&self) -> u64 {
        (self.p.nranks() * self.p.iters) as u64
    }

    fn ranks(&self) -> usize {
        self.p.nranks()
    }

    fn probe_type(&self) -> (Datatype, usize) {
        // The largest halo face: an (ni+2)×(nj+2)×(nk+2) f32 block's k-plane.
        let (ni, nj, nk) = self.p.local;
        let sizes = [ni + 2, nj + 2, nk + 2];
        let t = Datatype::subarray(
            &sizes,
            &[ni, nj, 1],
            &[1, 1, 1],
            mpi_sim::SubarrayOrder::C,
            &Datatype::float(),
        );
        t.commit();
        (t, 1)
    }

    fn required_lanes(&self) -> &'static [&'static str] {
        &["gpu/compute", "hca/hca_tx"]
    }

    fn round(&self, ctx: &Ctx) -> Round {
        let st = Shared::<State>::default();
        let params = self.clone();
        let p = self.p;
        let spans = ctx.spans.clone();
        let launch = Instant::now();
        let launch_cpu = CpuInstant::now();
        let root = spans.open_at(launch);
        let mut cluster = GpuCluster::new(p.nranks())
            .exec(ExecMode::Event)
            .recorder(ctx.rec.clone());
        if let Some(w) = &ctx.wake {
            cluster = cluster.wake_trace(w.clone());
        }
        let state = st.clone();
        let sample_inside = !ctx.is_traced();
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
            let mut rk = spans.time("init", "halo3d", rank, 0, root.id(), || {
                Halo3dRank::<f32>::new(env, p)
            });
            spans.time("barrier", "mpi_sim", rank, 0, root.id(), || {
                env.comm.barrier()
            });
            state.lock().marks.ready.push(CpuInstant::now());
            let t0 = sim_core::now();
            let mut steps = Vec::with_capacity(p.iters);
            for it in 0..p.iters {
                let s0 = sim_core::now();
                spans.time("step", "halo3d", rank, it as u64 + 1, root.id(), || {
                    rk.step(Variant::Mv2)
                });
                steps.push((sim_core::now() - s0).as_nanos());
                // A round runs for about two seconds, longer than the host's
                // speed holds still, so untraced rounds also calibrate
                // inside it. Only rank 0 does, between its steps; no other
                // fiber runs meanwhile and virtual time does not move. Past
                // step 1 every rank has left set-up, so this lies in `run_s`.
                if me == 0 && sample_inside {
                    let (c, cost) = calib::calib_inside();
                    let mut s = state.lock();
                    s.calib_inside.push(c);
                    s.calib_cost_s += cost;
                }
            }
            let closing = p.iters as u64 + 1;
            spans.time("barrier", "mpi_sim", rank, closing, root.id(), || {
                env.comm.barrier()
            });
            let elapsed = (sim_core::now() - t0).as_nanos();
            let ok = params.matches(me, &rk.interior());
            rk.free();
            let mut s = state.lock();
            s.step_ns.push((me, steps));
            s.elapsed_ns.push(elapsed);
            s.failed_ranks += u64::from(!ok);
            add_queue_waits(&mut s.queue_wait_ns, &env.gpu);
            s.marks.exited.push(CpuInstant::now());
        });
        let end = CpuInstant::now();
        ctx.spans.close(root, "round", "bench", -1, 0, 0);
        let mut s = st.lock();
        let (setup_s, run_s, finalize_s) = s.marks.phases(launch_cpu, end);
        let run_s = run_s - s.calib_cost_s;
        s.step_ns.sort_by_key(|(r, _)| *r);
        let op_ns: Vec<u64> = s.step_ns.iter().flat_map(|(_, v)| v.clone()).collect();
        let msgs = ctx
            .rec
            .metrics()
            .iter()
            .filter(|(k, _)| k.ends_with(".MPI_Isend") || k.ends_with(".MPI_Send"))
            .map(|(_, v)| *v)
            .sum::<u64>();
        let mut r = Round {
            setup_s,
            run_s,
            // Messages run concurrently here: one amortized sample.
            msg_host_us: vec![run_s * 1e6 / msgs.max(1) as f64],
            virt: Virt {
                op_ns,
                makespan_ns: end_virt.as_nanos(),
                marks: vec![s.elapsed_ns.iter().copied().max().unwrap_or(0)],
            },
            attempted: self.ops(),
            failed: s.failed_ranks * p.iters as u64,
            calib_inside: s.calib_inside.clone(),
            ..Round::default()
        };
        if ctx.is_traced() {
            r.layers = recorder_layers(&ctx.rec, &[], &s.queue_wait_ns);
            let sp = ctx.spans.snapshot();
            r.layers.insert("mpi_sim.finalize_s".into(), finalize_s);
            r.layers.extend(host_layers(&sp));
            // Set-up's host time in `Halo3dRank::new`: first rank in to
            // last rank out (ranks interleave inside it).
            let init = instances(&sp, "init")
                .values()
                .map(|&(first_in, _, last_out)| (last_out - first_in) as f64 / 1e9)
                .fold(0.0, f64::max);
            r.layers.insert("halo3d.init_s".into(), init);
            // A step's host time: first rank in to last rank out.
            let steps: Vec<f64> = instances(&sp, "step")
                .values()
                .map(|&(first_in, _, last_out)| (last_out - first_in) as f64 / 1e6)
                .collect();
            r.layers
                .insert("halo3d.step_host_ms".into(), crate::stats::median(&steps));
        }
        r
    }
}
