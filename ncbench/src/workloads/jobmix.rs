//! `jobmix`: an open-loop multi-job campaign — `cluster_sim::generate`
//! plus `run_mix` on 8 nodes with exclusive placement and fair QoS. The
//! tenants are the five self-verifying job families (halo3d, stencil2d,
//! transpose via alltoallv, gradient allreduce, OSU), arriving as a
//! Poisson process whose mean gap keeps the cluster below saturation.
//!
//! The campaign — job families, heavy-tailed scales and base arrival
//! instants — is `cluster_sim::generate` at a fixed campaign seed. The run
//! seed stretches or shrinks each inter-arrival gap by up to 2%: a fresh
//! heavy-tailed mix per seed moves the response-time median by ~40%
//! between seeds at 96 jobs (still ~17% at 384), which would hide any
//! regression smaller than that, while the jitter moves it by a few
//! percent and keeps the mix itself fixed.

use std::time::Instant;

use cluster_sim::{
    generate, run_mix, ClusterOutcome, ClusterParams, JobPlan, MixParams, Placement,
};
use mpi_sim::Datatype;
use mv2_gpu_nc::baselines::VectorXfer;
use sim_core::ExecMode;
use sim_trace::Recorder;

use xorshift::XorShift64;

use super::{mix, secs, Bench, Ctx, Round, Virt};
use crate::clock::CpuInstant;
use crate::stats::pct;
use crate::trace::recorder_layers;

/// Jobs per campaign.
pub const JOBS: usize = 96;
/// Mean inter-arrival gap, µs of virtual time. The committed `job_mix`
/// gap of 400 µs overloads 8 nodes (the backlog grows without bound);
/// at this gap the response-time median holds steady as the campaign
/// grows.
pub const GAP_US: f64 = 1500.0;
/// Seed of the fixed campaign (the committed `job_mix` default).
pub const CAMPAIGN_SEED: u64 = 20211;
/// Largest relative change the run seed makes to one inter-arrival gap.
pub const GAP_JITTER: f64 = 0.02;
/// Jobs of the untimed warm-up campaign run during set-up.
const WARMUP_JOBS: usize = 5;

#[derive(Clone)]
pub struct Params {
    pub plans: Vec<JobPlan>,
}

impl Params {
    pub fn from_seed(seed: u64) -> Params {
        let mut plans = generate(&MixParams {
            seed: CAMPAIGN_SEED,
            jobs: JOBS,
            mean_interarrival_us: GAP_US,
        });
        let mut rng = XorShift64::new(mix(seed, 1));
        let (mut base, mut t) = (0u64, 0.0f64);
        for p in &mut plans {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += (p.arrive_ns - base) as f64 * (1.0 + GAP_JITTER * (2.0 * u - 1.0));
            base = p.arrive_ns;
            p.arrive_ns = t as u64;
        }
        Params { plans }
    }

    fn cluster(rec: Recorder) -> ClusterParams {
        ClusterParams {
            phys_nodes: 8,
            placement: Placement::Exclusive,
            exec: Some(ExecMode::Event),
            recorder: Some(rec),
            ..ClusterParams::default()
        }
    }

    /// Jobs of `out` that did not complete as planned.
    fn incomplete(&self, out: &ClusterOutcome) -> u64 {
        if out.jobs.len() != self.plans.len() {
            return self.plans.len() as u64;
        }
        self.plans
            .iter()
            .zip(&out.jobs)
            .filter(|(p, o)| {
                o.kind != p.job.kind.name()
                    || o.arrive_ns != p.arrive_ns
                    || o.start_ns < o.arrive_ns
                    || o.end_ns <= o.start_ns
                    || o.nodes.len() != p.job.ranks()
            })
            .count() as u64
    }
}

impl Bench for Params {
    fn ops(&self) -> u64 {
        self.plans.len() as u64
    }

    fn ranks(&self) -> usize {
        self.plans.iter().map(|p| p.job.ranks()).sum()
    }

    fn probe_type(&self) -> (Datatype, usize) {
        // The OSU tenants' strided vector at 64 KiB.
        (VectorXfer::paper(64 << 10).dtype(), 1)
    }

    fn required_lanes(&self) -> &'static [&'static str] {
        &["gpu/compute", "gpu/d2h", "hca/hca_tx"]
    }

    fn round(&self, ctx: &Ctx) -> Round {
        let launch = CpuInstant::now();
        let root = ctx.spans.open_at(Instant::now());
        let warm = ctx.spans.open();
        run_mix(
            &Params::cluster(Recorder::off()),
            &self.plans[..WARMUP_JOBS.min(self.plans.len())],
        );
        ctx.spans
            .close(warm, "warmup", "cluster_sim", -1, 0, root.id());
        let ready = CpuInstant::now();
        let campaign = ctx.spans.open();
        let out = run_mix(&Params::cluster(ctx.rec.clone()), &self.plans);
        ctx.spans
            .close(campaign, "run_mix", "cluster_sim", -1, 0, root.id());
        let end = CpuInstant::now();
        ctx.spans.close(root, "round", "bench", -1, 0, 0);
        let run_s = secs(ready, end);
        let msgs: u64 = out
            .recorder
            .metrics()
            .iter()
            .filter(|(k, _)| k.ends_with(".MPI_Isend") || k.ends_with(".MPI_Send"))
            .map(|(_, v)| *v)
            .sum();
        let mut r = Round {
            setup_s: secs(launch, ready),
            run_s,
            // Jobs run concurrently: one amortized sample.
            msg_host_us: vec![run_s * 1e6 / msgs.max(1) as f64],
            virt: Virt {
                op_ns: out.jobs.iter().map(|j| j.response_ns()).collect(),
                makespan_ns: out.makespan_ns,
                marks: out.jobs.iter().map(|j| j.start_ns).collect(),
            },
            attempted: self.ops(),
            failed: self.incomplete(&out),
            ..Round::default()
        };
        if ctx.is_traced() {
            r.layers = recorder_layers(&ctx.rec, &[], &Default::default());
            let waits: Vec<f64> = out
                .jobs
                .iter()
                .map(|j| (j.start_ns - j.arrive_ns) as f64 / 1e3)
                .collect();
            let service: Vec<f64> = out
                .jobs
                .iter()
                .map(|j| j.service_ns() as f64 / 1e3)
                .collect();
            r.layers
                .insert("cluster_sim.wait_us_p50".into(), pct(&waits, 50.0));
            r.layers
                .insert("cluster_sim.wait_us_p90".into(), pct(&waits, 90.0));
            r.layers
                .insert("cluster_sim.service_us_p50".into(), pct(&service, 50.0));
        }
        r
    }
}
