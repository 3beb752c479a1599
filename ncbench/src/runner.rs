//! The measurement loop: rounds of one workload until the time budget is
//! spent, then the checks and the metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::calib::{calib_s, CALIB_REF_S};
use crate::env::{nproc, peak_rss_mb, ThreadGauge};
use crate::json::Json;
use crate::stats::{median, pct};
use crate::trace::Span;
use crate::workloads::{run_round, Bench, Ctx, Round, Virt};

/// End-to-end metrics: name and unit. `--trace 0` reports exactly these.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("msg_host_us_p50", "us"),
    ("virt_op_us_p50", "us"),
    ("virt_op_us_p90", "us"),
    ("virt_makespan_us", "us"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
];

/// Per-layer metrics: name and unit. `--trace 1` reports exactly these.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("sim_core.spawn_us", "us"),
    ("sim_core.wake_ns", "ns"),
    ("sim_core.grants", "count"),
    ("core.launch_s", "s"),
    ("halo3d.init_s", "s"),
    ("halo3d.step_host_ms", "ms"),
    ("mpi_sim.msgs", "count"),
    ("mpi_sim.barrier_host_us", "us"),
    ("mpi_sim.finalize_s", "s"),
    ("mpi_sim.commit_ms", "ms"),
    ("mpi_sim.plan_build_ms", "ms"),
    ("mpi_sim.flat_expand", "count"),
    ("mpi_sim.plan_cache_hit_ratio", "ratio"),
    ("mpi_sim.plan_cache_lookups", "count"),
    ("mpi_sim.cpu_pack_ms", "ms"),
    ("mpi_sim.retries", "count"),
    ("mpi_sim.fallbacks", "count"),
    ("gpu_sim.memcpy2d_ms", "ms"),
    ("gpu_sim.memcpy_us", "us"),
    ("gpu_sim.calls", "count"),
    ("gpu_sim.busy_us.h2d", "us"),
    ("gpu_sim.busy_us.d2h", "us"),
    ("gpu_sim.busy_us.d2d", "us"),
    ("gpu_sim.busy_us.compute", "us"),
    ("gpu_sim.queue_wait_us.h2d", "us"),
    ("gpu_sim.queue_wait_us.d2h", "us"),
    ("gpu_sim.queue_wait_us.d2d", "us"),
    ("gpu_sim.queue_wait_us.compute", "us"),
    ("hostmem.copy_gbps", "GB/s"),
    ("hostmem.strided_ms", "ms"),
    ("ib_sim.rdma_write_us", "us"),
    ("ib_sim.rdma_write_sg_us", "us"),
    ("ib_sim.busy_us.hca_tx", "us"),
    ("ib_sim.busy_us.shm", "us"),
    ("ib_sim.busy_us.offload", "us"),
    ("ib_sim.tx_bytes", "bytes"),
    ("core.crit_share.pack", "ratio"),
    ("core.crit_share.d2h", "ratio"),
    ("core.crit_share.rdma", "ratio"),
    ("core.crit_share.h2d", "ratio"),
    ("core.crit_share.unpack", "ratio"),
    ("core.overlap_factor", "ratio"),
    ("cluster_sim.wait_us_p50", "us"),
    ("cluster_sim.wait_us_p90", "us"),
    ("cluster_sim.service_us_p50", "us"),
    ("sim_trace.overhead_ratio", "ratio"),
    ("sim_trace.events", "count"),
    ("sim_trace.dropped", "count"),
    ("ops_failed_ratio", "ratio"),
];

/// Rounds of each kind a run makes at least, whatever the time budget.
pub const MIN_ROUNDS: usize = 3;

/// A finished run: verdict, counts, metrics and what the result file
/// records.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub peak_threads: usize,
    pub notes: Vec<String>,
    pub rounds: Vec<(bool, Round)>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(n, v, u)| {
                    (
                        n.to_string(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                    )
                })),
            ),
        ])
    }

    /// Per-round raw figures for the result file.
    pub fn rounds_json(&self) -> Json {
        Json::Arr(
            self.rounds
                .iter()
                .map(|(traced, r)| {
                    Json::obj([
                        ("traced", Json::Bool(*traced)),
                        ("setup_s", Json::Num(r.setup_s)),
                        ("run_s", Json::Num(r.run_s)),
                        ("msg_host_us_p50", Json::Num(median(&r.msg_host_us))),
                        ("rss_mb", Json::Num(r.rss_mb)),
                        ("calib_s", Json::Num(r.calib_s)),
                        (
                            "lanes_with_spans",
                            Json::Arr(r.lanes.iter().map(Json::str).collect()),
                        ),
                        ("attempted", Json::Int(r.attempted as i64)),
                        ("failed", Json::Int(r.failed as i64)),
                        ("error", r.error.as_deref().map_or(Json::str(""), Json::str)),
                    ])
                })
                .collect(),
        )
    }

    /// Every benchmark span of the traced rounds.
    pub fn spans(&self) -> Vec<Span> {
        self.rounds
            .iter()
            .filter(|(t, _)| *t)
            .flat_map(|(_, r)| r.spans.clone())
            .collect()
    }
}

fn ok_rounds(rounds: &[(bool, Round)], traced: bool) -> Vec<&Round> {
    rounds
        .iter()
        .filter(|(t, r)| *t == traced && r.error.is_none())
        .map(|(_, r)| r)
        .collect()
}

fn med_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Factor that puts a round's host CPU time at the reference speed.
fn speed(r: &Round) -> f64 {
    CALIB_REF_S / r.calib_s
}

/// Run `b` for `seconds` of host time (at least [`MIN_ROUNDS`] rounds),
/// alternating untraced and traced rounds when `trace` is set, then check
/// and summarize.
pub fn measure(b: &dyn Bench, seconds: f64, trace: bool) -> Report {
    let gauge = ThreadGauge::start();
    let start = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    // Peak RSS after a fixed amount of work: the allocator's footprint
    // keeps creeping up over later rounds, so the peak over the whole run
    // would depend on how many rounds the host managed.
    let mut peak_rss = 0.0;
    // The calibration kernel runs between rounds (and inside long ones);
    // each round is put at the reference speed by the mean of the runs
    // just before and after it and those inside it.
    let mut calib_before = calib_s();
    loop {
        let n_traced = rounds.iter().filter(|(t, _)| *t).count();
        let n_plain = rounds.len() - n_traced;
        let enough = n_plain >= MIN_ROUNDS && (!trace || n_traced >= MIN_ROUNDS);
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = trace && n_traced < n_plain;
        let ctx = if traced {
            Ctx::traced()
        } else {
            Ctx::untraced()
        };
        let mut r = run_round(b, &ctx);
        let calib_after = calib_s();
        r.calib_s = (calib_before + calib_after + r.calib_inside.iter().sum::<f64>())
            / (2 + r.calib_inside.len()) as f64;
        calib_before = calib_after;
        r.rss_mb = crate::env::rss_mb();
        rounds.push((traced, r));
        if !traced && rounds.iter().filter(|(t, _)| !*t).count() == MIN_ROUNDS {
            peak_rss = peak_rss_mb();
        }
    }
    let probes = trace.then(|| crate::probes::run(b.ranks(), &b.probe_type()));
    let peak_threads = gauge.finish();
    summarize(b, rounds, probes, peak_threads, peak_rss, trace)
}

fn summarize(
    b: &dyn Bench,
    rounds: Vec<(bool, Round)>,
    probes: Option<BTreeMap<String, f64>>,
    peak_threads: usize,
    peak_rss: f64,
    trace: bool,
) -> Report {
    let mut notes = Vec::new();
    let attempted: u64 = rounds.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();
    for (_, r) in &rounds {
        if let Some(e) = &r.error {
            notes.push(format!("round aborted: {e}"));
        }
    }
    // Virtual time repeats bit for bit across rounds, traced or not.
    let virts: Vec<&Virt> = rounds
        .iter()
        .filter(|(_, r)| r.error.is_none())
        .map(|(_, r)| &r.virt)
        .collect();
    let virt = virts.first().copied().cloned().unwrap_or_default();
    if virts.iter().any(|v| **v != virt) {
        notes.push("virtual-time results differ between rounds".into());
    }
    // The load is one process on at most `nproc` threads; the gauge thread
    // itself is not load.
    if peak_threads.saturating_sub(1) > nproc() {
        notes.push(format!("{peak_threads} threads on {} CPUs", nproc()));
    }

    let plain = ok_rounds(&rounds, false);
    let op_us: Vec<f64> = virt.op_ns.iter().map(|&n| n as f64 / 1e3).collect();
    // Per round, the mean host time of its messages: the median of a
    // mixed-size round would jump between message kinds as a seed moves
    // a size past its neighbours.
    let msg_host_of = |r: &Round| {
        r.msg_host_us.iter().sum::<f64>() / r.msg_host_us.len().max(1) as f64 * speed(r)
    };
    let ok_ratio = if attempted > 0 {
        (attempted - failed) as f64 / attempted as f64
    } else {
        0.0
    };
    let e2e = [
        med_of(&plain, |r| r.setup_s * speed(r)),
        med_of(&plain, |r| r.run_s * speed(r)),
        med_of(&plain, msg_host_of),
        pct(&op_us, 50.0),
        pct(&op_us, 90.0),
        virt.makespan_ns as f64 / 1e3,
        peak_rss,
        ok_ratio,
    ];

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if trace {
        let traced = ok_rounds(&rounds, true);
        let mut layers: BTreeMap<String, f64> = probes.unwrap_or_default();
        let keys: BTreeSet<String> = traced
            .iter()
            .flat_map(|r| r.layers.keys().cloned())
            .collect();
        for k in keys {
            layers.insert(
                k.clone(),
                med_of(&traced, |r| r.layers.get(&k).copied().unwrap_or(0.0)),
            );
        }
        let plain_run = med_of(&plain, |r| r.run_s * speed(r));
        layers.insert(
            "sim_trace.overhead_ratio".into(),
            if plain_run > 0.0 {
                med_of(&traced, |r| r.run_s * speed(r)) / plain_run
            } else {
                0.0
            },
        );
        layers.insert("ops_failed_ratio".into(), 1.0 - ok_ratio);
        if traced
            .iter()
            .any(|r| r.layers.get("sim_trace.dropped").is_some_and(|&d| d > 0.0))
        {
            notes.push("traced run dropped events".into());
        }
        for lane in b.required_lanes() {
            if traced.iter().any(|r| !r.lanes.contains(*lane)) {
                notes.push(format!("traced run: lane {lane} has no spans"));
            }
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            metrics.push((name, v, unit));
        }
    }
    Report {
        correct: failed == 0 && notes.is_empty() && !virts.is_empty(),
        attempted,
        failed,
        metrics,
        peak_threads,
        notes,
        rounds,
    }
}
