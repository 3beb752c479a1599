//! The traced run's two sources of per-layer numbers:
//!
//! * [`Spans`] — spans the benchmark records around its own calls into
//!   each layer (host and virtual start/end, parent span, op id), kept in
//!   memory and written out when the run ends;
//! * [`recorder_layers`] — numbers derived from the program's own trace
//!   lanes and `Recorder::metrics()`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sim_core::SimTime;
use sim_trace::analysis::{busy_time, critical_path, overlap_factor, spans, SpanRec};
use sim_trace::{LaneKind, Recorder};

use crate::json::Json;

/// Pipeline stage lanes in data-flow order.
pub const STAGES: [&str; 5] = ["pack", "d2h", "rdma", "h2d", "unpack"];

/// One benchmark span. Times are nanoseconds; host times count from the
/// collector's creation, virtual times from the simulation's start (0
/// outside a simulation).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span (0 = none).
    pub parent: u64,
    /// The op this span belongs to (0 = set-up or teardown).
    pub op: u64,
    pub name: &'static str,
    /// The layer the call enters (`sim_core`, `mpi_sim`, `halo3d`, ...).
    pub layer: &'static str,
    /// Calling rank (-1 = the benchmark's main thread).
    pub rank: i64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

impl Span {
    pub fn host_s(&self) -> f64 {
        (self.host_end_ns - self.host_start_ns) as f64 * 1e-9
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Int(self.id as i64)),
            ("parent", Json::Int(self.parent as i64)),
            ("op", Json::Int(self.op as i64)),
            ("name", Json::str(self.name)),
            ("layer", Json::str(self.layer)),
            ("rank", Json::Int(self.rank)),
            ("host_start_ns", Json::Int(self.host_start_ns as i64)),
            ("host_end_ns", Json::Int(self.host_end_ns as i64)),
            ("virt_start_ns", Json::Int(self.virt_start_ns as i64)),
            ("virt_end_ns", Json::Int(self.virt_end_ns as i64)),
        ])
    }
}

struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    list: Mutex<Vec<Span>>,
}

/// An open span: its identity and start times.
#[derive(Copy, Clone)]
pub struct Open {
    id: u64,
    host: Instant,
    virt: u64,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

fn virt_now() -> u64 {
    if sim_core::in_sim() {
        sim_core::now().as_nanos()
    } else {
        0
    }
}

/// In-memory span collector. Disabled collectors record nothing, so the
/// untraced runs carry no span overhead beyond one branch per call.
#[derive(Clone)]
pub struct Spans(Option<Arc<Collector>>);

impl Spans {
    pub fn off() -> Spans {
        Spans(None)
    }

    pub fn on() -> Spans {
        Spans(Some(Arc::new(Collector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            list: Mutex::new(Vec::new()),
        })))
    }

    /// Start a span now. Ids are assigned at open so children can name
    /// their parent before it closes.
    pub fn open(&self) -> Open {
        let id = self
            .0
            .as_ref()
            .map_or(0, |c| c.next_id.fetch_add(1, Ordering::Relaxed));
        Open {
            id,
            host: Instant::now(),
            virt: if self.0.is_some() { virt_now() } else { 0 },
        }
    }

    /// Start a span at host instant `host` (virtual start 0): for spans
    /// that begin before the simulation does, such as a rank's launch.
    pub fn open_at(&self, host: Instant) -> Open {
        Open {
            host,
            virt: 0,
            ..self.open()
        }
    }

    /// Close `open` now, recording it under `name`.
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &self,
        open: Open,
        name: &'static str,
        layer: &'static str,
        rank: i64,
        op: u64,
        parent: u64,
    ) {
        let Some(c) = &self.0 else { return };
        let host_ns = |t: Instant| t.saturating_duration_since(c.epoch).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent,
            op,
            name,
            layer,
            rank,
            host_start_ns: host_ns(open.host),
            host_end_ns: host_ns(Instant::now()),
            virt_start_ns: open.virt,
            virt_end_ns: virt_now(),
        };
        c.list
            .lock()
            .expect("span list poisoned by a panicked rank")
            .push(span);
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        rank: i64,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let o = self.open();
        let r = f();
        self.close(o, name, layer, rank, op, parent);
        r
    }

    /// Every span recorded so far, in close order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|c| {
                c.list
                    .lock()
                    .expect("span list poisoned by a panicked rank")
                    .clone()
            })
            .unwrap_or_default()
    }
}

/// The spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Render spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Merged busy time per lane name over lanes of `kind`, summed across
/// scopes (e.g. every GPU's `d2h` engine), in microseconds.
fn busy_by_lane(all: &[SpanRec], kind: LaneKind) -> BTreeMap<String, f64> {
    let mut per_lane: BTreeMap<(String, String), Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for s in all.iter().filter(|s| s.kind == kind) {
        per_lane
            .entry((s.scope.clone(), s.lane_name.clone()))
            .or_default()
            .push((s.start, s.end));
    }
    let mut out = BTreeMap::new();
    for ((_, lane), iv) in per_lane {
        *out.entry(lane).or_insert(0.0) += busy_time(&iv).as_micros_f64();
    }
    out
}

/// Sum of every metric whose key satisfies `pred`.
fn sum_metrics(m: &BTreeMap<String, u64>, pred: impl Fn(&str) -> bool) -> f64 {
    m.iter()
        .filter(|(k, _)| pred(k))
        .fold(0.0, |acc, (_, v)| acc + *v as f64)
}

/// Whether `seg` names a GPU scope (`gpu0`, `gpu17`, ...).
fn is_gpu_scope(seg: &str) -> bool {
    seg.strip_prefix("gpu")
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// GPU engines, in lane order.
pub const GPU_ENGINES: [&str; 4] = ["h2d", "d2h", "d2d", "compute"];

/// Per-layer numbers from one traced round's recorder.
///
/// `windows` are the virtual-time windows of serialized ops (one message
/// each); the critical-path shares and the overlap factor are taken per
/// window and pooled. Workloads whose ops run concurrently pass none and
/// report those metrics as 0. `queue_wait_ns` adds per-engine GPU queue
/// waits read from device handles the recorder does not register.
pub fn recorder_layers(
    rec: &Recorder,
    windows: &[(SimTime, SimTime)],
    queue_wait_ns: &BTreeMap<String, u64>,
) -> BTreeMap<String, f64> {
    let all = spans(rec);
    let m = rec.metrics();
    let mut out = BTreeMap::new();

    let gpu = busy_by_lane(&all, LaneKind::GpuEngine);
    for e in GPU_ENGINES {
        out.insert(
            format!("gpu_sim.busy_us.{e}"),
            gpu.get(e).copied().unwrap_or(0.0),
        );
        let key = format!("queue.queue_wait.{e}");
        let registered = sum_metrics(&m, |k| k.ends_with(&key));
        let handles = queue_wait_ns.get(e).copied().unwrap_or(0) as f64;
        out.insert(
            format!("gpu_sim.queue_wait_us.{e}"),
            (registered + handles) / 1e3,
        );
    }
    out.insert(
        "gpu_sim.calls".into(),
        sum_metrics(&m, |k| {
            let mut segs = k.split('.');
            let last = k.rsplit('.').next().unwrap_or("");
            segs.any(is_gpu_scope) && (last.starts_with("cuda") || last == "kernelLaunch")
        }),
    );

    let mut ib = busy_by_lane(&all, LaneKind::Hca);
    ib.extend(busy_by_lane(&all, LaneKind::Shm));
    for lane in ["hca_tx", "shm", "offload"] {
        out.insert(
            format!("ib_sim.busy_us.{lane}"),
            ib.get(lane).copied().unwrap_or(0.0),
        );
    }
    out.insert(
        "ib_sim.tx_bytes".into(),
        sum_metrics(&m, |k| {
            k.starts_with("node") && k.ends_with(".hca.tx_bytes")
        }),
    );
    out.insert(
        "mpi_sim.msgs".into(),
        sum_metrics(&m, |k| {
            k.ends_with(".MPI_Send") || k.ends_with(".MPI_Isend")
        }),
    );
    out.insert(
        "mpi_sim.retries".into(),
        sum_metrics(&m, |k| k.contains(".retry.")),
    );
    out.insert(
        "mpi_sim.fallbacks".into(),
        sum_metrics(&m, |k| k.contains(".fallback.")),
    );

    let stage: Vec<SpanRec> = all
        .iter()
        .filter(|s| s.kind == LaneKind::Stage)
        .cloned()
        .collect();
    let mut crit = [0.0f64; STAGES.len()];
    let mut overlaps = Vec::new();
    for &(w0, w1) in windows {
        let mine: Vec<SpanRec> = stage
            .iter()
            .filter(|s| s.start >= w0 && s.end <= w1)
            .cloned()
            .collect();
        if mine.is_empty() {
            continue;
        }
        for step in critical_path(&mine, &STAGES) {
            let i = STAGES.iter().position(|&n| n == step.stage).expect("stage");
            crit[i] += (step.end - step.start).as_micros_f64();
        }
        overlaps.push(overlap_factor(&mine));
    }
    let total: f64 = crit.iter().sum();
    for (i, s) in STAGES.iter().enumerate() {
        let share = if total > 0.0 { crit[i] / total } else { 0.0 };
        out.insert(format!("core.crit_share.{s}"), share);
    }
    out.insert(
        "core.overlap_factor".into(),
        crate::stats::median(&overlaps),
    );

    out.insert("sim_trace.events".into(), rec.events().len() as f64);
    out.insert("sim_trace.dropped".into(), rec.dropped() as f64);
    out
}

/// Lane names (`kind/name`) that carry at least one span.
pub fn lanes_with_spans(rec: &Recorder) -> BTreeSet<String> {
    spans(rec)
        .into_iter()
        .map(|s| format!("{}/{}", s.kind.label(), s.lane_name))
        .collect()
}

/// Host extent of each instance of a call every rank makes, keyed by op
/// id: `(first entry, last entry, last exit)` in host ns.
pub fn instances(spans: &[Span], name: &str) -> BTreeMap<u64, (u64, u64, u64)> {
    let mut out: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for s in named(spans, name) {
        let e = out
            .entry(s.op)
            .or_insert((s.host_start_ns, s.host_start_ns, s.host_end_ns));
        e.0 = e.0.min(s.host_start_ns);
        e.1 = e.1.max(s.host_start_ns);
        e.2 = e.2.max(s.host_end_ns);
    }
    out
}

/// Host per-layer numbers every simulated-job workload derives from its
/// spans:
///
/// * `core.launch_s` — from `run()` to the last rank entering its program;
/// * `mpi_sim.commit_ms` — host time spent committing datatypes, summed;
/// * `mpi_sim.barrier_host_us` — median barrier cost once every rank has
///   arrived (last entry to last exit). Ranks are fibers on one thread, so
///   a span around a blocking call also covers other ranks' work; taking
///   the instance from the last arrival leaves only the barrier itself.
pub fn host_layers(sp: &[Span]) -> Vec<(String, f64)> {
    let launch = named(sp, "launch").map(Span::host_s).fold(0.0, f64::max);
    let commit_ms = named(sp, "commit").fold(0.0, |acc, s| acc + s.host_s() * 1e3);
    let barriers: Vec<f64> = instances(sp, "barrier")
        .values()
        .map(|&(_, last_in, last_out)| (last_out - last_in) as f64 / 1e3)
        .collect();
    vec![
        ("core.launch_s".into(), launch),
        ("mpi_sim.commit_ms".into(), commit_ms),
        (
            "mpi_sim.barrier_host_us".into(),
            crate::stats::median(&barriers),
        ),
    ]
}
