//! The four workloads. Each turns a seed into inputs ([`Bench`]) and runs
//! rounds over them: one round launches the simulated job, sets it up,
//! runs its timed phase and checks every op's output.

pub mod halo;
pub mod jobmix;
pub mod vector;
pub mod zoo;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use mpi_sim::Datatype;
use mv2_gpu_nc::WakeTraceSink;
use sim_trace::Recorder;

use crate::clock::CpuInstant;
use crate::trace::{Span, Spans};

/// Recorder capacity of a traced round: large enough that no workload
/// drops an event (the traced run fails if one does).
pub const TRACE_CAP: usize = 1 << 24;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["vector_4m", "halo3d_1024", "host_zoo", "jobmix"];

/// Build the named workload's inputs from `seed`.
pub fn from_seed(name: &str, seed: u64) -> Option<Box<dyn Bench>> {
    Some(match name {
        "vector_4m" => Box::new(vector::Params::from_seed(seed)),
        "halo3d_1024" => Box::new(halo::Params::from_seed(seed)),
        "host_zoo" => Box::new(zoo::Params::from_seed(seed)),
        "jobmix" => Box::new(jobmix::Params::from_seed(seed)),
        _ => return None,
    })
}

/// What one round runs with: the program's recorder (off, or enabled and
/// sized for the traced run), the benchmark's span collector and, in the
/// traced run, the kernel's wake-trace sink.
#[derive(Clone)]
pub struct Ctx {
    pub rec: Recorder,
    pub spans: Spans,
    pub wake: Option<WakeTraceSink>,
}

impl Ctx {
    pub fn untraced() -> Ctx {
        Ctx {
            rec: Recorder::off(),
            spans: Spans::off(),
            wake: None,
        }
    }

    pub fn traced() -> Ctx {
        Ctx {
            rec: Recorder::with_capacity(TRACE_CAP),
            spans: Spans::on(),
            wake: Some(WakeTraceSink::default()),
        }
    }

    pub fn is_traced(&self) -> bool {
        self.rec.is_enabled()
    }
}

/// A round's virtual-clock results. Deterministic: every round over the
/// same inputs must produce these bit for bit, traced or not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Virt {
    /// Virtual time of each op, ns (its meaning is per workload).
    pub op_ns: Vec<u64>,
    /// Virtual completion time of the workload, ns.
    pub makespan_ns: u64,
    /// Workload-specific extra virtual figures (see each workload).
    pub marks: Vec<u64>,
}

/// Everything one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Host CPU seconds from launch until every rank finished its set-up.
    pub setup_s: f64,
    /// Host CPU seconds of the timed phase, through `run()` returning.
    pub run_s: f64,
    /// Host CPU microseconds per message (one sample per serialized message,
    /// or one amortized value where messages run concurrently).
    pub msg_host_us: Vec<f64>,
    pub virt: Virt,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer numbers (complete only in traced rounds).
    pub layers: BTreeMap<String, f64>,
    /// Trace lanes that carried spans (traced rounds only).
    pub lanes: BTreeSet<String>,
    /// The benchmark's own spans (traced rounds only).
    pub spans: Vec<Span>,
    /// Resident set after the round, MiB.
    pub rss_mb: f64,
    /// Calibration readings the round took inside its timed phase (their
    /// CPU time is already taken out of `run_s`).
    pub calib_inside: Vec<f64>,
    /// Mean calibration reading over the round: the runs just before and
    /// after it, and those inside it.
    pub calib_s: f64,
    /// Panic message when the round aborted.
    pub error: Option<String>,
}

/// One workload's inputs.
pub trait Bench: Send + Sync {
    /// Ops one round attempts.
    fn ops(&self) -> u64;
    /// Simulated ranks (the spawn probe runs at this count).
    fn ranks(&self) -> usize;
    /// The datatype the plan-build probe builds, with its count.
    fn probe_type(&self) -> (Datatype, usize);
    /// Trace lanes (`kind/name`) the per-layer metrics read: each must
    /// carry spans in a traced round.
    fn required_lanes(&self) -> &'static [&'static str];
    /// Run one round. Panics count as failed ops (see [`run_round`]).
    fn round(&self, ctx: &Ctx) -> Round;
}

/// Process-global counters the per-layer metrics read. They are
/// process-wide, so they are taken as deltas around one round at a time.
const GLOBAL_COUNTERS: [&str; 3] = ["plan_cache_hit", "plan_cache_miss", "flat_expand"];

/// Run one round of `b` under `catch_unwind`: a panic (an assertion, an
/// `MpiError`, a deadlock) fails every op of the round instead of
/// aborting the run.
pub fn run_round(b: &dyn Bench, ctx: &Ctx) -> Round {
    let g = sim_core::instrument::global();
    let before: Vec<u64> = GLOBAL_COUNTERS.iter().map(|c| g.get(c)).collect();
    let mut r = match catch_unwind(AssertUnwindSafe(|| b.round(ctx))) {
        Ok(r) => r,
        Err(p) => Round {
            attempted: b.ops(),
            failed: b.ops(),
            error: Some(panic_message(p)),
            ..Round::default()
        },
    };
    let delta: Vec<f64> = GLOBAL_COUNTERS
        .iter()
        .zip(&before)
        .map(|(c, b)| (g.get(c) - b) as f64)
        .collect();
    let lookups = delta[0] + delta[1];
    r.layers
        .insert("mpi_sim.plan_cache_lookups".into(), lookups);
    r.layers.insert(
        "mpi_sim.plan_cache_hit_ratio".into(),
        if lookups > 0.0 {
            delta[0] / lookups
        } else {
            0.0
        },
    );
    r.layers.insert("mpi_sim.flat_expand".into(), delta[2]);
    if let Some(sink) = &ctx.wake {
        let grants = std::mem::take(&mut *sink.lock().expect("wake-trace sink poisoned")).len();
        r.layers.insert("sim_core.grants".into(), grants as f64);
    }
    if ctx.is_traced() {
        r.lanes = crate::trace::lanes_with_spans(&ctx.rec);
    }
    r.spans = ctx.spans.snapshot();
    r
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Host CPU-clock readings the ranks of one round report: when each
/// finished its set-up and when each left its program.
#[derive(Default)]
pub struct Marks {
    pub ready: Vec<CpuInstant>,
    pub exited: Vec<CpuInstant>,
}

/// A round's state, shared by its ranks and the benchmark.
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared(Arc::new(Mutex::new(T::default())))
    }
}

impl<T> Shared<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .expect("round state poisoned: a rank panicked holding it")
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

/// Host CPU seconds between two readings.
pub fn secs(from: CpuInstant, to: CpuInstant) -> f64 {
    to.secs_since(from)
}

impl Marks {
    /// `(setup_s, run_s, finalize_s)` of a round launched at `launch` whose
    /// `run()` returned at `end`: set-up ends when the last rank is ready,
    /// finalize is the time from the last rank leaving its program to
    /// `run()` returning.
    pub fn phases(&self, launch: CpuInstant, end: CpuInstant) -> (f64, f64, f64) {
        let ready = self.ready.iter().max().copied().unwrap_or(end);
        let exited = self.exited.iter().max().copied().unwrap_or(end);
        (secs(launch, ready), secs(ready, end), secs(exited, end))
    }
}

/// A 64-bit mix of `seed` and a stream id (splitmix64 finalizer), so each
/// input property draws from its own stream.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
