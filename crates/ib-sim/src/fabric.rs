//! The fabric: per-node HCAs, reliable-connected messaging, RDMA writes and
//! the intra-node shared-memory channel.
//!
//! What is modeled, and why it is enough for the paper's protocol:
//!
//! * **SEND/RECV** ([`Nic::send`]) — reliable, in-order delivery of typed
//!   messages into the destination endpoint's mailbox. Used for MPI
//!   envelopes, eager payloads and the RTS/CTS/FIN control traffic of
//!   rendezvous protocols.
//! * **RDMA WRITE** ([`Nic::rdma_write`]) — one-sided placement of bytes
//!   into a *registered* remote host region, invisible to the remote CPU
//!   (no completion is delivered there; the protocol above announces
//!   completion with its own FIN message, exactly as MVAPICH2 does).
//! * **Registration** ([`Nic::register`]) — RDMA targets and sources must
//!   be registered (which pins them); unregistered access panics, which is
//!   the simulator's equivalent of a protection fault on the HCA.
//! * **Shared memory** ([`Nic::shm_write`] and automatic routing inside
//!   [`Nic::send`]) — traffic between two endpoints on the same physical
//!   node never touches the HCA or the switch fabric. It goes through the
//!   node's shm copy engine (kernel-assisted copy through shared pages)
//!   with its own, much cheaper cost model, and is never subject to fault
//!   injection: injected losses model switch misbehavior past the HCA,
//!   which intra-node traffic does not cross.
//!
//! Endpoints vs. nodes: an **endpoint** is one process's attachment point
//! (one per MPI rank, with its own mailbox); a **node** is the physical
//! host, and several endpoints may share one via [`Topology`]. Everything
//! per-HCA — the transmit engine, the MR table, the pinned-bytes
//! accounting, the shm copy engine — is per *node*, so co-located
//! endpoints contend for it, exactly like processes sharing a host adapter.
//!
//! Timing: each node's HCA has one transmit engine. An operation occupies
//! the engine for `bytes/bw`, and the payload lands `wire_lat` after it
//! leaves the engine. Because every message from one node serializes
//! through that engine and latency is constant, delivery from any source is
//! in posting order — the in-order guarantee of an IB reliable-connected
//! QP. The shm channel serializes the same way through the node's copy
//! engine, so intra-node delivery is in posting order too.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hostmem::{HostBuf, HostPtr};
use sim_core::instrument::{self, CallCounters};
use sim_core::lock::Mutex;
use sim_core::san;
use sim_core::{Completion, Component, DeliveryStamp, Mailbox, Sim, SimDur, SimTime, Waker};
use sim_trace::{Lane, LaneKind, Recorder};

use crate::fault::{FaultSpec, FaultState};
use crate::job::{BindError, JobQos, JobSpec};
use crate::model::{NetModel, ShmModel};
use crate::scheduler::{CtrlAction, CtrlPoint, DeliveryScheduler};
use crate::topology::Topology;

/// A message delivered to an endpoint's mailbox.
pub struct Packet {
    /// Sending endpoint (rank) id.
    pub src: usize,
    /// Number of bytes this packet occupied on the wire (control header or
    /// eager payload size).
    pub wire_bytes: usize,
    /// Opaque payload; the protocol layer downcasts it.
    pub payload: Box<dyn Any + Send>,
}

/// Remote key of a registered memory region.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MrKey(u64);

/// One strided run of a scatter/gather wire descriptor: `count` blocks of
/// `len` bytes, the first at `offset`, successive blocks `stride` bytes
/// apart. Offsets are absolute within the buffer (gather side) or memory
/// region (scatter side) the entry addresses. The HCA's offload engine
/// fetches one descriptor entry per run
/// ([`NetModel::offload_entry_ns`](crate::NetModel::offload_entry_ns)),
/// so a whole strided plane costs one fetch, not one per block.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SgEntry {
    /// Byte offset of the first block.
    pub offset: usize,
    /// Bytes per block.
    pub len: usize,
    /// Distance between consecutive block starts, bytes.
    pub stride: usize,
    /// Number of blocks in the run.
    pub count: usize,
}

impl SgEntry {
    /// Payload bytes this run moves.
    pub fn bytes(&self) -> usize {
        self.len * self.count
    }

    /// Extent of the run in its buffer: first to last byte touched.
    pub fn span(&self) -> usize {
        if self.count == 0 {
            0
        } else {
            (self.count - 1) * self.stride + self.len
        }
    }
}

/// The `(offset, len)` blocks of SG entries, in descriptor order.
fn sg_blocks(entries: &[SgEntry]) -> impl Iterator<Item = (usize, usize)> + '_ {
    entries
        .iter()
        .flat_map(|e| (0..e.count).map(move |b| (e.offset + b * e.stride, e.len)))
}

/// Pair the gather blocks with the scatter blocks byte for byte and hand
/// each overlapping piece to `copy(src offset, dst offset, len)`. The two
/// lists must move the same total.
fn sg_copy(gather: &[SgEntry], scatter: &[SgEntry], mut copy: impl FnMut(usize, usize, usize)) {
    let mut src = sg_blocks(gather);
    let (mut s, mut s_left) = (0, 0);
    for (mut d, mut d_left) in sg_blocks(scatter) {
        while d_left > 0 {
            if s_left == 0 {
                (s, s_left) = src.next().expect("SG gather and scatter totals agree");
                continue;
            }
            let n = s_left.min(d_left);
            copy(s, d, n);
            (s, s_left, d, d_left) = (s + n, s_left - n, d + n, d_left - n);
        }
    }
}

struct Mr {
    buf: HostBuf,
}

/// Registration refused: granting it would exceed the node's pin limit.
/// The simulator's equivalent of `ibv_reg_mr` failing with `ENOMEM` when
/// `RLIMIT_MEMLOCK` is exhausted.
#[derive(Clone, Debug)]
pub struct RegError {
    /// Bytes the caller asked to pin.
    pub requested: usize,
    /// Bytes this node already has pinned through its HCA.
    pub pinned: usize,
    /// The node's pin limit.
    pub limit: usize,
}

impl std::fmt::Display for RegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory registration failed: {} bytes requested, {} already pinned, limit {}",
            self.requested, self.pinned, self.limit
        )
    }
}

impl std::error::Error for RegError {}

/// Per-node hardware state: one HCA transmit engine, one MR table / pin
/// account (the node's protection domain) and one shm copy engine, shared
/// by every endpoint the topology places on the node.
struct NodeHw {
    /// When this node's HCA transmit engine is next free.
    tx_free: SimTime,
    /// Per-job horizon on this node's transmit engine: when job `j`'s last
    /// operation leaves the engine. Drives the weighted-share arbitration
    /// of a multi-job fabric (see [`Fabric::multi_job`]); a single-job
    /// fabric never reads it.
    job_tx_free: Vec<SimTime>,
    /// Registered memory regions (keyed for remote access).
    mrs: HashMap<MrKey, Mr>,
    /// Bytes currently pinned through this node's HCA (for the fault
    /// layer's pin limit; released by [`Nic::deregister`]).
    pinned_bytes: usize,
    /// Sanitizer: last operation posted to this node's transmit engine.
    tx_last: Option<san::OpId>,
    /// When this node's shm copy engine is next free.
    shm_free: SimTime,
    /// Sanitizer: last operation posted to this node's shm copy engine.
    shm_last: Option<san::OpId>,
}

impl NodeHw {
    fn new(njobs: usize) -> Self {
        NodeHw {
            tx_free: SimTime::ZERO,
            job_tx_free: vec![SimTime::ZERO; njobs],
            mrs: HashMap::new(),
            pinned_bytes: 0,
            tx_last: None,
            shm_free: SimTime::ZERO,
            shm_last: None,
        }
    }
}

/// One tenant of the fabric: its endpoint range, rank→slot topology, QoS
/// knobs, trace label and (late-bound) slot→physical-node placement.
struct JobState {
    /// First global endpoint id of this job (its ranks are
    /// `base..base + topo.num_ranks()`).
    base: usize,
    /// Ranks → job-local node slots.
    topo: Topology,
    /// The job's share of the hardware it is bound to.
    qos: JobQos,
    /// Scope prefix for lanes/pools/metrics (`""` for the implicit
    /// single job).
    label: String,
    /// Job-local node slot → physical node, assigned by
    /// [`Fabric::try_bind_job`]. `None` until the job is placed.
    binding: Mutex<Option<Arc<Vec<usize>>>>,
    /// Per-job fabric byte accounting (`hca.tx_bytes`, `shm.bytes`),
    /// surfaced as `{label}fabric.*` metrics for labeled jobs.
    counters: CallCounters,
}

/// Trace lanes of one node: HCA transmit engine, shm copy engine and the
/// HCA's scatter/gather offload engine.
struct NodeLanes {
    hca: Lane,
    shm: Lane,
    offload: Lane,
}

/// One timed delivery queued behind the event-driven pump: the packet, its
/// destination, the sender-side happens-before stamp, and an enqueue
/// sequence breaking ties among same-instant deliveries (posting order).
struct PendingDelivery {
    at: SimTime,
    seq: u64,
    dst: usize,
    pkt: Packet,
    stamp: DeliveryStamp,
}

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

type PendingQueue = Arc<Mutex<BinaryHeap<Reverse<PendingDelivery>>>>;

/// The fabric's delivery engine as a stackless component: every timed
/// packet delivery becomes one entry in a shared pending heap plus one
/// exact (non-coalesced) wake. The wake discipline is
/// [`Waker::wake_exact_at`], which admits timers seq-for-seq exactly like
/// the per-packet boxed closures it replaces, and each tick delivers
/// exactly **one** due packet — the one whose enqueue order matches the
/// firing timer's admission order. Draining everything due per tick would
/// be faster but not identity-preserving: another timer action (a retry,
/// a fault-injected release) whose admission seq falls *between* two
/// same-instant deliveries must still run between them, exactly as it did
/// when each delivery was its own closure. With that discipline,
/// virtual-time results are bit-identical with the pump on or off.
struct DeliveryPump {
    pending: PendingQueue,
    mailboxes: Vec<Mailbox<Packet>>,
}

impl Component for DeliveryPump {
    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        // Pop under the lock, deliver outside it: send_stamped may wake
        // a parked receiver, which must not re-enter the pending heap.
        let due = {
            let mut q = self.pending.lock();
            match q.peek() {
                Some(Reverse(e)) if e.at <= now => q.pop(),
                _ => None,
            }
        };
        if let Some(Reverse(e)) = due {
            self.mailboxes[e.dst].send_stamped(e.pkt, e.stamp);
        }
        None
    }
}

/// Pump registration state held by the fabric once attached to a kernel.
struct PumpState {
    waker: Waker,
    pending: PendingQueue,
    seq: AtomicU64,
}

struct FabricInner {
    model: NetModel,
    shm: ShmModel,
    /// The fabric's tenants, in declaration order. A classic single-job
    /// fabric is one entry with an empty label and an identity binding.
    jobs: Vec<JobState>,
    /// Physical nodes in the machine (every per-node table below has this
    /// length).
    num_phys: usize,
    /// Per-node hardware (indexed by physical node id).
    nodes: Mutex<Vec<NodeHw>>,
    /// One mailbox per endpoint; outside the lock so receivers don't
    /// contend.
    mailboxes: Vec<Mailbox<Packet>>,
    next_key: AtomicU64,
    /// Sanitizer queue domain; lanes `0..num_nodes` are the HCA tx engines,
    /// lanes `num_nodes..2*num_nodes` the shm copy engines.
    san_domain: u64,
    /// Seeded fault injection, if this fabric was built with faults.
    faults: Option<FaultState>,
    /// Per-node byte accumulators (`hca.tx_bytes`, `shm.bytes`), indexed by
    /// node id. Live regardless of tracing; surfaced as `node{k}.*` metrics
    /// when a recorder is attached.
    counters: Vec<CallCounters>,
    /// Trace lanes, one pair per node (`node{k}/hca_tx`, `node{k}/shm`).
    /// `None` until [`Fabric::attach_recorder`]; emission is skipped
    /// entirely then.
    trace: Mutex<Option<Vec<NodeLanes>>>,
    /// Control-packet delivery hook (see [`crate::scheduler`]). `None`
    /// (the default) is FIFO delivery with the original code path — a run
    /// without a scheduler is bit-identical to a pre-hook fabric.
    scheduler: Mutex<Option<Arc<dyn DeliveryScheduler>>>,
    /// Event-driven delivery pump (see [`Fabric::attach_event_pump`]).
    /// `None` falls back to one boxed timer closure per packet.
    pump: Mutex<Option<PumpState>>,
}

/// The simulated cluster interconnect. Clones are shallow.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

/// One endpoint's handle onto its node's HCA (and shm channel). All rank
/// and node ids a `Nic` exposes are *job-local*: a tenant of a multi-job
/// fabric sees a dense `0..n` rank space and `0..k` node-slot space
/// exactly like a job on a dedicated fabric, and the handle translates to
/// global mailboxes and physical nodes internally.
#[derive(Clone)]
pub struct Nic {
    fabric: Fabric,
    /// Owning job id (0 on a single-job fabric).
    job: usize,
    /// Job-local rank.
    endpoint: usize,
}

impl Fabric {
    /// Create a fabric with `n` endpoints, one per node (the pre-topology
    /// default where rank and node coincide).
    pub fn new(n: usize, model: NetModel) -> Self {
        Self::with_faults(n, model, None)
    }

    /// Like [`Fabric::new`], but with an optional seeded fault-injection
    /// spec. `None` is exactly `Fabric::new` — no random stream exists and
    /// the fabric is perfectly reliable.
    pub fn with_faults(n: usize, model: NetModel, faults: Option<FaultSpec>) -> Self {
        Self::with_topology(
            Topology::one_per_node(n),
            model,
            ShmModel::westmere(),
            faults,
        )
    }

    /// Create a fabric for an explicit [`Topology`]: one mailbox per
    /// endpoint, one HCA + shm copy engine per node. This is the classic
    /// single-job fabric: one implicit tenant with default QoS, an empty
    /// scope label and the identity slot→node binding.
    pub fn with_topology(
        topo: Topology,
        model: NetModel,
        shm: ShmModel,
        faults: Option<FaultSpec>,
    ) -> Self {
        let num_phys = topo.num_nodes();
        let job = JobState {
            base: 0,
            qos: JobQos::default(),
            label: String::new(),
            binding: Mutex::new(Some(Arc::new((0..num_phys).collect()))),
            counters: CallCounters::new(),
            topo,
        };
        Self::build(num_phys, vec![job], model, shm, faults)
    }

    /// Create a fabric shared by several concurrent jobs on `phys_nodes`
    /// physical nodes. Every tenant is declared up front (endpoint ids and
    /// QoS state are fixed for the fabric's lifetime); each job's
    /// placement onto physical nodes is chosen later with
    /// [`Fabric::try_bind_job`] and released with [`Fabric::unbind_job`],
    /// so a scheduler can stream an arbitrary job sequence through a
    /// bounded machine.
    ///
    /// **Arbitration model.** Each node's HCA transmit engine keeps one
    /// horizon per job. An operation posted while the engine is idle
    /// serializes at full link rate (work-conserving). While the engine is
    /// backlogged, a job's operation serializes at the weighted share
    /// `w_j / Σ w_k` over the jobs currently backlogged on that engine
    /// (`JobQos::hca_weight`); an optional `JobQos::rate_cap` ceiling
    /// applies in both states. A sole tenant therefore always runs at full
    /// rate through the identical arithmetic path as a single-job fabric —
    /// bit-identical virtual times, whatever its weight.
    ///
    /// The shm copy engine stays a plain per-node FIFO: intra-node copies
    /// contend by ordering, not by weighted shares (kernel-assisted copies
    /// have no QoS hardware to model).
    pub fn multi_job(
        phys_nodes: usize,
        specs: Vec<JobSpec>,
        model: NetModel,
        shm: ShmModel,
        faults: Option<FaultSpec>,
    ) -> Self {
        assert!(
            !specs.is_empty(),
            "a multi-job fabric needs at least one job"
        );
        let mut base = 0usize;
        let jobs: Vec<JobState> = specs
            .into_iter()
            .map(|s| {
                s.qos.validate();
                assert!(
                    s.topo.num_nodes() <= phys_nodes,
                    "job '{}' wants {} node slots but the fabric has {phys_nodes} nodes",
                    s.label,
                    s.topo.num_nodes()
                );
                let js = JobState {
                    base,
                    topo: s.topo,
                    qos: s.qos,
                    label: s.label,
                    binding: Mutex::new(None),
                    counters: CallCounters::new(),
                };
                base += js.topo.num_ranks();
                js
            })
            .collect();
        Self::build(phys_nodes, jobs, model, shm, faults)
    }

    fn build(
        num_phys: usize,
        jobs: Vec<JobState>,
        model: NetModel,
        shm: ShmModel,
        faults: Option<FaultSpec>,
    ) -> Self {
        let njobs = jobs.len();
        let num_eps: usize = jobs.iter().map(|j| j.topo.num_ranks()).sum();
        Fabric {
            inner: Arc::new(FabricInner {
                model,
                shm,
                num_phys,
                nodes: Mutex::new((0..num_phys).map(|_| NodeHw::new(njobs)).collect()),
                mailboxes: (0..num_eps).map(|_| Mailbox::new()).collect(),
                next_key: AtomicU64::new(1),
                san_domain: san::new_queue_domain(),
                faults: faults.map(FaultState::new),
                counters: (0..num_phys).map(|_| CallCounters::new()).collect(),
                trace: Mutex::new(None),
                scheduler: Mutex::new(None),
                pump: Mutex::new(None),
                jobs,
            }),
        }
    }

    /// Register this fabric's delivery engine as a stackless component on
    /// `sim`'s kernel: timed packet deliveries become pending-heap entries
    /// drained by one `tick()` instead of one boxed timer closure each.
    /// Wakes use the exact (non-coalescing) discipline, so virtual-time
    /// results are bit-identical with or without the pump. Call before the
    /// job starts sending. Returns the pump's [`Waker`] (for stats).
    pub fn attach_event_pump(&self, sim: &Sim) -> Waker {
        let pending: PendingQueue = Arc::new(Mutex::new(BinaryHeap::new()));
        let waker = sim.add_component(
            "fabric.delivery",
            DeliveryPump {
                pending: Arc::clone(&pending),
                mailboxes: self.inner.mailboxes.clone(),
            },
        );
        *self.inner.pump.lock() = Some(PumpState {
            waker: waker.clone(),
            pending,
            seq: AtomicU64::new(0),
        });
        waker
    }

    /// Deliver `pkt` into `dst`'s mailbox at instant `at`: through the
    /// event pump when attached, as a per-packet timer closure otherwise.
    /// Both paths capture the sender's happens-before stamp here, at send
    /// time.
    fn deliver_packet_at(&self, dst: usize, at: SimTime, pkt: Packet) {
        let pump = self.inner.pump.lock();
        if let Some(p) = &*pump {
            let seq = p.seq.fetch_add(1, Ordering::Relaxed);
            p.pending.lock().push(Reverse(PendingDelivery {
                at,
                seq,
                dst,
                pkt,
                stamp: Mailbox::<Packet>::stamp(),
            }));
            p.waker.wake_exact_at(at);
        } else {
            drop(pump);
            self.inner.mailboxes[dst].send_at(at, pkt);
        }
    }

    /// Install a control-packet delivery scheduler (see
    /// [`crate::scheduler`]). Must be called before the job starts sending;
    /// packets already in flight keep their FIFO arrival. Pass-through
    /// contract: with no scheduler installed — or a scheduler that always
    /// answers [`CtrlAction::Deliver`] — delivery is bit-identical to a
    /// fabric without the hook.
    pub fn set_delivery_scheduler(&self, s: Arc<dyn DeliveryScheduler>) {
        *self.inner.scheduler.lock() = Some(s);
    }

    /// Whether this fabric injects faults. Protocol layers use this to arm
    /// retry timers only when the network can actually misbehave, keeping
    /// the zero-fault configuration bit-identical to a fabric built without
    /// a fault spec.
    pub fn faults_enabled(&self) -> bool {
        self.inner.faults.is_some()
    }

    /// Number of physical nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_phys
    }

    /// Number of endpoints (MPI ranks attached to the fabric, summed over
    /// all jobs).
    pub fn num_endpoints(&self) -> usize {
        self.inner.mailboxes.len()
    }

    /// The first job's ranks→nodes mapping (the only one on a single-job
    /// fabric; multi-job callers use [`Fabric::job_topology`]).
    pub fn topology(&self) -> &Topology {
        &self.inner.jobs[0].topo
    }

    /// The attachment point of *global* endpoint `endpoint`. On a
    /// single-job fabric global and job-local ids coincide; multi-job
    /// callers usually want [`Fabric::job_nic`].
    pub fn nic(&self, endpoint: usize) -> Nic {
        assert!(
            endpoint < self.num_endpoints(),
            "no such endpoint {endpoint} (fabric has {} endpoints)",
            self.num_endpoints()
        );
        let job = self.inner.jobs.partition_point(|j| j.base <= endpoint) - 1;
        Nic {
            fabric: self.clone(),
            job,
            endpoint: endpoint - self.inner.jobs[job].base,
        }
    }

    /// The attachment point of job `job`'s local rank `rank`.
    pub fn job_nic(&self, job: usize, rank: usize) -> Nic {
        let js = &self.inner.jobs[job];
        assert!(
            rank < js.topo.num_ranks(),
            "no such rank {rank} in job {job} (job has {} ranks)",
            js.topo.num_ranks()
        );
        Nic {
            fabric: self.clone(),
            job,
            endpoint: rank,
        }
    }

    /// Number of jobs sharing this fabric (1 for a classic fabric).
    pub fn num_jobs(&self) -> usize {
        self.inner.jobs.len()
    }

    /// Job `job`'s scope label (`""` for the implicit single job).
    pub fn job_label(&self, job: usize) -> &str {
        &self.inner.jobs[job].label
    }

    /// Job `job`'s QoS knobs.
    pub fn job_qos(&self, job: usize) -> &JobQos {
        &self.inner.jobs[job].qos
    }

    /// Job `job`'s rank→node-slot topology.
    pub fn job_topology(&self, job: usize) -> &Topology {
        &self.inner.jobs[job].topo
    }

    /// Bytes job `job` has serialized through HCA transmit engines so far.
    pub fn job_hca_tx_bytes(&self, job: usize) -> u64 {
        self.inner.jobs[job].counters.get("hca.tx_bytes")
    }

    /// Bytes job `job` has copied through shm channels so far.
    pub fn job_shm_bytes(&self, job: usize) -> u64 {
        self.inner.jobs[job].counters.get("shm.bytes")
    }

    /// Job `job`'s current slot→physical-node binding, if placed.
    pub fn job_binding(&self, job: usize) -> Option<Vec<usize>> {
        self.inner.jobs[job]
            .binding
            .lock()
            .as_ref()
            .map(|b| b.as_ref().clone())
    }

    /// Place job `job` onto the physical nodes `nodes` (one per job node
    /// slot, in slot order). Refuses — with a typed [`BindError`] — a
    /// second binding, an out-of-range or duplicated node, or a placement
    /// that overlaps another bound job's nodes unless *both* jobs opted
    /// into sharing (`JobQos::share_nodes`); the overlap refusal is what
    /// keeps per-node HCA accounting from silently double-billing two
    /// tenants that never agreed to share an adapter.
    pub fn try_bind_job(&self, job: usize, nodes: &[usize]) -> Result<(), BindError> {
        let jobs = &self.inner.jobs;
        let js = &jobs[job];
        if nodes.len() != js.topo.num_nodes() {
            return Err(BindError::WrongCount {
                job,
                expected: js.topo.num_nodes(),
                got: nodes.len(),
            });
        }
        for (i, &n) in nodes.iter().enumerate() {
            if n >= self.num_nodes() {
                return Err(BindError::BadNode {
                    node: n,
                    num_nodes: self.num_nodes(),
                });
            }
            if nodes[..i].contains(&n) {
                return Err(BindError::DuplicateNode { node: n });
            }
        }
        if js.binding.lock().is_some() {
            return Err(BindError::AlreadyBound { job });
        }
        for (k, other) in jobs.iter().enumerate() {
            if k == job {
                continue;
            }
            let ob = other.binding.lock();
            if let Some(b) = ob.as_ref() {
                if let Some(&shared) = b.iter().find(|n| nodes.contains(n)) {
                    if !(js.qos.share_nodes && other.qos.share_nodes) {
                        return Err(BindError::NodeOverlap {
                            job,
                            other: k,
                            node: shared,
                        });
                    }
                }
            }
        }
        *js.binding.lock() = Some(Arc::new(nodes.to_vec()));
        Ok(())
    }

    /// [`Fabric::try_bind_job`], panicking on refusal (single-scheduler
    /// callers that treat a bad placement as a bug).
    pub fn bind_job(&self, job: usize, nodes: &[usize]) {
        if let Err(e) = self.try_bind_job(job, nodes) {
            panic!("bind_job: {e}");
        }
    }

    /// Release job `job`'s node binding (the job has drained; its nodes
    /// are free for the next arrival). The job's endpoints must be idle.
    pub fn unbind_job(&self, job: usize) {
        *self.inner.jobs[job].binding.lock() = None;
    }

    /// The network cost model.
    pub fn model(&self) -> &NetModel {
        &self.inner.model
    }

    /// The intra-node shared-memory cost model.
    pub fn shm_model(&self) -> &ShmModel {
        &self.inner.shm
    }

    /// Bytes `node`'s HCA transmit engine has serialized onto the wire so
    /// far. Intra-node traffic never contributes.
    pub fn hca_tx_bytes(&self, node: usize) -> u64 {
        self.inner.counters[node].get("hca.tx_bytes")
    }

    /// Bytes copied through `node`'s shm channel so far.
    pub fn shm_bytes(&self, node: usize) -> u64 {
        self.inner.counters[node].get("shm.bytes")
    }

    /// Attach a trace recorder: each node gets a `node{k}/hca_tx` lane
    /// (HCA serialization spans and fault instants), a `node{k}/shm`
    /// lane (shm copy-engine spans) and a `node{k}/offload` lane
    /// (scatter/gather engine spans), and its byte accumulators are
    /// registered as `node{k}.*` metrics. Recording never changes timing —
    /// spans reuse the times the engines already computed.
    pub fn attach_recorder(&self, rec: &Recorder) {
        let lanes = (0..self.num_nodes())
            .map(|n| {
                let scope = format!("node{n}");
                rec.register_counters(&scope, &self.inner.counters[n]);
                NodeLanes {
                    hca: rec.lane(&scope, "hca_tx", LaneKind::Hca),
                    shm: rec.lane(&scope, "shm", LaneKind::Shm),
                    offload: rec.lane(&scope, "offload", LaneKind::Hca),
                }
            })
            .collect();
        // Labeled tenants additionally surface their own byte totals as
        // `{label}fabric.*` — the implicit single job (empty label) adds
        // nothing, keeping the classic metrics namespace unchanged.
        for j in &self.inner.jobs {
            if !j.label.is_empty() {
                rec.register_counters(&format!("{}fabric", j.label), &j.counters);
            }
        }
        *self.inner.trace.lock() = Some(lanes);
    }
}

impl Nic {
    /// This endpoint's (rank's) id within its job.
    pub fn endpoint(&self) -> usize {
        self.endpoint
    }

    /// The id of the job this endpoint belongs to (0 on a single-job
    /// fabric).
    pub fn job(&self) -> usize {
        self.job
    }

    /// The scope prefix every trace lane, sanitizer pool and metrics key
    /// of this endpoint's rank should carry (`""` on a single-job fabric,
    /// so the classic namespace is reproduced byte for byte).
    pub fn scope_prefix(&self) -> &str {
        &self.fabric.inner.jobs[self.job].label
    }

    fn job_state(&self) -> &JobState {
        &self.fabric.inner.jobs[self.job]
    }

    /// This job's slot→physical-node binding; panics if the scheduler has
    /// not placed the job yet (an unbound job must not touch the fabric).
    fn bound(&self) -> Arc<Vec<usize>> {
        self.job_state().binding.lock().clone().unwrap_or_else(|| {
            panic!(
                "job {} is not bound to physical nodes (bind_job before any traffic)",
                self.job
            )
        })
    }

    /// The physical node hosting this endpoint (internal: engines, MR
    /// tables and pin accounting live per physical node).
    fn phys_node(&self) -> usize {
        self.bound()[self.job_state().topo.node_of(self.endpoint)]
    }

    /// The physical node hosting job-local endpoint `other`.
    fn phys_node_of(&self, other: usize) -> usize {
        self.bound()[self.job_state().topo.node_of(other)]
    }

    /// The global mailbox index of job-local endpoint `other`.
    fn global_ep(&self, other: usize) -> usize {
        self.job_state().base + other
    }

    /// The node slot (within this endpoint's job) hosting this endpoint.
    /// On a single-job fabric the binding is the identity, so this is the
    /// physical node. Resource-placement layers that need the physical
    /// node on a shared fabric use [`Nic::physical_node`].
    pub fn node(&self) -> usize {
        self.job_state().topo.node_of(self.endpoint)
    }

    /// The physical node this endpoint is currently bound to (for picking
    /// shared per-node resources such as the node's GPU). Panics while the
    /// job is unbound.
    pub fn physical_node(&self) -> usize {
        self.phys_node()
    }

    /// Whether `other` is an endpoint of the same job on the same node
    /// (true for `other == self.endpoint()`).
    pub fn colocated(&self, other: usize) -> bool {
        self.job_state().topo.colocated(self.endpoint, other)
    }

    /// The node slot hosting job-local endpoint `other` (topology-aware
    /// layers — hierarchical collectives — group peers by this).
    pub fn node_of(&self, other: usize) -> usize {
        self.job_state().topo.node_of(other)
    }

    /// Number of node slots in this endpoint's job.
    pub fn num_nodes(&self) -> usize {
        self.job_state().topo.num_nodes()
    }

    /// The mailbox where this endpoint's incoming packets land.
    pub fn mailbox(&self) -> &Mailbox<Packet> {
        &self.fabric.inner.mailboxes[self.global_ep(self.endpoint)]
    }

    /// Sanitizer: register a work request on one of this node's engines
    /// (`shm: false` = HCA tx, `true` = shm copy engine), ordered after the
    /// engine's previous request (same-queue ordering).
    fn san_begin(
        &self,
        kind: &'static str,
        shm: bool,
        reads: Vec<san::MemRange>,
        writes: Vec<san::MemRange>,
    ) -> Option<san::OpId> {
        if !san::enabled() {
            return None;
        }
        let node = self.phys_node();
        let preds = {
            let nodes = self.fabric.inner.nodes.lock();
            let last = if shm {
                nodes[node].shm_last
            } else {
                nodes[node].tx_last
            };
            last.into_iter().collect()
        };
        let lane = if shm {
            (self.fabric.num_nodes() + node) as u64
        } else {
            node as u64
        };
        san::begin_op(san::OpDesc {
            kind,
            queue: (self.fabric.inner.san_domain, lane),
            preds,
            reads,
            writes,
        })
    }

    /// The trace lane of this node's HCA transmit engine, if a recorder is
    /// attached.
    fn tx_lane(&self) -> Option<Lane> {
        self.fabric
            .inner
            .trace
            .lock()
            .as_ref()
            .map(|lanes| lanes[self.phys_node()].hca.clone())
    }

    /// The trace lane of this node's shm copy engine, if a recorder is
    /// attached.
    fn shm_lane(&self) -> Option<Lane> {
        self.fabric
            .inner
            .trace
            .lock()
            .as_ref()
            .map(|lanes| lanes[self.phys_node()].shm.clone())
    }

    /// The trace lane of this node's scatter/gather offload engine, if a
    /// recorder is attached.
    fn offload_lane(&self) -> Option<Lane> {
        self.fabric
            .inner
            .trace
            .lock()
            .as_ref()
            .map(|lanes| lanes[self.phys_node()].offload.clone())
    }

    /// Occupy the node's HCA transmit engine for `bytes` and return (engine
    /// occupancy start, engine release time, payload arrival time). `kind`
    /// labels the serialization span on the engine's trace lane. `extra`
    /// extends the engine occupancy beyond pure serialization (descriptor
    /// fetches of an offload post); it scales with the QoS share like the
    /// serialization itself and is `SimDur::ZERO` for plain sends.
    fn tx_schedule(
        &self,
        kind: &'static str,
        bytes: usize,
        extra: SimDur,
        op: Option<san::OpId>,
    ) -> (SimTime, SimTime, SimTime) {
        let m = &self.fabric.inner.model;
        let jobs = &self.fabric.inner.jobs;
        let node = self.phys_node();
        let now = sim_core::now();
        let mut nodes = self.fabric.inner.nodes.lock();
        let (start, tx_done) = if jobs.len() == 1 && jobs[0].qos.rate_cap.is_none() {
            // Single uncapped tenant: the original engine timeline,
            // arithmetic-for-arithmetic.
            let start = now.max(nodes[node].tx_free);
            let tx_done = start + m.serialize_time(bytes) + extra;
            nodes[node].tx_free = tx_done;
            (start, tx_done)
        } else {
            // Weighted-share arbitration (see `Fabric::multi_job`): an
            // idle engine serves at full rate; a backlogged one splits
            // bandwidth by `hca_weight` among the jobs with work queued on
            // it. `share == 1.0` keeps the exact integer duration, so a
            // sole active tenant's times match the single-job path bit for
            // bit regardless of its weight.
            let q = &jobs[self.job].qos;
            let hw = &mut nodes[node];
            let start = now.max(hw.job_tx_free[self.job]);
            let mut share = if hw.tx_free <= now {
                1.0
            } else {
                let mut wsum = q.hca_weight as u64;
                for (j, t) in hw.job_tx_free.iter().enumerate() {
                    if j != self.job && *t > now {
                        wsum += jobs[j].qos.hca_weight as u64;
                    }
                }
                q.hca_weight as f64 / wsum as f64
            };
            if let Some(cap) = q.rate_cap {
                share = share.min(cap);
            }
            let ser = m.serialize_time(bytes) + extra;
            let dur = if share >= 1.0 {
                ser
            } else {
                SimDur::from_nanos((ser.as_nanos() as f64 / share).round() as u64)
            };
            let tx_done = start + dur;
            hw.job_tx_free[self.job] = tx_done;
            hw.tx_free = hw.tx_free.max(tx_done);
            (start, tx_done)
        };
        if op.is_some() {
            nodes[node].tx_last = op;
        }
        drop(nodes);
        self.fabric.inner.counters[node].add("hca.tx_bytes", bytes as u64);
        let js = self.job_state();
        if !js.label.is_empty() {
            js.counters.add("hca.tx_bytes", bytes as u64);
        }
        if let Some(lane) = self.tx_lane() {
            lane.span(kind, start, tx_done);
        }
        let arrival = tx_done + SimDur::from_nanos(m.wire_lat_ns);
        san::op_complete_at(op, arrival);
        (start, tx_done, arrival)
    }

    /// Occupy the node's shm copy engine for `bytes` and return (start,
    /// copy done, receiver visibility time).
    fn shm_schedule(
        &self,
        kind: &'static str,
        bytes: usize,
        op: Option<san::OpId>,
    ) -> (SimTime, SimTime, SimTime) {
        let m = &self.fabric.inner.shm;
        let node = self.phys_node();
        let now = sim_core::now();
        let mut nodes = self.fabric.inner.nodes.lock();
        let start = now.max(nodes[node].shm_free);
        let copy_done = start + m.copy_time(bytes);
        nodes[node].shm_free = copy_done;
        if op.is_some() {
            nodes[node].shm_last = op;
        }
        drop(nodes);
        self.fabric.inner.counters[node].add("shm.bytes", bytes as u64);
        let js = self.job_state();
        if !js.label.is_empty() {
            js.counters.add("shm.bytes", bytes as u64);
        }
        if let Some(lane) = self.shm_lane() {
            lane.span(kind, start, copy_done);
        }
        let visible = copy_done + SimDur::from_nanos(m.latency_ns);
        san::op_complete_at(op, visible);
        (start, copy_done, visible)
    }

    fn post_overhead(&self) {
        sim_core::sleep(SimDur::from_nanos(self.fabric.inner.model.post_overhead_ns));
    }

    fn shm_post_overhead(&self) {
        sim_core::sleep(SimDur::from_nanos(self.fabric.inner.shm.post_overhead_ns));
    }

    /// Reliable two-sided send: delivers a [`Packet`] into `dst`'s mailbox.
    /// `wire_bytes` is the size the message occupies on the wire (use
    /// [`NetModel::ctrl_bytes`] for control messages, the payload length for
    /// eager data). Returns the sender-side completion (ack'd delivery).
    ///
    /// When `dst` is another endpoint on the same node the message is
    /// routed over the shm channel instead of the HCA (self-sends still use
    /// the HCA loopback path, preserving single-process timing).
    pub fn send(&self, dst: usize, wire_bytes: usize, payload: Box<dyn Any + Send>) -> Completion {
        self.send_impl(dst, wire_bytes, payload, false)
    }

    /// Convenience: send a control-sized message. Unlike [`Nic::send`],
    /// control messages are subject to the fault layer's drop/delay
    /// injection (the protocol above must retransmit them) — except
    /// intra-node, where the shm channel is reliable by construction.
    pub fn send_ctrl(&self, dst: usize, payload: Box<dyn Any + Send>) -> Completion {
        let bytes = self.fabric.inner.model.ctrl_bytes;
        self.send_impl(dst, bytes, payload, true)
    }

    fn send_impl(
        &self,
        dst: usize,
        wire_bytes: usize,
        payload: Box<dyn Any + Send>,
        ctrl: bool,
    ) -> Completion {
        assert!(
            dst < self.job_state().topo.num_ranks(),
            "no such endpoint {dst} (job has {} endpoints)",
            self.job_state().topo.num_ranks()
        );
        if dst != self.endpoint && self.colocated(dst) {
            return self.shm_send(dst, wire_bytes, payload, ctrl);
        }
        self.post_overhead();
        let op = self.san_begin("nic_send", false, vec![], vec![]);
        let kind = if ctrl { "ctrl" } else { "send" };
        let (start, _, arrival) = self.tx_schedule(kind, wire_bytes, SimDur::ZERO, op);
        // Fault injection applies to control traffic only: the loss happens
        // past the sender's HCA (a switch dropping toward a hosed receive
        // queue), so the sender-side CQE still reports success either way.
        let mut deliver_at = Some(arrival);
        if ctrl {
            if let Some(f) = &self.fabric.inner.faults {
                if f.drop_ctrl() {
                    instrument::global().record("fault.ctrl_drop");
                    if let Some(lane) = self.tx_lane() {
                        lane.instant("fault.ctrl_drop", arrival);
                    }
                    deliver_at = None;
                } else if let Some(extra) = f.delay_ctrl() {
                    instrument::global().record("fault.ctrl_delay");
                    if let Some(lane) = self.tx_lane() {
                        lane.instant("fault.ctrl_delay", arrival);
                    }
                    deliver_at = Some(arrival + SimDur::from_nanos(extra));
                }
            }
            if let Some(t) = deliver_at {
                deliver_at = self.consult_scheduler(dst, false, t, payload.as_ref());
            }
        }
        if let Some(t) = deliver_at {
            self.fabric.deliver_packet_at(
                self.global_ep(dst),
                t,
                Packet {
                    src: self.endpoint,
                    wire_bytes,
                    payload,
                },
            );
        }
        let c = Completion::ready_between(start, arrival);
        if let Some(o) = op {
            c.attach_ops(&[o]);
        }
        c
    }

    /// Offer one outgoing control packet to the installed
    /// [`DeliveryScheduler`], if any. Returns the (possibly adjusted)
    /// delivery time, or `None` when the scheduler dropped the packet.
    /// Without a scheduler this is a single uncontended lock and returns
    /// `arrival` unchanged.
    fn consult_scheduler(
        &self,
        dst: usize,
        shm: bool,
        arrival: SimTime,
        payload: &(dyn Any + Send),
    ) -> Option<SimTime> {
        let sched = match self.fabric.inner.scheduler.lock().clone() {
            Some(s) => s,
            None => return Some(arrival),
        };
        let point = CtrlPoint {
            src: self.endpoint,
            dst,
            shm,
            arrival,
            payload,
        };
        match sched.on_ctrl(&point) {
            CtrlAction::Deliver => Some(arrival),
            CtrlAction::Delay(ns) => {
                instrument::global().record("sched.ctrl_delay");
                Some(arrival + SimDur::from_nanos(ns))
            }
            CtrlAction::Drop if shm => panic!(
                "DeliveryScheduler dropped an intra-node ctrl packet \
                 ({} -> {dst}): the shm channel is reliable by construction",
                self.endpoint
            ),
            CtrlAction::Drop => {
                instrument::global().record("sched.ctrl_drop");
                None
            }
        }
    }

    /// Intra-node delivery over the node's shm channel: no HCA, no wire,
    /// no fault injection.
    fn shm_send(
        &self,
        dst: usize,
        wire_bytes: usize,
        payload: Box<dyn Any + Send>,
        ctrl: bool,
    ) -> Completion {
        self.shm_post_overhead();
        let op = self.san_begin("shm_send", true, vec![], vec![]);
        let kind = if ctrl { "ctrl" } else { "send" };
        let (start, _, visible) = self.shm_schedule(kind, wire_bytes, op);
        let deliver_at = if ctrl {
            // The shm channel never loses messages, so `Drop` is rejected
            // inside `consult_scheduler`; `Delay` stands in for the
            // receiving rank being scheduled out. The sender-side
            // completion keeps the model-computed `visible` either way.
            self.consult_scheduler(dst, true, visible, payload.as_ref())
                .expect("unreachable: shm ctrl packets cannot be dropped")
        } else {
            visible
        };
        self.fabric.deliver_packet_at(
            self.global_ep(dst),
            deliver_at,
            Packet {
                src: self.endpoint,
                wire_bytes,
                payload,
            },
        );
        let c = Completion::ready_between(start, visible);
        if let Some(o) = op {
            c.attach_ops(&[o]);
        }
        c
    }

    /// Register `buf` for remote access (pins it). Costs registration time.
    ///
    /// Infallible: internal pools registered at startup must not fail even
    /// under a fault-injected pin limit (MVAPICH2 registers its vbuf pools
    /// at `MPI_Init`; the limit bites on *user* buffers, via
    /// [`try_register`](Nic::try_register)). The bytes still count against
    /// the node's pinned footprint.
    pub fn register(&self, buf: &HostBuf) -> MrKey {
        let m = &self.fabric.inner.model;
        if sim_core::in_sim() {
            sim_core::sleep(m.reg_time(buf.len()));
        }
        self.register_finish(buf)
    }

    /// Fallible registration for user buffers: refused with [`RegError`]
    /// when the fault layer's pin limit would be exceeded. The refusal is
    /// checked *before* the registration time is charged (the verbs call
    /// fails fast). Without a fault spec this never fails. The limit is per
    /// node: co-located endpoints draw from the same pin budget.
    pub fn try_register(&self, buf: &HostBuf) -> Result<MrKey, RegError> {
        if let Some(limit) = self
            .fabric
            .inner
            .faults
            .as_ref()
            .and_then(|f| f.pin_limit())
        {
            let pinned = self.fabric.inner.nodes.lock()[self.phys_node()].pinned_bytes;
            if pinned + buf.len() > limit {
                instrument::global().record("fault.reg_fail");
                if let Some(lane) = self.tx_lane() {
                    lane.instant_now("fault.reg_fail");
                }
                return Err(RegError {
                    requested: buf.len(),
                    pinned,
                    limit,
                });
            }
        }
        let m = &self.fabric.inner.model;
        if sim_core::in_sim() {
            sim_core::sleep(m.reg_time(buf.len()));
        }
        Ok(self.register_finish(buf))
    }

    fn register_finish(&self, buf: &HostBuf) -> MrKey {
        buf.pin();
        let node = self.phys_node();
        let key = MrKey(self.fabric.inner.next_key.fetch_add(1, Ordering::Relaxed));
        let mut nodes = self.fabric.inner.nodes.lock();
        nodes[node].pinned_bytes += buf.len();
        nodes[node].mrs.insert(key, Mr { buf: buf.clone() });
        key
    }

    /// Bytes this endpoint's node currently has pinned through its HCA
    /// (shared across co-located endpoints).
    pub fn pinned_bytes(&self) -> usize {
        self.fabric.inner.nodes.lock()[self.phys_node()].pinned_bytes
    }

    /// Whether this NIC's fabric injects faults (see
    /// [`Fabric::faults_enabled`]).
    pub fn faults_enabled(&self) -> bool {
        self.fabric.faults_enabled()
    }

    /// Remove a registration. The region stays pinned (as after
    /// `ibv_dereg_mr` the pages may stay resident); remote access through
    /// the key now faults. The bytes no longer count against the node's
    /// pin-limit footprint.
    pub fn deregister(&self, key: MrKey) {
        let node = self.phys_node();
        let mut nodes = self.fabric.inner.nodes.lock();
        let removed = nodes[node].mrs.remove(&key);
        match removed {
            Some(mr) => nodes[node].pinned_bytes -= mr.buf.len(),
            None => panic!("deregister of unknown MrKey {key:?}"),
        }
    }

    /// Look up the MR `key` on `dst`'s node, validate `[offset, offset+len)`
    /// against it, and return its buffer. Panics like an HCA protection
    /// fault on unknown keys or out-of-bounds access (`what` labels the
    /// faulting operation).
    fn resolve_mr(
        &self,
        what: &str,
        dst: usize,
        key: MrKey,
        dst_offset: usize,
        len: usize,
    ) -> HostBuf {
        let dst_node = self.phys_node_of(dst);
        let nodes = self.fabric.inner.nodes.lock();
        let Some(mr) = nodes[dst_node].mrs.get(&key) else {
            drop(nodes);
            san::report_protocol(format!(
                "{what} to unknown MrKey {key:?} on node {dst_node}                      (unregistered or deregistered target region)"
            ));
            panic!("{what} to unknown MrKey {key:?} on node {dst_node}");
        };
        if dst_offset + len > mr.buf.len() {
            let mr_len = mr.buf.len();
            drop(nodes);
            san::report_protocol(format!(
                "{what} out of bounds: {dst_offset}+{len} > {mr_len}"
            ));
            panic!("{what} out of bounds: {dst_offset}+{len} > {mr_len}");
        }
        mr.buf.clone()
    }

    /// One-sided RDMA write: place `len` bytes from the local pinned region
    /// at `src` into `(dst, key, dst_offset)` on the destination endpoint's
    /// node. The remote CPU sees no event; the returned completion is the
    /// sender-side CQE.
    ///
    /// Panics (a simulated HCA protection fault) if the local source is not
    /// pinned, the remote key is unknown, or the write is out of bounds.
    pub fn rdma_write(
        &self,
        dst: usize,
        key: MrKey,
        dst_offset: usize,
        src: &HostPtr,
        len: usize,
    ) -> Completion {
        if !src.buf().is_pinned() {
            san::report_protocol(format!(
                "RDMA write from unpinned local memory {:?}",
                src.buf()
            ));
            panic!("RDMA write from unpinned local memory {:?}", src.buf());
        }
        self.post_overhead();
        // Injected transport failure: the write occupies the engine and the
        // wire like a real retry-exhausted transfer, but places no bytes and
        // completes with an error CQE. No sanitizer op is created — nothing
        // was written, so there is nothing to order against.
        if let Some(f) = &self.fabric.inner.faults {
            if f.rdma_error() {
                instrument::global().record("fault.rdma_error");
                let (start, _, arrival) = self.tx_schedule("rdma", len, SimDur::ZERO, None);
                if let Some(lane) = self.tx_lane() {
                    lane.instant("fault.rdma_error", arrival);
                }
                return Completion::failed_between(start, arrival);
            }
        }
        // Validate and copy into the remote region. The copy is performed
        // eagerly; remote visibility is ordered by the fabric because any
        // notification of this write travels behind it on the same engine.
        let mr_buf = self.resolve_mr("RDMA write", dst, key, dst_offset, len);
        let op = {
            let reads = vec![san::MemRange {
                domain: san::MemDomain::Host {
                    buf: src.buf().id(),
                },
                start: src.offset(),
                len,
            }];
            let writes = vec![san::MemRange {
                domain: san::MemDomain::Host { buf: mr_buf.id() },
                start: dst_offset,
                len,
            }];
            let op = self.san_begin("rdma_write", false, reads, writes);
            let _san = san::suppress();
            HostBuf::copy(src, &mr_buf.ptr(dst_offset), len);
            op
        };
        let (start, _, arrival) = self.tx_schedule("rdma", len, SimDur::ZERO, op);
        let c = Completion::ready_between(start, arrival);
        if let Some(o) = op {
            c.attach_ops(&[o]);
        }
        c
    }

    /// One-sided scatter/gather write: the HCA's offload engine walks the
    /// `gather` descriptor over `src`'s buffer, streams the packed bytes to
    /// `dst`, and the remote HCA walks `scatter` to place them into the
    /// region named by `key` — no CPU pack/unpack on either side. Entry
    /// offsets are absolute within `src`'s buffer (gather) and within the
    /// remote MR (scatter).
    ///
    /// Cost model: one descriptor fetch per entry
    /// ([`NetModel::offload_entry_ns`](crate::NetModel::offload_entry_ns))
    /// plus DMA serialization of the payload, both charged against the
    /// node's HCA transmit engine (and scaled by the job's QoS share like
    /// any other transmit). With [`FaultSpec::desc_fetch_error`]
    /// (crate::FaultSpec::desc_fetch_error) armed, a post can fail its
    /// descriptor fetch: it occupies the engine, places no bytes and
    /// completes with an error CQE — callers retry like a failed
    /// [`Nic::rdma_write`].
    ///
    /// Panics (a simulated HCA protection fault) if the local source is not
    /// pinned, the remote key is unknown, either descriptor runs out of
    /// bounds, or the gather and scatter descriptors disagree on the total
    /// byte count.
    pub fn rdma_write_sg(
        &self,
        dst: usize,
        key: MrKey,
        src: &HostPtr,
        gather: &[SgEntry],
        scatter: &[SgEntry],
    ) -> Completion {
        if !src.buf().is_pinned() {
            san::report_protocol(format!(
                "SG write from unpinned local memory {:?}",
                src.buf()
            ));
            panic!("SG write from unpinned local memory {:?}", src.buf());
        }
        let total: usize = gather.iter().map(|e| e.bytes()).sum();
        let scatter_total: usize = scatter.iter().map(|e| e.bytes()).sum();
        assert_eq!(
            total, scatter_total,
            "SG write descriptors disagree: gather {total} bytes, scatter {scatter_total}"
        );
        let entries = gather.len() + scatter.len();
        let m = &self.fabric.inner.model;
        let extra = SimDur::from_nanos(entries as u64 * m.offload_entry_ns);
        self.post_overhead();
        // Injected descriptor-fetch failure: the post occupies the engine
        // (the HCA burned the fetches before aborting) but places no bytes
        // and completes with an error CQE, exactly like a failed RDMA write.
        if let Some(f) = &self.fabric.inner.faults {
            if f.desc_fetch_error() {
                instrument::global().record("fault.desc_fetch");
                let (start, tx_done, arrival) = self.tx_schedule("offload", total, extra, None);
                if let Some(lane) = self.offload_lane() {
                    lane.span("sg_fault", start, tx_done);
                    lane.instant("fault.desc_fetch", arrival);
                }
                return Completion::failed_between(start, arrival);
            }
        }
        let src_len = src.buf().len();
        for e in gather {
            assert!(
                e.offset + e.span() <= src_len,
                "SG gather entry {e:?} out of bounds of local buffer (len {src_len})"
            );
        }
        let extent = scatter
            .iter()
            .map(|e| e.offset + e.span())
            .max()
            .unwrap_or(0);
        let mr_buf = self.resolve_mr("SG write", dst, key, 0, extent);
        // Validate and copy eagerly, like `rdma_write`: remote visibility is
        // ordered by the fabric because any notification of this write
        // travels behind it on the same engine. Sanitizer ranges, built
        // only when it runs, cover each run's full extent (holes included)
        // — one range per descriptor entry, mirroring what the HCA's DMA
        // engine may touch.
        let op = if san::enabled() {
            let reads = gather
                .iter()
                .map(|e| san::MemRange {
                    domain: san::MemDomain::Host {
                        buf: src.buf().id(),
                    },
                    start: e.offset,
                    len: e.span(),
                })
                .collect();
            let writes = scatter
                .iter()
                .map(|e| san::MemRange {
                    domain: san::MemDomain::Host { buf: mr_buf.id() },
                    start: e.offset,
                    len: e.span(),
                })
                .collect();
            self.san_begin("rdma_write_sg", false, reads, writes)
        } else {
            None
        };
        // Bytes move run to run under one lock per buffer, the MR's before
        // the source's; a zero-byte write takes none. The op declared every
        // range above, so the views report none.
        if total > 0 {
            let _san = san::suppress();
            if mr_buf.id() == src.buf().id() {
                // One buffer, one lock: gather everything before scattering,
                // so overlapping gather and scatter ranges read old bytes.
                let mut buf = mr_buf.write_view([]);
                let mut data = Vec::with_capacity(total);
                for (o, l) in sg_blocks(gather) {
                    data.extend_from_slice(buf.slice_mut(o, l));
                }
                let mut at = 0;
                for (o, l) in sg_blocks(scatter) {
                    buf.write(o, &data[at..at + l]);
                    at += l;
                }
            } else {
                let mut to = mr_buf.write_view([]);
                let from = src.buf().read_view([]);
                sg_copy(gather, scatter, |s, d, n| to.copy_from(d, &from, s, n));
            }
        }
        let (start, tx_done, arrival) = self.tx_schedule("offload", total, extra, op);
        let node = self.phys_node();
        self.fabric.inner.counters[node].add("offload.bytes", total as u64);
        self.fabric.inner.counters[node].add("offload.entries", entries as u64);
        let js = self.job_state();
        if !js.label.is_empty() {
            js.counters.add("offload.bytes", total as u64);
        }
        if let Some(lane) = self.offload_lane() {
            lane.span("sg", start, tx_done);
        }
        let c = Completion::ready_between(start, arrival);
        if let Some(o) = op {
            c.attach_ops(&[o]);
        }
        c
    }

    /// Intra-node one-sided write: place `len` bytes from `src` into
    /// `(dst, key, dst_offset)` through the node's shm copy engine. The
    /// shared-memory analogue of [`Nic::rdma_write`]: same MR naming and
    /// protection-fault semantics, but no HCA, no wire, no pinning
    /// requirement on the source (the CPU copies through shared pages), and
    /// no fault injection.
    ///
    /// Panics if `dst` is not co-located with this endpoint, if the key is
    /// unknown, or if the write is out of bounds.
    pub fn shm_write(
        &self,
        dst: usize,
        key: MrKey,
        dst_offset: usize,
        src: &HostPtr,
        len: usize,
    ) -> Completion {
        assert!(
            self.colocated(dst),
            "shm write from endpoint {} to endpoint {dst} on another node",
            self.endpoint
        );
        self.shm_post_overhead();
        let mr_buf = self.resolve_mr("shm write", dst, key, dst_offset, len);
        let op = {
            let reads = vec![san::MemRange {
                domain: san::MemDomain::Host {
                    buf: src.buf().id(),
                },
                start: src.offset(),
                len,
            }];
            let writes = vec![san::MemRange {
                domain: san::MemDomain::Host { buf: mr_buf.id() },
                start: dst_offset,
                len,
            }];
            let op = self.san_begin("shm_write", true, reads, writes);
            let _san = san::suppress();
            HostBuf::copy(src, &mr_buf.ptr(dst_offset), len);
            op
        };
        let (start, _, visible) = self.shm_schedule("copy", len, op);
        let c = Completion::ready_between(start, visible);
        if let Some(o) = op {
            c.attach_ops(&[o]);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{now, Sim};

    fn in_sim(f: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("test", f);
        sim.run();
    }

    #[test]
    fn send_delivers_after_wire_time() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send(1, 1 << 20, Box::new(42u32));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(pkt.src, 0);
                assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 42);
                // ~300 ns post + ~328 us serialize + 1.3 us latency.
                let us = now().as_micros_f64();
                assert!((us - 329.3).abs() < 2.0, "arrival at {us} us");
            });
        }
        sim.run();
    }

    #[test]
    fn sends_from_one_node_are_in_order() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                // A large message posted first must arrive before a small
                // one posted second (same QP ordering).
                nic.send(1, 1 << 20, Box::new(1u32));
                nic.send(1, 8, Box::new(2u32));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let a = nic.mailbox().recv();
                let b = nic.mailbox().recv();
                assert_eq!(*a.payload.downcast::<u32>().unwrap(), 1);
                assert_eq!(*b.payload.downcast::<u32>().unwrap(), 2);
            });
        }
        sim.run();
    }

    #[test]
    fn rdma_write_places_bytes_remotely() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target); // outside sim: no time cost
        {
            let nic = fabric.nic(0);
            let t2 = target.clone();
            sim.spawn("writer", move || {
                let src = HostBuf::from_vec(vec![7u8; 16]);
                nic.register(&src); // pin it
                let c = nic.rdma_write(1, key, 8, &src.base(), 16);
                c.wait();
                assert_eq!(t2.read(8, 16), vec![7u8; 16]);
                assert_eq!(t2.read(0, 8), vec![0u8; 8]);
            });
        }
        sim.run();
    }

    #[test]
    #[should_panic(expected = "unpinned local memory")]
    fn rdma_from_unpinned_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).rdma_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rdma_out_of_bounds_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        in_sim(move || {
            let src = HostBuf::alloc(128);
            fabric.nic(0).register(&src);
            fabric.nic(0).rdma_write(1, key, 0, &src.base(), 128);
        });
    }

    #[test]
    #[should_panic(expected = "unknown MrKey")]
    fn rdma_after_deregister_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let nic1 = fabric.nic(1);
        let key = nic1.register(&target);
        nic1.deregister(key);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).register(&src);
            fabric.nic(0).rdma_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    fn registration_costs_time_in_sim() {
        let sim = Sim::new();
        let fabric = Fabric::new(1, NetModel::qdr());
        sim.spawn("p", move || {
            let buf = HostBuf::alloc(1 << 20);
            let t0 = now();
            fabric.nic(0).register(&buf);
            assert!(now() > t0);
            assert!(buf.is_pinned());
        });
        sim.run();
    }

    #[test]
    fn certain_ctrl_drop_loses_packet_but_acks_sender() {
        let sim = Sim::new();
        let fabric = Fabric::with_faults(
            2,
            NetModel::qdr(),
            Some(FaultSpec {
                ctrl_drop: 1.0,
                ..FaultSpec::seeded(3)
            }),
        );
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                // Dropped ctrl message still completes on the sender side...
                let c = nic.send_ctrl(1, Box::new("rts"));
                c.wait();
                assert!(!c.is_error());
                // ...and data sends are never subject to ctrl loss.
                nic.send(1, 1 << 10, Box::new(5u32));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 5);
            });
        }
        sim.run();
    }

    #[test]
    fn delayed_ctrl_can_be_overtaken() {
        let sim = Sim::new();
        let fabric = Fabric::with_faults(
            2,
            NetModel::qdr(),
            Some(FaultSpec {
                ctrl_delay: 1.0,
                delay_ns: 1_000_000,
                ..FaultSpec::seeded(4)
            }),
        );
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send_ctrl(1, Box::new("first")); // delayed 1 ms
                nic.send(1, 8, Box::new("second")); // data: on time
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let a = nic.mailbox().recv();
                let b = nic.mailbox().recv();
                assert_eq!(*a.payload.downcast::<&str>().unwrap(), "second");
                assert_eq!(*b.payload.downcast::<&str>().unwrap(), "first");
            });
        }
        sim.run();
    }

    #[test]
    fn injected_rdma_error_places_no_bytes() {
        let sim = Sim::new();
        let fabric = Fabric::with_faults(
            2,
            NetModel::qdr(),
            Some(FaultSpec {
                rdma_error: 1.0,
                ..FaultSpec::seeded(5)
            }),
        );
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        {
            let nic = fabric.nic(0);
            let t2 = target.clone();
            sim.spawn("writer", move || {
                let src = HostBuf::from_vec(vec![7u8; 16]);
                nic.register(&src);
                let c = nic.rdma_write(1, key, 0, &src.base(), 16);
                c.wait();
                assert!(c.is_error(), "injected failure must surface as error CQE");
                assert_eq!(t2.read(0, 16), vec![0u8; 16], "no bytes placed");
            });
        }
        sim.run();
    }

    #[test]
    fn pin_limit_fails_try_register_but_not_register() {
        let sim = Sim::new();
        let fabric = Fabric::with_faults(
            1,
            NetModel::qdr(),
            Some(FaultSpec {
                pin_limit_bytes: Some(100),
                ..FaultSpec::seeded(6)
            }),
        );
        sim.spawn("p", move || {
            let nic = fabric.nic(0);
            let a = HostBuf::alloc(64);
            let ka = nic.try_register(&a).expect("under the limit");
            assert_eq!(nic.pinned_bytes(), 64);
            let b = HostBuf::alloc(64);
            let err = nic.try_register(&b).expect_err("64+64 > 100");
            assert_eq!((err.requested, err.pinned, err.limit), (64, 64, 100));
            // Infallible registration (internal pools) ignores the limit
            // but still counts.
            nic.register(&b);
            assert_eq!(nic.pinned_bytes(), 128);
            // Deregistering releases the accounting.
            nic.deregister(ka);
            assert_eq!(nic.pinned_bytes(), 64);
        });
        sim.run();
    }

    #[test]
    fn control_messages_are_cheap() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send_ctrl(1, Box::new("rts"));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let _ = nic.mailbox().recv();
                assert!(now().as_micros_f64() < 2.0, "ctrl took {}", now());
            });
        }
        sim.run();
    }

    #[test]
    #[should_panic(expected = "no such endpoint 7")]
    fn nic_lookup_out_of_range_panics() {
        Fabric::new(2, NetModel::qdr()).nic(7);
    }

    #[test]
    fn colocated_send_bypasses_hca() {
        let sim = Sim::new();
        let topo = Topology::uniform(1, 2); // two ranks, one node
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send(1, 1 << 20, Box::new(9u32));
            });
        }
        {
            let nic = fabric.nic(1);
            let f2 = fabric.clone();
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(pkt.src, 0);
                assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 9);
                // 1 MiB at 4 GB/s (~262 us) + sub-us overheads: well under
                // the ~329 us the wire path takes, and the HCA saw nothing.
                let us = now().as_micros_f64();
                assert!(us < 300.0, "shm delivery at {us} us");
                assert_eq!(f2.hca_tx_bytes(0), 0, "intra-node send hit the HCA");
                assert!(f2.shm_bytes(0) >= 1 << 20);
            });
        }
        sim.run();
    }

    #[test]
    fn colocated_ctrl_survives_certain_drop_faults() {
        let sim = Sim::new();
        let topo = Topology::uniform(1, 2);
        let fabric = Fabric::with_topology(
            topo,
            NetModel::qdr(),
            ShmModel::westmere(),
            Some(FaultSpec {
                ctrl_drop: 1.0,
                ..FaultSpec::seeded(7)
            }),
        );
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send_ctrl(1, Box::new("rts"));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(*pkt.payload.downcast::<&str>().unwrap(), "rts");
            });
        }
        sim.run();
    }

    #[test]
    fn shm_write_places_bytes_without_hca() {
        let sim = Sim::new();
        let topo = Topology::uniform(1, 2);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        {
            let nic = fabric.nic(0);
            let t2 = target.clone();
            let f2 = fabric.clone();
            sim.spawn("writer", move || {
                // No pinning required on the source: the CPU does the copy.
                let src = HostBuf::from_vec(vec![3u8; 16]);
                let c = nic.shm_write(1, key, 4, &src.base(), 16);
                c.wait();
                assert_eq!(t2.read(4, 16), vec![3u8; 16]);
                assert_eq!(f2.hca_tx_bytes(0), 0);
            });
        }
        sim.run();
    }

    #[test]
    #[should_panic(expected = "on another node")]
    fn shm_write_across_nodes_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).shm_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    #[should_panic(expected = "unknown MrKey")]
    fn shm_write_unknown_key_faults() {
        let topo = Topology::uniform(1, 2);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let target = HostBuf::alloc(64);
        let nic1 = fabric.nic(1);
        let key = nic1.register(&target);
        nic1.deregister(key);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).shm_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    fn colocated_endpoints_share_one_hca_engine() {
        // Two colocated senders each push 1 MiB to a rank on another node:
        // the second transfer serializes behind the first on the shared
        // engine, so it arrives roughly twice as late as it would alone.
        let sim = Sim::new();
        let topo = Topology::from_map(vec![0, 0, 1]);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        for ep in 0..2 {
            let nic = fabric.nic(ep);
            sim.spawn("sender", move || {
                nic.send(2, 1 << 20, Box::new(ep));
            });
        }
        {
            let nic = fabric.nic(2);
            sim.spawn("receiver", move || {
                let _ = nic.mailbox().recv();
                let _ = nic.mailbox().recv();
                let us = now().as_micros_f64();
                assert!(
                    us > 600.0,
                    "second 1 MiB arrived at {us} us — no contention"
                );
            });
        }
        sim.run();
    }

    #[test]
    fn self_send_still_uses_hca_loopback() {
        let sim = Sim::new();
        let fabric = Fabric::new(1, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            let f2 = fabric.clone();
            sim.spawn("p", move || {
                nic.send(0, 4096, Box::new(1u8));
                let _ = nic.mailbox().recv();
                assert_eq!(f2.hca_tx_bytes(0), 4096);
            });
        }
        sim.run();
    }

    // ---- multi-job fabric -------------------------------------------------

    fn two_node_spec(id: usize) -> JobSpec {
        JobSpec::labeled(id, Topology::one_per_node(2))
    }

    #[test]
    fn bind_rejects_bad_placements_with_typed_errors() {
        let f = Fabric::multi_job(
            4,
            vec![two_node_spec(0), two_node_spec(1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        assert_eq!(
            f.try_bind_job(0, &[0]),
            Err(BindError::WrongCount {
                job: 0,
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            f.try_bind_job(0, &[0, 9]),
            Err(BindError::BadNode {
                node: 9,
                num_nodes: 4
            })
        );
        assert_eq!(
            f.try_bind_job(0, &[1, 1]),
            Err(BindError::DuplicateNode { node: 1 })
        );
        f.bind_job(0, &[0, 1]);
        assert_eq!(
            f.try_bind_job(0, &[2, 3]),
            Err(BindError::AlreadyBound { job: 0 })
        );
        // Overlapping a bound job without QoS sharing on both is refused...
        assert_eq!(
            f.try_bind_job(1, &[1, 2]),
            Err(BindError::NodeOverlap {
                job: 1,
                other: 0,
                node: 1
            })
        );
        // ...a disjoint placement goes through, and unbinding frees the
        // nodes for a different placement.
        assert_eq!(f.try_bind_job(1, &[2, 3]), Ok(()));
        assert_eq!(f.job_binding(1), Some(vec![2, 3]));
        f.unbind_job(1);
        assert_eq!(f.try_bind_job(1, &[3, 2]), Ok(()));
    }

    #[test]
    fn overlap_allowed_when_both_jobs_opt_into_sharing() {
        let mk = |id: usize| {
            let mut s = two_node_spec(id);
            s.qos.share_nodes = true;
            s
        };
        let f = Fabric::multi_job(
            2,
            vec![mk(0), mk(1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        f.bind_job(0, &[0, 1]);
        assert_eq!(f.try_bind_job(1, &[0, 1]), Ok(()));
    }

    #[test]
    #[should_panic(expected = "not bound to physical nodes")]
    fn unbound_job_traffic_panics() {
        let f = Fabric::multi_job(
            2,
            vec![two_node_spec(0)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        in_sim(move || {
            f.job_nic(0, 0).send(1, 8, Box::new(0u8));
        });
    }

    /// Arrival times of a three-message train from `tx` to `rx` (endpoint 1
    /// of the same job), as raw virtual instants.
    fn train_times(tx: Nic, rx: Nic) -> Vec<SimTime> {
        let sim = Sim::new();
        let out = Arc::new(Mutex::new(Vec::new()));
        sim.spawn("tx", move || {
            for bytes in [1usize << 20, 4096, 1 << 16] {
                tx.send(1, bytes, Box::new(bytes));
            }
        });
        let sink = Arc::clone(&out);
        sim.spawn("rx", move || {
            for _ in 0..3 {
                rx.mailbox().recv();
                sink.lock().push(now());
            }
        });
        sim.run();
        let v = out.lock().clone();
        v
    }

    #[test]
    fn sole_tenant_on_shared_fabric_is_bit_identical_to_dedicated() {
        let ded = Fabric::new(2, NetModel::qdr());
        let dedicated = train_times(ded.nic(0), ded.nic(1));
        // Same train on a 2-tenant fabric whose second job stays silent
        // (and unbound): the arbitration path must reproduce the dedicated
        // timeline exactly, whatever the active job's weight.
        let mut spec = two_node_spec(0);
        spec.qos.hca_weight = 7;
        let shared = Fabric::multi_job(
            2,
            vec![spec, two_node_spec(1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        shared.bind_job(0, &[0, 1]);
        let tenant = train_times(shared.job_nic(0, 0), shared.job_nic(0, 1));
        assert_eq!(dedicated, tenant, "sole tenant diverged from dedicated");
    }

    #[test]
    fn weighted_share_shifts_contention_between_tenants() {
        // Two co-located jobs blast the same HCA with eight 1 MiB messages
        // each; the weight-4 job must drain well before the weight-1 job.
        let mk = |id: usize, w: u32| {
            let mut s = two_node_spec(id);
            s.qos.share_nodes = true;
            s.qos.hca_weight = w;
            s
        };
        let f = Fabric::multi_job(
            2,
            vec![mk(0, 4), mk(1, 1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        f.bind_job(0, &[0, 1]);
        f.bind_job(1, &[0, 1]);
        let sim = Sim::new();
        let done = Arc::new(Mutex::new([None::<SimTime>; 2]));
        for job in 0..2 {
            let tx = f.job_nic(job, 0);
            sim.spawn("tx", move || {
                for i in 0..8 {
                    tx.send(1, 1 << 20, Box::new(i));
                }
            });
            let rx = f.job_nic(job, 1);
            let d = Arc::clone(&done);
            sim.spawn("rx", move || {
                for _ in 0..8 {
                    rx.mailbox().recv();
                }
                d.lock()[job] = Some(now());
            });
        }
        sim.run();
        let [heavy, light] = *done.lock();
        let (heavy, light) = (heavy.unwrap(), light.unwrap());
        assert!(
            heavy < light,
            "weight-4 job finished at {heavy}, weight-1 at {light}"
        );
        // Both jobs moved their full 8 MiB, billed to their own scopes and
        // to the shared node counter.
        assert_eq!(f.job_hca_tx_bytes(0), 8 << 20);
        assert_eq!(f.job_hca_tx_bytes(1), 8 << 20);
        assert_eq!(f.hca_tx_bytes(0), 16 << 20);
    }

    #[test]
    fn rate_cap_throttles_even_an_idle_engine() {
        let arrival = |cap: Option<f64>| {
            let mut spec = two_node_spec(0);
            spec.qos.rate_cap = cap;
            let f = Fabric::multi_job(2, vec![spec], NetModel::qdr(), ShmModel::westmere(), None);
            f.bind_job(0, &[0, 1]);
            train_times(f.job_nic(0, 0), f.job_nic(0, 1))[0]
        };
        let full = arrival(None).as_micros_f64();
        let capped = arrival(Some(0.25)).as_micros_f64();
        // A quarter-rate cap stretches serialization ~4x even though the
        // engine is otherwise idle (non-work-conserving ceiling).
        assert!(
            capped > 3.0 * full,
            "cap 0.25 arrived at {capped} us vs {full} us uncapped"
        );
    }

    fn sg(offset: usize, len: usize, stride: usize, count: usize) -> SgEntry {
        SgEntry {
            offset,
            len,
            stride,
            count,
        }
    }

    /// Per-run reference of an SG write over plain vectors: read every
    /// gather block into one vector, then write it out block by block.
    fn sg_reference(src: &[u8], dst: &mut [u8], gather: &[SgEntry], scatter: &[SgEntry]) {
        let mut data = Vec::new();
        for e in gather {
            for b in 0..e.count {
                let o = e.offset + b * e.stride;
                data.extend_from_slice(&src[o..o + e.len]);
            }
        }
        let mut at = 0;
        for e in scatter {
            for b in 0..e.count {
                let o = e.offset + b * e.stride;
                dst[o..o + e.len].copy_from_slice(&data[at..at + e.len]);
                at += e.len;
            }
        }
    }

    #[test]
    fn sg_write_matches_the_per_run_reference() {
        let cases = [
            // Overlapping gather blocks (stride < len) into one packed run.
            (vec![sg(3, 8, 5, 6)], vec![sg(0, 48, 48, 1)]),
            // Empty entries on both sides, between real ones.
            (
                vec![sg(0, 4, 8, 0), sg(10, 4, 8, 3), sg(0, 7, 1, 0)],
                vec![sg(5, 6, 9, 0), sg(1, 6, 9, 2)],
            ),
            // Gather runs split across scatter entries and blocks.
            (
                vec![sg(0, 10, 16, 3), sg(100, 2, 3, 1)],
                vec![sg(2, 6, 8, 2), sg(40, 5, 7, 4)],
            ),
            // Zero-length blocks.
            (vec![sg(7, 0, 4, 3), sg(9, 5, 1, 1)], vec![sg(60, 5, 0, 1)]),
        ];
        let n = 192;
        let mut rng = xorshift::XorShift64::new(0x56_0001);
        for (gather, scatter) in cases {
            for written in [true, false] {
                let fabric = Fabric::new(2, NetModel::qdr());
                let mut init = vec![0u8; n];
                rng.fill_bytes(&mut init);
                let target = HostBuf::from_vec(init.clone());
                let key = fabric.nic(1).register(&target);
                let mut bytes = vec![0u8; n];
                if written {
                    rng.fill_bytes(&mut bytes);
                }
                let src = if written {
                    HostBuf::from_vec(bytes.clone())
                } else {
                    HostBuf::alloc(n)
                };
                fabric.nic(0).register(&src);
                let mut expect = init;
                sg_reference(&bytes, &mut expect, &gather, &scatter);
                let (g, sc, s2) = (gather.clone(), scatter.clone(), src.clone());
                in_sim(move || {
                    fabric
                        .nic(0)
                        .rdma_write_sg(1, key, &s2.base(), &g, &sc)
                        .wait();
                });
                assert_eq!(target.read(0, n), expect, "{gather:?} -> {scatter:?}");
                assert_eq!(src.is_materialized(), written, "a read never materializes");
            }
        }
    }

    #[test]
    fn sg_write_within_one_buffer_reads_the_old_bytes() {
        let n = 128;
        let init: Vec<u8> = (0..n as u8).collect();
        // Disjoint, then overlapping gather and scatter ranges.
        for (gather, scatter) in [
            (vec![sg(0, 4, 8, 4)], vec![sg(64, 16, 16, 1)]),
            (vec![sg(0, 6, 8, 4)], vec![sg(4, 8, 12, 3)]),
        ] {
            let fabric = Fabric::new(1, NetModel::qdr());
            let buf = HostBuf::from_vec(init.clone());
            let key = fabric.nic(0).register(&buf);
            let mut expect = init.clone();
            sg_reference(&init, &mut expect, &gather, &scatter);
            let b2 = buf.clone();
            in_sim(move || {
                fabric
                    .nic(0)
                    .rdma_write_sg(0, key, &b2.base(), &gather, &scatter)
                    .wait();
            });
            assert_eq!(buf.read(0, n), expect);
        }
    }
}
