//! Per-rank protocol engine: matching, request state machines and the
//! progress loop.
//!
//! Each rank runs as one simulation process; MPI progress happens inside
//! MPI calls (single-threaded MPI, like the paper's MVAPICH2 build). The
//! engine drains the NIC mailbox, advances rendezvous state machines by
//! polling staging sources/sinks and RDMA completions, and blocks — in
//! virtual time — until either a packet arrives or the earliest known
//! hardware completion instant passes.
//!
//! # Fault recovery
//!
//! On a fabric built with [`ib_sim::FaultSpec`], control packets can be
//! dropped or delayed, RDMA writes can fail with an error CQE, and user
//! buffer registration can hit a pin limit. The engine then layers a
//! retry/recovery protocol over the rendezvous state machines:
//!
//! * lost **RTS**: the sender retransmits on timeout (exponential backoff);
//! * lost **CTS/CTS-direct**: a duplicate RTS makes the receiver re-send
//!   its response (same granted window — grants are never duplicated);
//! * lost **FIN**: the staged sender defers each FIN to its chunk's
//!   successful CQE and retransmits the FINs of busy (uncredited) slots on
//!   stall; the receiver additionally nacks the first missing chunk;
//! * lost **CREDIT**: a retransmitted FIN for an already-credited chunk
//!   makes the receiver re-send that credit; credits are sequenced by
//!   chunk index so duplicates can never free a slot twice;
//! * failed **RDMA write**: re-issued from the still-held staging buffer
//!   (staged) or the user buffer (direct), bounded by the retry budget;
//! * failed **registration**: the direct R-PUT degrades to the staged
//!   path (`DirectAbort`), on either side.
//!
//! Every timer, duplicate-tolerance path and retransmit is gated on the
//! fabric actually injecting faults: with faults disabled the engine is
//! bit-identical — in timing and in bytes — to one built without any of
//! this machinery, and protocol violations stay hard panics.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use gpu_sim::Loc;
use hostmem::{HostBuf, HostPtr};
use ib_sim::{MrKey, Nic, SgEntry};
use sim_core::{instrument, san};
use sim_core::{CallCounters, Completion, SimDur, SimTime};

use crate::datatype::Datatype;
use crate::flat::Layout;
use crate::invariants;
use crate::plan::{Canonical, WireDescriptor};
use crate::proto::{
    ChunkPolicy, Envelope, MpiConfig, MpiError, MpiPacket, ReqId, RetryConfig, SlotDesc,
};
use crate::scheme::{DataScheme, SchemeSelector};
use crate::staging::{BufferStager, HostRecvSink, HostSendSource, RecvSink, SendSource};
use crate::tuner::{settled_counter, ChunkTuner, LayoutClass, TuneKey};

/// Source selector for receives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SrcSel(pub(crate) Option<usize>);

/// Tag selector for receives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TagSel(pub(crate) Option<u32>);

/// Match any source rank (MPI_ANY_SOURCE).
pub const ANY_SOURCE: SrcSel = SrcSel(None);
/// Match any tag (MPI_ANY_TAG).
pub const ANY_TAG: TagSel = TagSel(None);

impl From<usize> for SrcSel {
    fn from(r: usize) -> Self {
        SrcSel(Some(r))
    }
}

impl From<u32> for TagSel {
    fn from(t: u32) -> Self {
        TagSel(Some(t))
    }
}

/// Completion information of a receive (MPI_Status).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecvStatus {
    /// Actual source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: u32,
    /// Received payload bytes (type-packed size).
    pub bytes: usize,
}

/// A nonblocking operation handle.
#[derive(Debug)]
pub struct Request {
    pub(crate) id: ReqId,
}

/// Record a protocol event on the rank-local counters, the process-global
/// counters (fault campaigns read the global ones; tests needing isolation
/// read the per-rank ones through `Comm::counters`) and the rank's protocol
/// trace lane.
fn note(counters: &CallCounters, trace: &ProtoTrace, name: &'static str) {
    counters.record(name);
    instrument::global().record(name);
    trace.proto.instant_now(name);
}

/// Trace lanes of one rank's protocol engine. Always present; every lane
/// no-ops behind one atomic load when the recorder is disabled, so the
/// engine never branches on the tracing mode.
pub(crate) struct ProtoTrace {
    /// Protocol instants: rendezvous transitions, retries, duplicates,
    /// fallbacks.
    proto: sim_trace::Lane,
    /// Per-chunk RDMA-write stage spans (the wire stage of the pipeline,
    /// between d2h and h2d).
    rdma: sim_trace::Lane,
    /// Send-side vbuf pool occupancy.
    send_pool: sim_trace::Lane,
    /// Recv-side (grantable) vbuf pool occupancy.
    recv_pool: sim_trace::Lane,
    /// Chunk size chosen by the adaptive tuner, per staged transfer.
    chunk_size: sim_trace::Lane,
}

impl ProtoTrace {
    fn new(rec: &sim_trace::Recorder, scope: &str) -> Self {
        use sim_trace::LaneKind::{Gauge, Proto, Stage};
        ProtoTrace {
            proto: rec.lane(scope, "proto", Proto),
            rdma: rec.lane(scope, "rdma", Stage),
            send_pool: rec.lane(scope, "send_pool", Gauge),
            recv_pool: rec.lane(scope, "recv_pool", Gauge),
            chunk_size: rec.lane(scope, "chunk_size", Gauge),
        }
    }
}

/// Retransmit timer with exponential backoff. Only ever constructed on a
/// fault-injecting fabric.
struct RetryTimer {
    /// Initial timeout, ns (restored when progress is observed).
    base_ns: u64,
    /// Current timeout, ns (doubles per retransmission).
    timeout_ns: u64,
    /// Instant at which the watched operation is considered lost.
    deadline: SimTime,
    /// Transmissions so far, including the first.
    attempts: u32,
}

impl RetryTimer {
    fn new(retry: &RetryConfig) -> Self {
        RetryTimer {
            base_ns: retry.timeout_ns,
            timeout_ns: retry.timeout_ns,
            deadline: sim_core::now() + SimDur::from_nanos(retry.timeout_ns),
            attempts: 1,
        }
    }

    fn expired(&self) -> bool {
        sim_core::now() >= self.deadline
    }

    /// Account one retransmission and back off. Returns false when the
    /// retry budget is exhausted (the caller must fail the request).
    fn bump(&mut self, max_retries: u32) -> bool {
        if self.attempts > max_retries {
            return false;
        }
        self.attempts += 1;
        self.timeout_ns = self.timeout_ns.saturating_mul(2);
        self.deadline = sim_core::now() + SimDur::from_nanos(self.timeout_ns);
        true
    }

    /// Progress observed: reset the backoff and re-arm.
    fn feed(&mut self) {
        self.attempts = 1;
        self.timeout_ns = self.base_ns;
        self.deadline = sim_core::now() + SimDur::from_nanos(self.timeout_ns);
    }
}

/// FIFO-bounded map holding post-completion protocol memory (what a rank
/// must remember to answer retransmits that outlive the request). Old
/// entries age out; a retransmit arriving after that is ignored, which is
/// safe because the peer's own retry budget bounds how long it keeps
/// asking.
struct BoundedMap<K: Copy + Eq + std::hash::Hash, V> {
    cap: usize,
    order: VecDeque<K>,
    map: HashMap<K, V>,
}

impl<K: Copy + Eq + std::hash::Hash, V> BoundedMap<K, V> {
    fn new(cap: usize) -> Self {
        BoundedMap {
            cap,
            order: VecDeque::new(),
            map: HashMap::new(),
        }
    }

    fn insert(&mut self, k: K, v: V) {
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }
}

/// Bounded registration cache for rendezvous user buffers (MVAPICH2's
/// reg-cache): repeated rendezvous on the same buffer skip the
/// registration cost. Unlike an unbounded cache, entries are evicted LRU
/// (and deregistered) once `cap` is exceeded, so dropped user buffers do
/// not stay pinned forever. Entries backing an in-flight transfer are
/// never evicted.
struct RegEntry {
    key: MrKey,
    last_used: u64,
    in_use: u32,
}

struct RegCache {
    cap: usize,
    tick: u64,
    entries: HashMap<u64, RegEntry>,
}

impl RegCache {
    fn new(cap: usize) -> Self {
        RegCache {
            cap,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Look up (or register) `buf` and mark it in use by a transfer. Fails
    /// only when the fabric's fault layer enforces a pin limit.
    fn acquire(
        &mut self,
        nic: &Nic,
        counters: &CallCounters,
        trace: &ProtoTrace,
        buf: &HostBuf,
    ) -> Result<MrKey, ib_sim::RegError> {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&buf.id()) {
            e.last_used = self.tick;
            e.in_use += 1;
            note(counters, trace, "reg_cache.hit");
            return Ok(e.key);
        }
        note(counters, trace, "reg_cache.miss");
        // Make room: evict idle entries, least recently used first. If every
        // entry backs an in-flight transfer the cache overflows temporarily.
        while self.entries.len() >= self.cap {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.in_use == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            let e = self.entries.remove(&id).expect("victim just found");
            nic.deregister(e.key);
            note(counters, trace, "reg_cache.evict");
        }
        let key = nic.try_register(buf)?;
        self.entries.insert(
            buf.id(),
            RegEntry {
                key,
                last_used: self.tick,
                in_use: 1,
            },
        );
        Ok(key)
    }

    /// The transfer that acquired `buf_id` finished: the entry stays cached
    /// but becomes evictable.
    fn release(&mut self, buf_id: u64) {
        if let Some(e) = self.entries.get_mut(&buf_id) {
            e.in_use = e.in_use.saturating_sub(1);
        }
    }

    /// Number of live (registered) entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

pub(crate) struct Vbuf {
    pub buf: HostBuf,
    pub key: MrKey,
}

struct SlotState {
    desc: SlotDesc,
    free: bool,
    /// Chunk currently written into the slot. Sequences credits: a credit
    /// frees the slot only if it names this chunk, so duplicates (or stale
    /// retransmits) can never free a slot twice.
    occupant: Option<usize>,
    /// Whether the occupant's FIN has gone out. On a faulty fabric FINs are
    /// deferred to the chunk's successful CQE, and these are what a stall
    /// retransmits.
    fin_sent: bool,
}

/// One chunk whose RDMA write is in flight. The staging vbuf is held until
/// the write *succeeds* so a failed write can be re-issued from it.
struct InflightChunk {
    comp: Completion,
    vbuf: Vbuf,
    chunk: usize,
    slot: usize,
    len: usize,
    attempts: u32,
}

struct StagedSend {
    dst: usize,
    peer_recv_req: ReqId,
    chunk_size: usize,
    nchunks: usize,
    slots: Vec<SlotState>,
    next_request: usize,
    next_send: usize,
    /// Chunks staged (or staging) into local vbufs, in chunk order.
    local: VecDeque<(usize, Vbuf)>,
    /// RDMA writes in flight; the local vbuf is released at completion.
    inflight: Vec<InflightChunk>,
    /// Stall watchdog (faulty fabrics only): re-FINs busy slots when
    /// neither a credit nor a CQE has arrived within the window.
    timer: Option<RetryTimer>,
}

/// Offloaded scatter/gather transfer in flight: the HCA walks the wire
/// descriptor on both sides, no CPU pack/unpack. The user-buffer
/// registration is held (and released) through the reg cache.
struct OffloadSend {
    rdma: Completion,
    /// The receiver's registered region.
    peer_key: MrKey,
    /// Base of the local user buffer (pin check + write re-issue).
    ptr: HostPtr,
    /// Local gather descriptor, kept for write re-issue.
    gather: Vec<SgEntry>,
    /// The receiver's scatter descriptor (from the CTS), kept likewise.
    scatter: Vec<SgEntry>,
    recv_req: ReqId,
    fin_sent: bool,
    attempts: u32,
}

/// Direct R-PUT in flight. The user-buffer registration is held (and
/// released) through the reg cache, keyed by the buffer id.
struct DirectSend {
    rdma: Completion,
    /// The receiver's registered region, kept for write re-issue.
    peer_key: MrKey,
    peer_off: usize,
    recv_req: ReqId,
    ptr: HostPtr,
    fin_sent: bool,
    attempts: u32,
}

enum SendPhase {
    WaitCts {
        timer: Option<RetryTimer>,
    },
    Direct(DirectSend),
    Offload(OffloadSend),
    Staged(StagedSend),
    /// Device path (co-located ranks sharing one GPU): the FIN-dev is out,
    /// announcing the packed tbuf; waiting for the receiver's credit. The
    /// pack completion is kept only as a wake-up hint — ordering travels
    /// inside the FIN-dev itself. No retry timer: intra-node control is
    /// reliable even on fault-injecting fabrics.
    DevWaitCredit {
        pack: Completion,
    },
    Done,
    Failed(MpiError),
}

struct SendState {
    dst: usize,
    total: usize,
    /// Envelope of the original RTS (for retransmission).
    env: Envelope,
    /// Device-GPU advert carried on the RTS (and its retransmissions):
    /// `Some` only toward a co-located peer when the source is device
    /// memory.
    dev_gpu: Option<u32>,
    source: Box<dyn SendSource>,
    /// Start of the user buffer when it is host-contiguous (direct path).
    direct_ptr: Option<HostPtr>,
    /// Registration for the direct path failed: fall back to staged and
    /// stop advertising direct capability on RTS retransmits.
    direct_failed: bool,
    /// Base pointer + lowered gather descriptor when the offload scheme is
    /// enabled and this layout admits a bounded wire descriptor.
    offload: Option<(HostPtr, WireDescriptor)>,
    /// Registration for the offload path failed: fall back to staged and
    /// stop advertising offload capability on RTS retransmits.
    offload_failed: bool,
    phase: SendPhase,
}

/// What a completed send must remember to answer retransmits (faulty
/// fabrics only).
#[derive(Copy, Clone)]
enum SendRecord {
    Staged {
        dst: usize,
        peer_recv_req: ReqId,
        chunk_size: usize,
        nchunks: usize,
        nslots: usize,
        total: usize,
    },
    Direct {
        dst: usize,
        recv_req: ReqId,
    },
    Offload {
        dst: usize,
        recv_req: ReqId,
    },
}

struct StagedRecv {
    src: usize,
    peer_send_req: ReqId,
    /// Chunk size of this transfer (chosen per transfer by the receiver;
    /// travels to the sender in the CTS).
    chunk_size: usize,
    nchunks: usize,
    total: usize,
    /// When the CTS window was granted — the tuner's latency clock. The
    /// clock starts at the *grant*, not the RTS match, so CTS deferral
    /// under recv-pool back-pressure is not charged to the chunk size.
    started: SimTime,
    /// Autotuner key, when the adaptive policy is driving this transfer.
    tune_key: Option<TuneKey>,
    /// False while the CTS is deferred waiting for pool vbufs (back
    /// pressure under many concurrent staged transfers).
    cts_sent: bool,
    /// Set the first time the CTS grant found the recv pool empty. Only
    /// consulted by the `bug_deferred_cts` toggle, which reintroduces the
    /// starvation bug where a once-deferred CTS is never re-examined.
    deferred: bool,
    slots: Vec<Vbuf>,
    /// FINs received, keyed by chunk index: chunk -> (slot, bytes). Keyed
    /// (rather than queued) so retransmitted FINs dedup and delayed ones
    /// can arrive out of order.
    arrived: BTreeMap<usize, (usize, usize)>,
    /// Chunks handed to the sink, awaiting absorption: (chunk, slot).
    absorbing: VecDeque<(usize, usize)>,
    next_chunk: usize,
    /// Chunks credited so far (credits go out in chunk order).
    next_credit: usize,
    /// FIN watchdog (faulty fabrics only), armed at the CTS grant.
    timer: Option<RetryTimer>,
}

enum RecvPhase {
    Unmatched,
    WaitDirect {
        my_key: MrKey,
        env: Envelope,
        total: usize,
        send_req: ReqId,
        timer: Option<RetryTimer>,
    },
    /// Offload rendezvous: the CTS-offload carried our registration key and
    /// scatter descriptor; waiting for the sender's FIN-offload (or an
    /// abort back to the staged path).
    WaitOffload {
        my_key: MrKey,
        /// The scatter descriptor granted in the CTS (kept for re-send).
        scatter: Vec<SgEntry>,
        env: Envelope,
        total: usize,
        send_req: ReqId,
        timer: Option<RetryTimer>,
    },
    Staged(StagedRecv, Envelope),
    /// Device path: CTS-dev sent, waiting for the sender's FIN-dev naming
    /// its packed device tbuf. No timer — intra-node control is reliable.
    DevWait {
        env: Envelope,
        total: usize,
        send_req: ReqId,
    },
    /// Device path: scattering from the sender's tbuf on the shared GPU;
    /// the credit goes out when the unpack completion lands.
    DevAbsorb {
        comp: Completion,
        env: Envelope,
        total: usize,
        send_req: ReqId,
    },
    Done(RecvStatus),
    Failed(MpiError),
}

struct RecvState {
    src_sel: SrcSel,
    tag_sel: TagSel,
    ctx: u16,
    capacity: usize,
    sink: Box<dyn RecvSink>,
    /// Start of the user buffer when it is host-contiguous (direct path).
    direct_ptr: Option<HostPtr>,
    /// Base pointer + lowered scatter descriptor when the offload scheme
    /// is enabled and this layout admits a bounded wire descriptor.
    offload: Option<(HostPtr, WireDescriptor)>,
    /// Layout bucket of the receive datatype (autotuner key component).
    layout_class: LayoutClass,
    phase: RecvPhase,
}

enum Unexpected {
    Eager {
        env: Envelope,
        data: Vec<u8>,
    },
    Rts {
        env: Envelope,
        total: usize,
        send_req: ReqId,
        direct_capable: bool,
        dev_gpu: Option<u32>,
        offload_entries: Option<u32>,
    },
}

impl Unexpected {
    fn env(&self) -> &Envelope {
        match self {
            Unexpected::Eager { env, .. } | Unexpected::Rts { env, .. } => env,
        }
    }
}

fn env_matches(env: &Envelope, ctx: u16, src: SrcSel, tag: TagSel) -> bool {
    env.ctx == ctx && src.0.is_none_or(|s| s == env.src) && tag.0.is_none_or(|t| t == env.tag)
}

/// How many completed transfers each rank remembers for replay tolerance.
const REPLAY_MEMORY: usize = 1024;

pub(crate) struct Engine {
    pub rank: usize,
    pub size: usize,
    pub nic: Nic,
    /// Job scope prefix (from [`Nic::scope_prefix`]): `""` on a dedicated
    /// fabric, `"job{k}."` for a tenant of a shared one. Prepended to
    /// every trace scope, sanitizer pool/gauge scope and metrics prefix
    /// this engine emits, so concurrent jobs never collide in one
    /// process-wide registry.
    pub prefix: String,
    pub cfg: MpiConfig,
    pub counters: CallCounters,
    /// The data-path scheme layer: per-peer transports, colocation, eager
    /// thresholds and rendezvous scheme resolution, owned in one place.
    /// The protocol state machines ask it what to do and never look inside.
    scheme: SchemeSelector,
    stagers: Arc<Vec<Box<dyn BufferStager>>>,
    /// True when the fabric injects faults; every retry timer and
    /// duplicate-tolerance path is gated on this.
    faulty: bool,
    next_req: ReqId,
    sends: HashMap<ReqId, SendState>,
    recvs: HashMap<ReqId, RecvState>,
    posted: Vec<ReqId>,
    unexpected: VecDeque<Unexpected>,
    /// Registered staging buffers for *outgoing* chunks. Kept separate from
    /// `recv_pool`: if grants and local staging shared one pool, two ranks
    /// could grant each other every buffer and deadlock with nothing left
    /// to stage their own sends (a classic buffer-management deadlock).
    send_pool: Vec<Vbuf>,
    /// Registered staging buffers granted to remote senders via CTS.
    recv_pool: Vec<Vbuf>,
    /// Sanitizer pool handles (None when the sanitizer is off).
    send_pool_id: Option<san::PoolId>,
    recv_pool_id: Option<san::PoolId>,
    /// Sanitizer accounting for device tbufs held across a D2D rendezvous
    /// (taken at CTS-dev staging, returned at CREDIT-dev receipt).
    dev_tbuf_id: Option<san::PoolId>,
    /// Fault injection: true once the configured vbuf leak has happened.
    leaked_vbuf: bool,
    /// Fault injection: true once the configured CREDIT-dev drop happened.
    dev_credit_dropped: bool,
    /// Next free communicator context id (0/1 belong to the world comm).
    next_ctx: u16,
    /// Bounded registration cache for rendezvous user buffers.
    reg_cache: RegCache,
    /// Online block-size search (drives `ChunkPolicy::Adaptive`).
    tuner: ChunkTuner,
    /// Live matched RTSes, (src, send_req) -> recv_req: a duplicate RTS
    /// re-sends the response instead of matching twice (faulty only).
    matched_rts: HashMap<(usize, ReqId), ReqId>,
    /// RTSes whose transfer completed; late duplicates are ignored.
    done_rts: BoundedMap<(usize, ReqId), ()>,
    /// Completed sends, kept to answer FinNack / CtsDirect retransmits.
    completed_sends: BoundedMap<ReqId, SendRecord>,
    /// Completed staged receives, recv_req -> (src, peer_send_req), kept to
    /// re-credit on duplicate FINs after the receive was reaped.
    completed_recvs: BoundedMap<ReqId, (usize, ReqId)>,
    /// This rank's trace lanes (no-ops when the recorder is disabled).
    trace: ProtoTrace,
    /// Last (send_pool, recv_pool) occupancy sampled onto the gauge lanes;
    /// samples are only emitted on change.
    last_pools: (usize, usize),
}

impl Engine {
    /// Build a rank engine wired to a trace recorder: protocol events,
    /// per-chunk RDMA stage spans and vbuf-pool gauges land on
    /// `rank{rank}/*` lanes, and the rank's counters join the recorder's
    /// unified metrics registry. Pass `Recorder::off()` for an untraced
    /// engine — emission then no-ops behind one atomic load.
    pub fn new_traced(
        nic: Nic,
        rank: usize,
        size: usize,
        cfg: MpiConfig,
        stagers: Arc<Vec<Box<dyn BufferStager>>>,
        rec: &sim_trace::Recorder,
    ) -> Engine {
        cfg.validate();
        // Pre-allocate and register the vbuf pools (done once at MPI_Init).
        // Slots are sized to the largest chunk any policy may pick, so the
        // adaptive tuner can grow the block without reallocating. The pools
        // use the infallible register: like MVAPICH2's vbuf pool at
        // MPI_Init, they are exempt from the (fault-injected) pin limit.
        let mk_pool = |n: usize| -> Vec<Vbuf> {
            (0..n)
                .map(|_| {
                    let buf = HostBuf::alloc(cfg.max_chunk());
                    let key = nic.register(&buf);
                    Vbuf { buf, key }
                })
                .collect()
        };
        let send_pool = mk_pool(cfg.pool_vbufs / 2);
        let recv_pool = mk_pool(cfg.pool_vbufs - cfg.pool_vbufs / 2);
        // Scope everything the engine names after the job: on a dedicated
        // fabric the prefix is empty and these are the classic
        // `rank{r}.*` names; tenants of a shared fabric get
        // `job{k}.rank{r}.*`, so two worlds in one process never collide
        // in the sanitizer or the metrics registry.
        let prefix = nic.scope_prefix().to_string();
        let scope = format!("{prefix}rank{rank}");
        let send_pool_id = san::pool_register(format!("{scope}.send_pool"));
        let recv_pool_id = san::pool_register(format!("{scope}.recv_pool"));
        let dev_tbuf_id = san::pool_register(format!("{scope}.dev_tbuf"));
        invariants::register_all();
        let tuner = ChunkTuner::new(&cfg);
        let faulty = nic.faults_enabled();
        let reg_cache = RegCache::new(cfg.reg_cache_entries);
        let counters = CallCounters::new();
        rec.register_counters(&scope, &counters);
        let trace = ProtoTrace::new(rec, &scope);
        let scheme = SchemeSelector::new(&nic, rank, size, &cfg);
        Engine {
            rank,
            size,
            nic,
            prefix,
            cfg,
            counters,
            scheme,
            stagers,
            faulty,
            next_req: 1,
            sends: HashMap::new(),
            recvs: HashMap::new(),
            posted: Vec::new(),
            unexpected: VecDeque::new(),
            send_pool,
            recv_pool,
            send_pool_id,
            recv_pool_id,
            dev_tbuf_id,
            leaked_vbuf: false,
            dev_credit_dropped: false,
            next_ctx: 2,
            reg_cache,
            tuner,
            matched_rts: HashMap::new(),
            done_rts: BoundedMap::new(REPLAY_MEMORY),
            completed_sends: BoundedMap::new(REPLAY_MEMORY),
            completed_recvs: BoundedMap::new(REPLAY_MEMORY),
            trace,
            // Sentinel: the first progress pass samples the baseline.
            last_pools: (usize::MAX, usize::MAX),
        }
    }

    /// The next free communicator context id (used by `Comm::split` to
    /// agree on new contexts).
    pub fn peek_next_ctx(&self) -> u16 {
        self.next_ctx
    }

    /// Advance the context allocator past an agreed block.
    pub fn advance_ctx(&mut self, to: u16) {
        self.next_ctx = self.next_ctx.max(to);
    }

    /// Number of live registration-cache entries (tests).
    pub fn reg_cache_len(&self) -> usize {
        self.reg_cache.len()
    }

    fn alloc_req(&mut self) -> ReqId {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    fn mpi_call_cost(&self) {
        sim_core::sleep(SimDur::from_nanos(self.cfg.cpu.mpi_call_ns));
    }

    fn retry_timer(&self) -> Option<RetryTimer> {
        self.faulty.then(|| RetryTimer::new(&self.cfg.retry))
    }

    fn make_source(&self, buf: &Loc, count: usize, dt: &Datatype) -> Box<dyn SendSource> {
        for s in self.stagers.iter() {
            if let Some(src) = s.source(buf, count, dt) {
                return src;
            }
        }
        match buf {
            Loc::Host(p) => Box::new(HostSendSource::new(
                p.clone(),
                count,
                dt,
                self.cfg.cpu.clone(),
            )),
            Loc::Device(_) => panic!(
                "send buffer resides in device memory but this MPI build has \
                 no GPU datatype support (use mv2-gpu-nc)"
            ),
        }
    }

    fn make_sink(&self, buf: &Loc, count: usize, dt: &Datatype) -> Box<dyn RecvSink> {
        for s in self.stagers.iter() {
            if let Some(sink) = s.sink(buf, count, dt) {
                return sink;
            }
        }
        match buf {
            Loc::Host(p) => Box::new(HostRecvSink::new(
                p.clone(),
                count,
                dt,
                self.cfg.cpu.clone(),
            )),
            Loc::Device(_) => panic!(
                "receive buffer resides in device memory but this MPI build \
                 has no GPU datatype support (use mv2-gpu-nc)"
            ),
        }
    }

    /// If (buf, count, dtype) is a contiguous host region, its start.
    fn contiguous_host_ptr(buf: &Loc, count: usize, dt: &Datatype) -> Option<HostPtr> {
        let Loc::Host(p) = buf else { return None };
        match dt.flat().layout(count) {
            Layout::Contiguous { offset, .. } => {
                let abs = p.offset() as isize + offset;
                assert!(abs >= 0, "contiguous layout starts before the buffer");
                Some(p.buf().ptr(abs as usize))
            }
            _ => None,
        }
    }

    fn check_host_bounds(buf: &Loc, count: usize, dt: &Datatype) {
        if let Loc::Host(p) = buf {
            let (lo, hi) = dt.flat().byte_range(count);
            let lo_abs = p.offset() as isize + lo;
            let hi_abs = p.offset() as isize + hi;
            assert!(
                lo_abs >= 0 && hi_abs as usize <= p.buf().len(),
                "datatype footprint [{lo_abs}, {hi_abs}) exceeds host buffer of {} bytes",
                p.buf().len()
            );
        }
    }

    // --- posting ---------------------------------------------------------------

    pub fn isend(
        &mut self,
        buf: Loc,
        count: usize,
        dt: &Datatype,
        dst: usize,
        tag: u32,
        ctx: u16,
    ) -> ReqId {
        assert!(dst < self.size, "isend to nonexistent rank {dst}");
        self.mpi_call_cost();
        // Every MPI call gives the progress engine a chance to run (as in
        // any real single-threaded MPI library).
        self.progress();
        Self::check_host_bounds(&buf, count, dt);
        let mut source = self.make_source(&buf, count, dt);
        let total = source.total_bytes();
        let env = Envelope {
            ctx,
            src: self.rank,
            tag,
        };
        let id = self.alloc_req();
        if total <= self.scheme.send_eager_limit(dst) {
            let data = source.pack_eager();
            let wire = data.len() + 64;
            self.nic
                .send(dst, wire, Box::new(MpiPacket::Eager { env, data }));
            self.sends.insert(
                id,
                SendState {
                    dst,
                    total,
                    env,
                    dev_gpu: None,
                    source,
                    direct_ptr: None,
                    direct_failed: false,
                    offload: None,
                    offload_failed: false,
                    phase: SendPhase::Done,
                },
            );
        } else {
            let direct_ptr = Self::contiguous_host_ptr(&buf, count, dt);
            // Advertise the device path only toward a co-located peer: a
            // remote receiver can never read this GPU's memory directly.
            let dev_gpu = if self.scheme.colocated(dst) {
                source.device_gpu()
            } else {
                None
            };
            // Offload: lower the layout to a bounded gather descriptor the
            // HCA can walk. Only attempted when the scheme layer enables it
            // and the peer sits behind the RDMA transport — the default
            // configuration takes zero plan lookups here.
            let mut offload = None;
            if self.scheme.offload_enabled() && self.scheme.offload_peer(dst) {
                if let Loc::Host(p) = &buf {
                    let plan = dt.flat().plan(count);
                    if let Err(err) = self.cfg.try_validate_scheme(&Canonical::of(&plan)) {
                        // Forced offload on a layout the HCA cannot walk:
                        // surface the typed rejection through wait_result
                        // before any wire traffic, instead of a deep-engine
                        // panic later.
                        note(&self.counters, &self.trace, "mpi.error");
                        self.sends.insert(
                            id,
                            SendState {
                                dst,
                                total,
                                env,
                                dev_gpu,
                                source,
                                direct_ptr,
                                direct_failed: false,
                                offload: None,
                                offload_failed: false,
                                phase: SendPhase::Failed(MpiError::Rejected { err }),
                            },
                        );
                        return id;
                    }
                    offload = WireDescriptor::lower(&plan, self.cfg.offload_entry_budget)
                        .map(|d| (p.clone(), d));
                }
            }
            self.trace.proto.instant_now("rts");
            self.nic.send_ctrl(
                dst,
                Box::new(MpiPacket::Rts {
                    env,
                    total,
                    send_req: id,
                    direct_capable: direct_ptr.is_some(),
                    dev_gpu,
                    offload_entries: offload.as_ref().map(|(_, d)| d.entries().len() as u32),
                }),
            );
            self.sends.insert(
                id,
                SendState {
                    dst,
                    total,
                    env,
                    dev_gpu,
                    source,
                    direct_ptr,
                    direct_failed: false,
                    offload,
                    offload_failed: false,
                    phase: SendPhase::WaitCts {
                        timer: self.retry_timer(),
                    },
                },
            );
        }
        id
    }

    pub fn irecv(
        &mut self,
        buf: Loc,
        count: usize,
        dt: &Datatype,
        src: SrcSel,
        tag: TagSel,
        ctx: u16,
    ) -> ReqId {
        self.mpi_call_cost();
        self.progress();
        Self::check_host_bounds(&buf, count, dt);
        let sink = self.make_sink(&buf, count, dt);
        let capacity = sink.total_bytes();
        let direct_ptr = Self::contiguous_host_ptr(&buf, count, dt);
        // Cheap after the sink pulled the plan into the cache.
        let plan = dt.flat().plan(count);
        let layout_class = LayoutClass::of(plan.layout());
        // Offload: lower the layout to a bounded scatter descriptor. A
        // receiver whose layout has none (or whose sink is not host memory)
        // simply never grants the offload path — forced offload then falls
        // back to the staged pipeline at resolution.
        let mut offload = None;
        if self.scheme.offload_enabled() {
            if let Loc::Host(p) = &buf {
                offload = WireDescriptor::lower(&plan, self.cfg.offload_entry_budget)
                    .map(|d| (p.clone(), d));
            }
        }
        drop(plan);
        let id = self.alloc_req();
        self.recvs.insert(
            id,
            RecvState {
                src_sel: src,
                tag_sel: tag,
                ctx,
                capacity,
                sink,
                direct_ptr,
                offload,
                layout_class,
                phase: RecvPhase::Unmatched,
            },
        );
        // Try the unexpected queue first (FIFO), then stay posted.
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|u| env_matches(u.env(), ctx, src, tag))
        {
            let u = self.unexpected.remove(pos).unwrap();
            match u {
                Unexpected::Eager { env, data } => self.deliver_eager(id, env, data),
                Unexpected::Rts {
                    env,
                    total,
                    send_req,
                    direct_capable,
                    dev_gpu,
                    offload_entries,
                } => self.match_rts(
                    id,
                    env,
                    total,
                    send_req,
                    direct_capable,
                    dev_gpu,
                    offload_entries,
                ),
            }
        } else {
            self.posted.push(id);
        }
        id
    }

    // --- packet handling ----------------------------------------------------------

    fn deliver_eager(&mut self, recv_id: ReqId, env: Envelope, data: Vec<u8>) {
        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
        if data.len() > st.capacity {
            san::report_protocol(format!(
                "message truncated: {} bytes into a {}-byte receive",
                data.len(),
                st.capacity
            ));
            panic!(
                "message truncated: {} bytes into a {}-byte receive",
                data.len(),
                st.capacity
            );
        }
        st.sink.unpack_eager(&data);
        st.phase = RecvPhase::Done(RecvStatus {
            src: env.src,
            tag: env.tag,
            bytes: data.len(),
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn match_rts(
        &mut self,
        recv_id: ReqId,
        env: Envelope,
        total: usize,
        send_req: ReqId,
        direct_capable: bool,
        dev_gpu: Option<u32>,
        offload_entries: Option<u32>,
    ) {
        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
        if total > st.capacity {
            san::report_protocol(format!(
                "message truncated: {total} bytes into a {}-byte receive",
                st.capacity
            ));
            panic!(
                "message truncated: {total} bytes into a {}-byte receive",
                st.capacity
            );
        }
        if self.faulty {
            self.matched_rts.insert((env.src, send_req), recv_id);
        }
        // Feasibility of each rendezvous scheme, from what the RTS
        // advertised and what this receive posted; the policy choice among
        // the feasible ones belongs to the scheme layer.
        let device_ok = dev_gpu.is_some_and(|gpu| st.sink.device_gpu() == Some(gpu));
        let direct_ok = direct_capable && st.direct_ptr.is_some();
        let offload_ok = self.scheme.offload_peer(env.src)
            && offload_entries.is_some_and(|n| {
                st.offload.as_ref().is_some_and(|(_, d)| {
                    n as usize + d.entries().len() <= self.cfg.offload_entry_budget
                })
            });
        match self.scheme.resolve(device_ok, direct_ok, offload_ok, total) {
            // Device rendezvous: both buffers live on the *same physical
            // GPU* (the ranks share a node and its device). The sender
            // packs into a device tbuf and this rank scatters straight
            // from it — no host staging, no vbufs, no HCA.
            DataScheme::DeviceD2D => {
                st.phase = RecvPhase::DevWait {
                    env,
                    total,
                    send_req,
                };
                self.trace.proto.instant_now("cts_dev");
                self.nic.send_ctrl(
                    env.src,
                    Box::new(MpiPacket::CtsDev {
                        send_req,
                        recv_req: recv_id,
                    }),
                );
                return;
            }
            DataScheme::Direct => {
                let ptr = st
                    .direct_ptr
                    .clone()
                    .expect("direct resolved without a ptr");
                // R-PUT: register the user buffer (through the cache) and
                // hand its key over. Registration can fail under a
                // fault-injected pin limit; the transfer then degrades to
                // the staged path below.
                match self.reg_cache.acquire(
                    &self.nic,
                    &self.counters,
                    &self.trace,
                    &ptr.buf().clone(),
                ) {
                    Ok(key) => {
                        let timer = self.retry_timer();
                        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
                        st.phase = RecvPhase::WaitDirect {
                            my_key: key,
                            env,
                            total,
                            send_req,
                            timer,
                        };
                        self.trace.proto.instant_now("cts_direct");
                        self.nic.send_ctrl(
                            env.src,
                            Box::new(MpiPacket::CtsDirect {
                                send_req,
                                recv_req: recv_id,
                                key,
                                offset: ptr.offset(),
                                len: total,
                            }),
                        );
                        return;
                    }
                    Err(_) => {
                        note(&self.counters, &self.trace, "fallback.direct_to_staged");
                    }
                }
            }
            DataScheme::NicOffload => {
                let (ptr, desc) = st
                    .offload
                    .as_ref()
                    .expect("offload resolved without a desc");
                let (ptr, base) = (ptr.clone(), ptr.offset());
                // The received message may be shorter than the posted
                // receive: clip the scatter walk to its packed prefix.
                let scatter = desc.prefix(total).to_sg(base);
                match self.reg_cache.acquire(
                    &self.nic,
                    &self.counters,
                    &self.trace,
                    &ptr.buf().clone(),
                ) {
                    Ok(key) => {
                        let timer = self.retry_timer();
                        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
                        st.phase = RecvPhase::WaitOffload {
                            my_key: key,
                            scatter: scatter.clone(),
                            env,
                            total,
                            send_req,
                            timer,
                        };
                        self.trace.proto.instant_now("cts_offload");
                        self.nic.send_ctrl(
                            env.src,
                            Box::new(MpiPacket::CtsOffload {
                                send_req,
                                recv_req: recv_id,
                                key,
                                scatter,
                                total,
                            }),
                        );
                        return;
                    }
                    Err(_) => {
                        note(&self.counters, &self.trace, "fallback.offload_to_staged");
                    }
                }
            }
            DataScheme::Staged | DataScheme::ShmEager => {}
        }
        self.start_staged_recv(recv_id, env, total, send_req);
    }

    /// Set up the staged path for a matched RTS: choose the chunk size,
    /// begin the sink and grant (or defer) the CTS window. Also the landing
    /// point of the direct-to-staged fallback.
    fn start_staged_recv(&mut self, recv_id: ReqId, env: Envelope, total: usize, send_req: ReqId) {
        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
        // The receiver picks the chunk size (it sizes the granted slots);
        // the sender learns it from the CTS.
        let (chunk_size, tune_key) = match self.cfg.policy {
            ChunkPolicy::Fixed => (self.cfg.chunk_size, None),
            ChunkPolicy::Adaptive { .. } => {
                let key = TuneKey::new(total, st.layout_class);
                (self.tuner.choose(key), Some(key))
            }
        };
        if tune_key.is_some() {
            self.trace.chunk_size.gauge_now(chunk_size as i64);
        }
        let nchunks = total.div_ceil(chunk_size).max(1);
        st.sink.begin(chunk_size, total);
        st.phase = RecvPhase::Staged(
            StagedRecv {
                src: env.src,
                peer_send_req: send_req,
                chunk_size,
                nchunks,
                total,
                started: sim_core::now(),
                tune_key,
                cts_sent: false,
                deferred: false,
                slots: Vec::new(),
                arrived: BTreeMap::new(),
                absorbing: VecDeque::new(),
                next_chunk: 0,
                next_credit: 0,
                timer: None,
            },
            env,
        );
        san::proto_set(
            &invariants::xfer_scope(&self.prefix, env.src, send_req),
            "nchunks",
            nchunks as i64,
        );
        self.try_grant_cts(recv_id);
    }

    /// Send the deferred/initial CTS for a staged receive once at least one
    /// pool vbuf is available.
    /// Vbufs just returned to the pool: grant any matched staged receive
    /// whose CTS was deferred on an empty pool. Without this, a receive
    /// that found the pool drained would only be re-examined by its own
    /// `advance_recv` — and if nothing else is pending, the rank parks
    /// with no timer to wake it (deadlock on a clean fabric).
    fn grant_deferred_cts(&mut self) {
        if self.recv_pool.is_empty() {
            return;
        }
        // Sorted so the grant order is a function of request ids alone, not
        // of the HashMap's per-process iteration order (replay determinism).
        let mut deferred: Vec<ReqId> = self
            .recvs
            .iter()
            .filter_map(|(&id, st)| match &st.phase {
                RecvPhase::Staged(sr, _) if !sr.cts_sent => Some(id),
                _ => None,
            })
            .collect();
        deferred.sort_unstable();
        for id in deferred {
            self.try_grant_cts(id);
        }
    }

    fn try_grant_cts(&mut self, recv_id: ReqId) {
        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
        let RecvPhase::Staged(sr, _) = &mut st.phase else {
            return;
        };
        if sr.cts_sent {
            return;
        }
        if self.cfg.bug_deferred_cts && sr.deferred {
            // Reintroduced starvation bug: a CTS that was once deferred on
            // an empty pool is never re-examined, even after vbufs return.
            return;
        }
        if self.recv_pool.is_empty() {
            sr.deferred = true;
            return;
        }
        let want = self.cfg.window_slots.min(sr.nchunks).max(1);
        let take = want.min(self.recv_pool.len());
        sr.slots = self
            .recv_pool
            .drain(self.recv_pool.len() - take..)
            .collect();
        for _ in 0..take {
            san::pool_take(self.recv_pool_id);
        }
        sr.cts_sent = true;
        // The tuner's latency window opens at the grant: deferral time
        // waiting for pool vbufs says nothing about the chunk size.
        sr.started = sim_core::now();
        if self.faulty {
            sr.timer = Some(RetryTimer::new(&self.cfg.retry));
        }
        let descs: Vec<SlotDesc> = sr
            .slots
            .iter()
            .map(|v| SlotDesc {
                key: v.key,
                len: v.buf.len(),
            })
            .collect();
        let pkt = MpiPacket::Cts {
            send_req: sr.peer_send_req,
            recv_req: recv_id,
            chunk_size: sr.chunk_size,
            slots: descs,
        };
        let dst = sr.src;
        self.trace.proto.instant_now("cts");
        self.nic.send_ctrl(dst, Box::new(pkt));
    }

    /// A duplicate RTS arrived for an already-matched receive: the response
    /// (CTS, CTS-direct or CTS-offload) was evidently lost — re-send it
    /// from the live state. Grants are never duplicated; the same window
    /// travels again.
    fn resend_response(
        &mut self,
        recv_id: ReqId,
        direct_capable: bool,
        offload_entries: Option<u32>,
    ) {
        enum Action {
            None,
            FallBack,
            FallBackOffload,
            CtsDirect(usize, MpiPacket),
            CtsOffload(usize, MpiPacket),
            Cts(usize, MpiPacket),
        }
        let action = {
            let Some(st) = self.recvs.get_mut(&recv_id) else {
                return;
            };
            match &st.phase {
                RecvPhase::WaitDirect {
                    my_key,
                    env,
                    total,
                    send_req,
                    ..
                } => {
                    if direct_capable {
                        let offset = st
                            .direct_ptr
                            .as_ref()
                            .expect("direct receive without a direct pointer")
                            .offset();
                        Action::CtsDirect(
                            env.src,
                            MpiPacket::CtsDirect {
                                send_req: *send_req,
                                recv_req: recv_id,
                                key: *my_key,
                                offset,
                                len: *total,
                            },
                        )
                    } else {
                        // The sender stopped advertising the direct path
                        // (its registration failed and our DirectAbort was
                        // lost): fall back to staged ourselves.
                        Action::FallBack
                    }
                }
                RecvPhase::WaitOffload {
                    my_key,
                    scatter,
                    env,
                    total,
                    send_req,
                    ..
                } => {
                    if offload_entries.is_some() {
                        Action::CtsOffload(
                            env.src,
                            MpiPacket::CtsOffload {
                                send_req: *send_req,
                                recv_req: recv_id,
                                key: *my_key,
                                scatter: scatter.clone(),
                                total: *total,
                            },
                        )
                    } else {
                        // The sender stopped advertising the offload path
                        // (its registration failed and our OffloadAbort
                        // was lost): fall back to staged ourselves.
                        Action::FallBackOffload
                    }
                }
                RecvPhase::Staged(sr, _) if sr.cts_sent => {
                    let descs: Vec<SlotDesc> = sr
                        .slots
                        .iter()
                        .map(|v| SlotDesc {
                            key: v.key,
                            len: v.buf.len(),
                        })
                        .collect();
                    Action::Cts(
                        sr.src,
                        MpiPacket::Cts {
                            send_req: sr.peer_send_req,
                            recv_req: recv_id,
                            chunk_size: sr.chunk_size,
                            slots: descs,
                        },
                    )
                }
                // CTS still deferred on pool back-pressure (it will go out
                // with fresh slots), or the receive already finished.
                _ => Action::None,
            }
        };
        match action {
            Action::None => {}
            Action::FallBack => self.direct_to_staged(recv_id),
            Action::FallBackOffload => self.offload_to_staged(recv_id),
            Action::CtsDirect(dst, pkt) => {
                note(&self.counters, &self.trace, "retry.cts_direct");
                self.nic.send_ctrl(dst, Box::new(pkt));
            }
            Action::CtsOffload(dst, pkt) => {
                note(&self.counters, &self.trace, "retry.cts_offload");
                self.nic.send_ctrl(dst, Box::new(pkt));
            }
            Action::Cts(dst, pkt) => {
                note(&self.counters, &self.trace, "retry.cts");
                self.nic.send_ctrl(dst, Box::new(pkt));
            }
        }
    }

    /// Direct R-PUT abandoned (sender could not register): release our
    /// registration and fall back to the staged path.
    fn direct_to_staged(&mut self, recv_id: ReqId) {
        let buf_id;
        let (env, total, send_req);
        {
            let Some(st) = self.recvs.get_mut(&recv_id) else {
                return;
            };
            let RecvPhase::WaitDirect {
                env: e,
                total: t,
                send_req: s,
                ..
            } = &st.phase
            else {
                return;
            };
            (env, total, send_req) = (*e, *t, *s);
            buf_id = st.direct_ptr.as_ref().map(|p| p.buf().id());
        }
        if let Some(id) = buf_id {
            self.reg_cache.release(id);
        }
        note(&self.counters, &self.trace, "fallback.direct_to_staged");
        self.start_staged_recv(recv_id, env, total, send_req);
    }

    /// Offload transfer abandoned (sender could not register): release our
    /// registration and fall back to the staged path.
    fn offload_to_staged(&mut self, recv_id: ReqId) {
        let buf_id;
        let (env, total, send_req);
        {
            let Some(st) = self.recvs.get_mut(&recv_id) else {
                return;
            };
            let RecvPhase::WaitOffload {
                env: e,
                total: t,
                send_req: s,
                ..
            } = &st.phase
            else {
                return;
            };
            (env, total, send_req) = (*e, *t, *s);
            buf_id = st.offload.as_ref().map(|(p, _)| p.buf().id());
        }
        if let Some(id) = buf_id {
            self.reg_cache.release(id);
        }
        note(&self.counters, &self.trace, "fallback.offload_to_staged");
        self.start_staged_recv(recv_id, env, total, send_req);
    }

    fn handle_packet(&mut self, src: usize, pkt: MpiPacket) {
        sim_core::sleep(SimDur::from_nanos(self.cfg.cpu.handle_pkt_ns));
        match pkt {
            MpiPacket::Eager { env, data } => {
                let limit = self.scheme.eager_limit(src);
                if data.len() > limit {
                    san::report_protocol(format!(
                        "eager payload of {} bytes exceeds the eager limit of {limit} bytes",
                        data.len(),
                    ));
                }
                if let Some(recv_id) = self.find_posted(&env) {
                    self.deliver_eager(recv_id, env, data);
                } else {
                    self.unexpected.push_back(Unexpected::Eager { env, data });
                }
            }
            MpiPacket::Rts {
                env,
                total,
                send_req,
                direct_capable,
                dev_gpu,
                offload_entries,
            } => {
                if self.faulty {
                    // Retransmit tolerance: an RTS we have already seen must
                    // not match (or enqueue) twice.
                    if self.done_rts.contains(&(env.src, send_req)) {
                        note(&self.counters, &self.trace, "dup.rts");
                        return;
                    }
                    if let Some(&recv_id) = self.matched_rts.get(&(env.src, send_req)) {
                        note(&self.counters, &self.trace, "dup.rts");
                        self.resend_response(recv_id, direct_capable, offload_entries);
                        return;
                    }
                    let queued = self.unexpected.iter().any(|u| {
                        matches!(u, Unexpected::Rts { env: e, send_req: s, .. }
                                 if e.src == env.src && *s == send_req)
                    });
                    if queued {
                        note(&self.counters, &self.trace, "dup.rts");
                        return;
                    }
                }
                if let Some(recv_id) = self.find_posted(&env) {
                    self.match_rts(
                        recv_id,
                        env,
                        total,
                        send_req,
                        direct_capable,
                        dev_gpu,
                        offload_entries,
                    );
                } else {
                    self.unexpected.push_back(Unexpected::Rts {
                        env,
                        total,
                        send_req,
                        direct_capable,
                        dev_gpu,
                        offload_entries,
                    });
                }
            }
            MpiPacket::Cts {
                send_req,
                recv_req,
                chunk_size,
                slots,
            } => {
                let Some(st) = self.sends.get_mut(&send_req) else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.cts");
                        return;
                    }
                    san::report_protocol(format!(
                        "CTS for unknown send request #{send_req} (never posted or already reaped)"
                    ));
                    panic!("CTS for unknown send");
                };
                if !matches!(st.phase, SendPhase::WaitCts { .. }) {
                    if self.faulty {
                        // The original CTS made it after all; this is the
                        // re-sent copy racing behind it.
                        note(&self.counters, &self.trace, "dup.cts");
                        return;
                    }
                    san::report_protocol(format!(
                        "CTS for send request #{send_req} that is not awaiting CTS                          (duplicate or out-of-order CTS)"
                    ));
                    panic!("CTS for a send not in WaitCts phase");
                }
                let timer = self.faulty.then(|| RetryTimer::new(&self.cfg.retry));
                let st = self.sends.get_mut(&send_req).expect("CTS for unknown send");
                st.source.begin(chunk_size);
                let nchunks = st.total.div_ceil(chunk_size).max(1);
                st.phase = SendPhase::Staged(StagedSend {
                    dst: st.dst,
                    peer_recv_req: recv_req,
                    chunk_size,
                    nchunks,
                    slots: slots
                        .into_iter()
                        .map(|desc| SlotState {
                            desc,
                            free: true,
                            occupant: None,
                            fin_sent: false,
                        })
                        .collect(),
                    next_request: 0,
                    next_send: 0,
                    local: VecDeque::new(),
                    inflight: Vec::new(),
                    timer,
                });
            }
            MpiPacket::CtsDirect {
                send_req,
                recv_req,
                key,
                offset,
                len,
            } => {
                let Some(st) = self.sends.get_mut(&send_req) else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.cts");
                        // If the send finished and was reaped, the receiver
                        // must have missed the FinDirect — re-announce.
                        if let Some(&SendRecord::Direct { dst, recv_req }) =
                            self.completed_sends.get(&send_req)
                        {
                            note(&self.counters, &self.trace, "retry.fin_direct");
                            self.nic
                                .send_ctrl(dst, Box::new(MpiPacket::FinDirect { recv_req }));
                        }
                        return;
                    }
                    san::report_protocol(format!(
                        "direct CTS for unknown send request #{send_req}                          (never posted or already reaped)"
                    ));
                    panic!("CTS for unknown send");
                };
                match &st.phase {
                    SendPhase::WaitCts { .. } => {}
                    SendPhase::Done if self.faulty => {
                        // Completed but not yet reaped: re-announce.
                        note(&self.counters, &self.trace, "dup.cts");
                        note(&self.counters, &self.trace, "retry.fin_direct");
                        let dst = st.dst;
                        self.nic
                            .send_ctrl(dst, Box::new(MpiPacket::FinDirect { recv_req }));
                        return;
                    }
                    _ if self.faulty => {
                        note(&self.counters, &self.trace, "dup.cts");
                        return;
                    }
                    _ => {
                        san::report_protocol(format!(
                            "direct CTS for send request #{send_req} that is not awaiting CTS                          (duplicate or out-of-order CTS)"
                        ));
                        panic!("CTS for a send not in WaitCts phase");
                    }
                }
                if st.direct_failed {
                    // Our registration failed before and the abort was
                    // evidently lost: repeat it.
                    note(&self.counters, &self.trace, "retry.direct_abort");
                    if let SendPhase::WaitCts { timer: Some(t) } = &mut st.phase {
                        t.feed();
                    }
                    let dst = st.dst;
                    self.nic
                        .send_ctrl(dst, Box::new(MpiPacket::DirectAbort { recv_req, send_req }));
                    return;
                }
                let ptr = st
                    .direct_ptr
                    .clone()
                    .expect("direct CTS for a non-contiguous send");
                assert_eq!(len, st.total);
                let buf = ptr.buf().clone();
                match self
                    .reg_cache
                    .acquire(&self.nic, &self.counters, &self.trace, &buf)
                {
                    Err(_) => {
                        // Pin limit: abandon the R-PUT; the receiver falls
                        // back to granting a staged window.
                        note(&self.counters, &self.trace, "fallback.direct_abort");
                        let st = self.sends.get_mut(&send_req).expect("CTS for unknown send");
                        st.direct_failed = true;
                        if let SendPhase::WaitCts { timer: Some(t) } = &mut st.phase {
                            t.feed();
                        }
                        let dst = st.dst;
                        self.nic.send_ctrl(
                            dst,
                            Box::new(MpiPacket::DirectAbort { recv_req, send_req }),
                        );
                    }
                    Ok(_) => {
                        let st = self.sends.get_mut(&send_req).expect("CTS for unknown send");
                        let rdma = self
                            .scheme
                            .transport(st.dst)
                            .write(st.dst, key, offset, &ptr, st.total);
                        // On a reliable fabric the FIN departs right behind
                        // the write (same engine, ordered); under faults it
                        // waits for the CQE so a failed write is never
                        // announced.
                        let fin_now = !self.faulty;
                        if fin_now {
                            self.nic
                                .send_ctrl(st.dst, Box::new(MpiPacket::FinDirect { recv_req }));
                        }
                        st.phase = SendPhase::Direct(DirectSend {
                            rdma,
                            peer_key: key,
                            peer_off: offset,
                            recv_req,
                            ptr,
                            fin_sent: fin_now,
                            attempts: 1,
                        });
                    }
                }
            }
            MpiPacket::CtsOffload {
                send_req,
                recv_req,
                key,
                scatter,
                total,
            } => {
                let Some(st) = self.sends.get_mut(&send_req) else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.cts");
                        // If the send finished and was reaped, the receiver
                        // must have missed the FinOffload — re-announce.
                        if let Some(&SendRecord::Offload { dst, recv_req }) =
                            self.completed_sends.get(&send_req)
                        {
                            note(&self.counters, &self.trace, "retry.fin_offload");
                            self.nic
                                .send_ctrl(dst, Box::new(MpiPacket::FinOffload { recv_req }));
                        }
                        return;
                    }
                    san::report_protocol(format!(
                        "offload CTS for unknown send request #{send_req} \
                         (never posted or already reaped)"
                    ));
                    panic!("CTS for unknown send");
                };
                match &st.phase {
                    SendPhase::WaitCts { .. } => {}
                    SendPhase::Done if self.faulty => {
                        // Completed but not yet reaped: re-announce.
                        note(&self.counters, &self.trace, "dup.cts");
                        note(&self.counters, &self.trace, "retry.fin_offload");
                        let dst = st.dst;
                        self.nic
                            .send_ctrl(dst, Box::new(MpiPacket::FinOffload { recv_req }));
                        return;
                    }
                    _ if self.faulty => {
                        note(&self.counters, &self.trace, "dup.cts");
                        return;
                    }
                    _ => {
                        san::report_protocol(format!(
                            "offload CTS for send request #{send_req} that is not awaiting \
                             CTS (duplicate or out-of-order CTS)"
                        ));
                        panic!("CTS for a send not in WaitCts phase");
                    }
                }
                if st.offload_failed {
                    // Our registration failed before and the abort was
                    // evidently lost: repeat it.
                    note(&self.counters, &self.trace, "retry.offload_abort");
                    if let SendPhase::WaitCts { timer: Some(t) } = &mut st.phase {
                        t.feed();
                    }
                    let dst = st.dst;
                    self.nic.send_ctrl(
                        dst,
                        Box::new(MpiPacket::OffloadAbort { recv_req, send_req }),
                    );
                    return;
                }
                let (ptr, desc) = st
                    .offload
                    .as_ref()
                    .expect("offload CTS for a send that never advertised it");
                let (ptr, gather) = (ptr.clone(), desc.to_sg(ptr.offset()));
                assert_eq!(total, st.total, "offload CTS grants a different size");
                let buf = ptr.buf().clone();
                match self
                    .reg_cache
                    .acquire(&self.nic, &self.counters, &self.trace, &buf)
                {
                    Err(_) => {
                        // Pin limit: abandon the offload; the receiver falls
                        // back to granting a staged window.
                        note(&self.counters, &self.trace, "fallback.offload_abort");
                        let st = self.sends.get_mut(&send_req).expect("CTS for unknown send");
                        st.offload_failed = true;
                        if let SendPhase::WaitCts { timer: Some(t) } = &mut st.phase {
                            t.feed();
                        }
                        let dst = st.dst;
                        self.nic.send_ctrl(
                            dst,
                            Box::new(MpiPacket::OffloadAbort { recv_req, send_req }),
                        );
                    }
                    Ok(_) => {
                        let st = self.sends.get_mut(&send_req).expect("CTS for unknown send");
                        let rdma = self
                            .scheme
                            .transport(st.dst)
                            .write_sg(st.dst, key, &ptr, &gather, &scatter);
                        // On a reliable fabric the FIN departs right behind
                        // the write (same engine, ordered); under faults it
                        // waits for the CQE so a failed write is never
                        // announced.
                        let fin_now = !self.faulty;
                        if fin_now {
                            self.nic
                                .send_ctrl(st.dst, Box::new(MpiPacket::FinOffload { recv_req }));
                        }
                        st.phase = SendPhase::Offload(OffloadSend {
                            rdma,
                            peer_key: key,
                            ptr,
                            gather,
                            scatter,
                            recv_req,
                            fin_sent: fin_now,
                            attempts: 1,
                        });
                    }
                }
            }
            MpiPacket::Fin {
                recv_req,
                chunk_idx,
                slot,
                bytes,
            } => {
                let Some(st) = self.recvs.get_mut(&recv_req) else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.fin");
                        // Receive finished and was reaped: the sender is
                        // chasing a lost credit — re-credit from the record.
                        if let Some(&(peer, send_req)) = self.completed_recvs.get(&recv_req) {
                            note(&self.counters, &self.trace, "retry.credit");
                            self.nic.send_ctrl(
                                peer,
                                Box::new(MpiPacket::Credit {
                                    send_req,
                                    slot,
                                    chunk_idx,
                                }),
                            );
                        }
                        return;
                    }
                    san::report_protocol(format!("FIN for unknown receive request #{recv_req}"));
                    panic!("FIN for unknown recv");
                };
                let RecvPhase::Staged(sr, _) = &mut st.phase else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.fin");
                        // Same as above, for a finished-but-unreaped receive.
                        if let Some(&(peer, send_req)) = self.completed_recvs.get(&recv_req) {
                            note(&self.counters, &self.trace, "retry.credit");
                            self.nic.send_ctrl(
                                peer,
                                Box::new(MpiPacket::Credit {
                                    send_req,
                                    slot,
                                    chunk_idx,
                                }),
                            );
                        }
                        return;
                    }
                    san::report_protocol(format!(
                        "FIN for receive request #{recv_req} that is not in the staged                          rendezvous phase (protocol state machine violation)"
                    ));
                    panic!("FIN for a receive not in staged phase")
                };
                if slot >= sr.slots.len() {
                    san::report_protocol(format!(
                        "FIN names slot {slot} but only {} slot(s) were granted",
                        sr.slots.len()
                    ));
                    panic!("FIN for a nonexistent slot");
                }
                if chunk_idx < sr.next_chunk {
                    // Already fed to the sink: a retransmitted FIN.
                    note(&self.counters, &self.trace, "dup.fin");
                    if chunk_idx < sr.next_credit {
                        // ...and already credited, so the credit was lost.
                        note(&self.counters, &self.trace, "retry.credit");
                        let peer = sr.src;
                        let send_req = sr.peer_send_req;
                        self.nic.send_ctrl(
                            peer,
                            Box::new(MpiPacket::Credit {
                                send_req,
                                slot,
                                chunk_idx,
                            }),
                        );
                    }
                    return;
                }
                match sr.arrived.entry(chunk_idx) {
                    std::collections::btree_map::Entry::Occupied(_) => {
                        note(&self.counters, &self.trace, "dup.fin");
                    }
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert((slot, bytes));
                        if let Some(t) = &mut sr.timer {
                            t.feed();
                        }
                    }
                }
            }
            MpiPacket::FinDirect { recv_req } => {
                let Some(st) = self.recvs.get_mut(&recv_req) else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.fin_direct");
                        return;
                    }
                    san::report_protocol(format!(
                        "FIN-direct for unknown receive request #{recv_req}"
                    ));
                    panic!("FIN for unknown recv");
                };
                let RecvPhase::WaitDirect {
                    env,
                    total,
                    send_req,
                    ..
                } = &st.phase
                else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.fin_direct");
                        return;
                    }
                    san::report_protocol(format!(
                        "FIN-direct for receive request #{recv_req} that is not in the                          direct rendezvous phase (protocol state machine violation)"
                    ));
                    panic!("FIN-direct for a receive not in direct phase")
                };
                let (env, total, send_req) = (*env, *total, *send_req);
                let buf_id = st.direct_ptr.as_ref().map(|p| p.buf().id());
                st.phase = RecvPhase::Done(RecvStatus {
                    src: env.src,
                    tag: env.tag,
                    bytes: total,
                });
                // The registration stays cached but becomes evictable.
                if let Some(id) = buf_id {
                    self.reg_cache.release(id);
                }
                if self.faulty {
                    self.matched_rts.remove(&(env.src, send_req));
                    self.done_rts.insert((env.src, send_req), ());
                }
            }
            MpiPacket::FinOffload { recv_req } => {
                let Some(st) = self.recvs.get_mut(&recv_req) else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.fin_offload");
                        return;
                    }
                    san::report_protocol(format!(
                        "FIN-offload for unknown receive request #{recv_req}"
                    ));
                    panic!("FIN for unknown recv");
                };
                let RecvPhase::WaitOffload {
                    env,
                    total,
                    send_req,
                    ..
                } = &st.phase
                else {
                    if self.faulty {
                        note(&self.counters, &self.trace, "dup.fin_offload");
                        return;
                    }
                    san::report_protocol(format!(
                        "FIN-offload for receive request #{recv_req} that is not in the \
                         offload rendezvous phase (protocol state machine violation)"
                    ));
                    panic!("FIN-offload for a receive not in offload phase")
                };
                let (env, total, send_req) = (*env, *total, *send_req);
                let buf_id = st.offload.as_ref().map(|(p, _)| p.buf().id());
                st.phase = RecvPhase::Done(RecvStatus {
                    src: env.src,
                    tag: env.tag,
                    bytes: total,
                });
                // The registration stays cached but becomes evictable.
                if let Some(id) = buf_id {
                    self.reg_cache.release(id);
                }
                if self.faulty {
                    self.matched_rts.remove(&(env.src, send_req));
                    self.done_rts.insert((env.src, send_req), ());
                }
            }
            MpiPacket::Credit {
                send_req,
                slot,
                chunk_idx,
            } => {
                // A send completes once its last RDMA write is on the wire;
                // credits for the tail chunks may still be in flight when
                // the request is reaped. They gate nothing anymore: drop.
                if let Some(st) = self.sends.get_mut(&send_req) {
                    if let SendPhase::Staged(ss) = &mut st.phase {
                        if slot >= ss.slots.len() {
                            san::report_protocol(format!(
                                "credit names slot {slot} but only {} slot(s) were granted",
                                ss.slots.len()
                            ));
                            panic!("credit for a nonexistent slot");
                        }
                        let s = &mut ss.slots[slot];
                        if !s.free && s.occupant == Some(chunk_idx) {
                            s.free = true;
                            san::proto_event(
                                &invariants::xfer_scope(&self.prefix, self.rank, send_req),
                                "credits_recv",
                                1,
                            );
                            if let Some(t) = &mut ss.timer {
                                t.feed();
                            }
                        } else {
                            // Duplicate or stale credit. Freeing the slot
                            // here would overflow flow control (the sender
                            // could overwrite data the receiver has not
                            // absorbed), so it is ignored in *every*
                            // sanitizer mode.
                            note(&self.counters, &self.trace, "dup.credit");
                            if !self.faulty {
                                san::report_protocol(format!(
                                    "credit for slot {slot} which is already free                                  (flow-control overflow: duplicate credit)"
                                ));
                            }
                        }
                    }
                }
            }
            MpiPacket::FinNack {
                send_req,
                next_needed,
            } => {
                // The receiver is missing FINs. For a live staged send,
                // re-announce every busy (uncredited) slot: dup FINs for
                // already-credited chunks make the receiver re-credit,
                // which also recovers lost credits. For a completed send,
                // reconstruct the FINs of the final window from the record
                // (the receiver's slots still hold exactly those chunks —
                // overwriting a slot requires its occupant's credit).
                let mut live = false;
                if let Some(st) = self.sends.get_mut(&send_req) {
                    if let SendPhase::Staged(ss) = &mut st.phase {
                        live = true;
                        let total = st.total;
                        for (slot_idx, s) in ss.slots.iter().enumerate() {
                            if s.free || !s.fin_sent {
                                continue;
                            }
                            let Some(c) = s.occupant else { continue };
                            let len = ss.chunk_size.min(total - c * ss.chunk_size);
                            note(&self.counters, &self.trace, "retry.fin");
                            self.nic.send_ctrl(
                                ss.dst,
                                Box::new(MpiPacket::Fin {
                                    recv_req: ss.peer_recv_req,
                                    chunk_idx: c,
                                    slot: slot_idx,
                                    bytes: len,
                                }),
                            );
                        }
                    }
                }
                if !live {
                    if let Some(&SendRecord::Staged {
                        dst,
                        peer_recv_req,
                        chunk_size,
                        nchunks,
                        nslots,
                        total,
                    }) = self.completed_sends.get(&send_req)
                    {
                        let hi = (next_needed + nslots).min(nchunks);
                        for c in next_needed..hi {
                            let len = chunk_size.min(total - c * chunk_size);
                            note(&self.counters, &self.trace, "retry.fin");
                            self.nic.send_ctrl(
                                dst,
                                Box::new(MpiPacket::Fin {
                                    recv_req: peer_recv_req,
                                    chunk_idx: c,
                                    slot: c % nslots,
                                    bytes: len,
                                }),
                            );
                        }
                    }
                }
            }
            MpiPacket::DirectAbort { recv_req, send_req } => {
                let _ = send_req;
                let falls_back = self
                    .recvs
                    .get(&recv_req)
                    .is_some_and(|st| matches!(st.phase, RecvPhase::WaitDirect { .. }));
                if falls_back {
                    self.direct_to_staged(recv_req);
                } else {
                    // Already fell back (duplicate abort) or finished.
                    note(&self.counters, &self.trace, "dup.direct_abort");
                }
            }
            MpiPacket::OffloadAbort { recv_req, send_req } => {
                let _ = send_req;
                let falls_back = self
                    .recvs
                    .get(&recv_req)
                    .is_some_and(|st| matches!(st.phase, RecvPhase::WaitOffload { .. }));
                if falls_back {
                    self.offload_to_staged(recv_req);
                } else {
                    // Already fell back (duplicate abort) or finished.
                    note(&self.counters, &self.trace, "dup.offload_abort");
                }
            }
            MpiPacket::CtsDev { send_req, recv_req } => {
                // Device-path control travels the intra-node shm channel,
                // which never drops or reorders — protocol violations stay
                // hard panics even on fault-injecting fabrics.
                let Some(st) = self.sends.get_mut(&send_req) else {
                    san::report_protocol(format!(
                        "device CTS for unknown send request #{send_req}"
                    ));
                    panic!("CtsDev for unknown send");
                };
                if !matches!(st.phase, SendPhase::WaitCts { .. }) {
                    san::report_protocol(format!(
                        "device CTS for send request #{send_req} that is not awaiting CTS"
                    ));
                    panic!("CtsDev for a send not in WaitCts phase");
                }
                let (ptr, pack) = st
                    .source
                    .stage_device()
                    .expect("device CTS for a send without a device source");
                // The packed device tbuf is held until the CREDIT-dev frees
                // it; account it like a staging-pool buffer.
                san::pool_take(self.dev_tbuf_id);
                let dst = st.dst;
                let total = st.total;
                // The FIN-dev goes out immediately: the pack completion
                // rides inside it, so the receiver's unpack stream orders
                // itself after the pack (simulated CUDA IPC event).
                self.trace.proto.instant_now("fin_dev");
                self.nic.send_ctrl(
                    dst,
                    Box::new(MpiPacket::FinDev {
                        recv_req,
                        ptr,
                        total,
                        ready: pack.clone(),
                    }),
                );
                let st = self.sends.get_mut(&send_req).expect("send state missing");
                st.phase = SendPhase::DevWaitCredit { pack };
            }
            MpiPacket::FinDev {
                recv_req,
                ptr,
                total,
                ready,
            } => {
                let Some(st) = self.recvs.get_mut(&recv_req) else {
                    san::report_protocol(format!(
                        "device FIN for unknown receive request #{recv_req}"
                    ));
                    panic!("FinDev for unknown recv");
                };
                let RecvPhase::DevWait {
                    env,
                    total: expected,
                    send_req,
                } = &st.phase
                else {
                    san::report_protocol(format!(
                        "device FIN for receive request #{recv_req} that is not in the \
                         device rendezvous phase (protocol state machine violation)"
                    ));
                    panic!("FinDev for a receive not in device phase");
                };
                assert_eq!(total, *expected, "device FIN announces a different size");
                let (env, send_req) = (*env, *send_req);
                let comp = st
                    .sink
                    .absorb_device(ptr, total, &ready)
                    .expect("device FIN for a sink without device support");
                st.phase = RecvPhase::DevAbsorb {
                    comp,
                    env,
                    total,
                    send_req,
                };
            }
            MpiPacket::CreditDev { send_req } => {
                let Some(st) = self.sends.get_mut(&send_req) else {
                    san::report_protocol(format!(
                        "device credit for unknown send request #{send_req}"
                    ));
                    panic!("CreditDev for unknown send");
                };
                if !matches!(st.phase, SendPhase::DevWaitCredit { .. }) {
                    san::report_protocol(format!(
                        "device credit for send request #{send_req} that is not awaiting one"
                    ));
                    panic!("CreditDev for a send not in DevWaitCredit phase");
                }
                san::pool_put(self.dev_tbuf_id);
                st.phase = SendPhase::Done;
            }
        }
    }

    fn find_posted(&mut self, env: &Envelope) -> Option<ReqId> {
        let pos = self.posted.iter().position(|id| {
            let r = &self.recvs[id];
            matches!(r.phase, RecvPhase::Unmatched) && env_matches(env, r.ctx, r.src_sel, r.tag_sel)
        })?;
        Some(self.posted.remove(pos))
    }

    // --- progress -------------------------------------------------------------------

    /// One full progress pass: drain packets, advance all state machines.
    pub fn progress(&mut self) {
        // Drain the NIC mailbox.
        while let Some(pkt) = self.nic.mailbox().try_recv() {
            let src = pkt.src;
            let payload = pkt
                .payload
                .downcast::<MpiPacket>()
                .expect("non-MPI packet in MPI mailbox");
            self.handle_packet(src, *payload);
        }
        // Advance sends. Sorted: HashMap iteration order differs between
        // processes (per-instance hash seeds), and replay determinism
        // requires the advance order to be a pure function of request ids.
        let mut send_ids: Vec<ReqId> = self.sends.keys().copied().collect();
        send_ids.sort_unstable();
        for id in send_ids {
            self.advance_send(id);
        }
        // Advance receives (sorted, as above).
        let mut recv_ids: Vec<ReqId> = self.recvs.keys().copied().collect();
        recv_ids.sort_unstable();
        for id in recv_ids {
            self.advance_recv(id);
        }
        // Sample the vbuf-pool gauges, on change only.
        let cur = (self.send_pool.len(), self.recv_pool.len());
        if cur != self.last_pools {
            self.last_pools = cur;
            self.trace.send_pool.gauge_now(cur.0 as i64);
            self.trace.recv_pool.gauge_now(cur.1 as i64);
        }
    }

    fn advance_send(&mut self, id: ReqId) {
        let Some(st) = self.sends.get_mut(&id) else {
            return;
        };
        let mut failed: Option<MpiError> = None;
        match &mut st.phase {
            SendPhase::Done | SendPhase::Failed(_) => {}
            // Nothing to drive: the receiver reads the device tbuf and its
            // credit arrives through the mailbox.
            SendPhase::DevWaitCredit { .. } => {}
            SendPhase::WaitCts { timer } => {
                // Only armed on faulty fabrics: retransmit the RTS.
                if let Some(t) = timer {
                    if t.expired() {
                        if t.bump(self.cfg.retry.max_retries) {
                            note(&self.counters, &self.trace, "retry.rts");
                            let direct_capable = st.direct_ptr.is_some() && !st.direct_failed;
                            let offload_entries = if st.offload_failed {
                                None
                            } else {
                                st.offload.as_ref().map(|(_, d)| d.entries().len() as u32)
                            };
                            self.nic.send_ctrl(
                                st.dst,
                                Box::new(MpiPacket::Rts {
                                    env: st.env,
                                    total: st.total,
                                    send_req: id,
                                    direct_capable,
                                    dev_gpu: st.dev_gpu,
                                    offload_entries,
                                }),
                            );
                        } else {
                            failed = Some(MpiError::RetriesExhausted {
                                op: "rts",
                                peer: st.dst,
                                attempts: t.attempts,
                            });
                        }
                    }
                }
            }
            SendPhase::Direct(d) => {
                if d.rdma.poll() {
                    if d.rdma.is_error() {
                        if d.attempts > self.cfg.retry.max_retries {
                            failed = Some(MpiError::RetriesExhausted {
                                op: "rdma_direct",
                                peer: st.dst,
                                attempts: d.attempts,
                            });
                        } else {
                            d.attempts += 1;
                            note(&self.counters, &self.trace, "retry.rdma_direct");
                            d.rdma = self
                                .scheme
                                .transport(st.dst)
                                .write(st.dst, d.peer_key, d.peer_off, &d.ptr, st.total);
                        }
                    } else {
                        self.trace.rdma.comp_span(
                            self.scheme.transport(st.dst).name(),
                            None,
                            &d.rdma,
                        );
                        if !d.fin_sent {
                            self.nic.send_ctrl(
                                st.dst,
                                Box::new(MpiPacket::FinDirect {
                                    recv_req: d.recv_req,
                                }),
                            );
                        }
                        let buf_id = d.ptr.buf().id();
                        let rec = SendRecord::Direct {
                            dst: st.dst,
                            recv_req: d.recv_req,
                        };
                        st.phase = SendPhase::Done;
                        self.reg_cache.release(buf_id);
                        if self.faulty {
                            self.completed_sends.insert(id, rec);
                        }
                    }
                }
            }
            SendPhase::Offload(o) => {
                if o.rdma.poll() {
                    if o.rdma.is_error() {
                        // A failed descriptor fetch surfaces as an error CQE
                        // and retries exactly like a failed RDMA write.
                        if o.attempts > self.cfg.retry.max_retries {
                            failed = Some(MpiError::RetriesExhausted {
                                op: "offload_sg",
                                peer: st.dst,
                                attempts: o.attempts,
                            });
                        } else {
                            o.attempts += 1;
                            note(&self.counters, &self.trace, "retry.offload_sg");
                            o.rdma = self
                                .scheme
                                .transport(st.dst)
                                .write_sg(st.dst, o.peer_key, &o.ptr, &o.gather, &o.scatter);
                        }
                    } else {
                        self.trace.rdma.comp_span("offload", None, &o.rdma);
                        if !o.fin_sent {
                            self.nic.send_ctrl(
                                st.dst,
                                Box::new(MpiPacket::FinOffload {
                                    recv_req: o.recv_req,
                                }),
                            );
                        }
                        let buf_id = o.ptr.buf().id();
                        let rec = SendRecord::Offload {
                            dst: st.dst,
                            recv_req: o.recv_req,
                        };
                        st.phase = SendPhase::Done;
                        self.reg_cache.release(buf_id);
                        if self.faulty {
                            self.completed_sends.insert(id, rec);
                        }
                    }
                }
            }
            SendPhase::Staged(ss) => {
                let total = st.total;
                // 1. Request staging of upcoming chunks while vbufs and
                //    window room are available.
                while ss.next_request < ss.nchunks
                    && ss.local.len() + ss.inflight.len() < ss.slots.len()
                {
                    let Some(vbuf) = self.send_pool.pop() else {
                        break;
                    };
                    san::pool_take(self.send_pool_id);
                    let i = ss.next_request;
                    let off = i * ss.chunk_size;
                    let len = ss.chunk_size.min(total - off);
                    st.source.request_chunk(i, vbuf.buf.base(), len);
                    ss.local.push_back((i, vbuf));
                    ss.next_request += 1;
                }
                // 2. Drive async staging.
                st.source.poll();
                // 3. RDMA-write ready chunks, in order, into free slots.
                while let Some(&(i, _)) = ss.local.front() {
                    debug_assert_eq!(i, ss.next_send);
                    if !st.source.chunk_ready(i) {
                        break;
                    }
                    let slot = i % ss.slots.len();
                    if !ss.slots[slot].free {
                        break;
                    }
                    let (_, vbuf) = ss.local.pop_front().unwrap();
                    let off = i * ss.chunk_size;
                    let len = ss.chunk_size.min(total - off);
                    assert!(
                        len <= ss.slots[slot].desc.len,
                        "chunk larger than the granted vbuf slot"
                    );
                    ss.slots[slot].free = false;
                    ss.slots[slot].occupant = Some(i);
                    let comp = self.scheme.transport(ss.dst).write(
                        ss.dst,
                        ss.slots[slot].desc.key,
                        0,
                        &vbuf.buf.base(),
                        len,
                    );
                    if self.faulty {
                        // The FIN waits for the CQE: a failed write must
                        // never be announced.
                        ss.slots[slot].fin_sent = false;
                    } else {
                        self.nic.send_ctrl(
                            ss.dst,
                            Box::new(MpiPacket::Fin {
                                recv_req: ss.peer_recv_req,
                                chunk_idx: i,
                                slot,
                                bytes: len,
                            }),
                        );
                        ss.slots[slot].fin_sent = true;
                        san::proto_event(
                            &invariants::xfer_scope(&self.prefix, self.rank, id),
                            "chunks_finned",
                            1,
                        );
                    }
                    ss.inflight.push(InflightChunk {
                        comp,
                        vbuf,
                        chunk: i,
                        slot,
                        len,
                        attempts: 1,
                    });
                    ss.next_send += 1;
                    if let Some(t) = &mut ss.timer {
                        t.feed();
                    }
                }
                // 4. Reap finished RDMA writes: on success announce (if
                //    deferred) and return the vbuf; on an error CQE re-issue
                //    the write from the still-held vbuf.
                let mut i = 0;
                while i < ss.inflight.len() {
                    if !ss.inflight[i].comp.poll() {
                        i += 1;
                        continue;
                    }
                    if ss.inflight[i].comp.is_error() {
                        let c = &mut ss.inflight[i];
                        if c.attempts > self.cfg.retry.max_retries {
                            failed = Some(MpiError::RetriesExhausted {
                                op: "chunk_rdma",
                                peer: ss.dst,
                                attempts: c.attempts,
                            });
                            break;
                        }
                        c.attempts += 1;
                        note(&self.counters, &self.trace, "retry.chunk_rdma");
                        c.comp = self.scheme.transport(ss.dst).write(
                            ss.dst,
                            ss.slots[c.slot].desc.key,
                            0,
                            &c.vbuf.buf.base(),
                            c.len,
                        );
                        i += 1;
                        continue;
                    }
                    let done = ss.inflight.swap_remove(i);
                    self.trace.rdma.comp_span(
                        self.scheme.transport(ss.dst).name(),
                        Some(done.chunk),
                        &done.comp,
                    );
                    if self.faulty {
                        self.nic.send_ctrl(
                            ss.dst,
                            Box::new(MpiPacket::Fin {
                                recv_req: ss.peer_recv_req,
                                chunk_idx: done.chunk,
                                slot: done.slot,
                                bytes: done.len,
                            }),
                        );
                        ss.slots[done.slot].fin_sent = true;
                        san::proto_event(
                            &invariants::xfer_scope(&self.prefix, self.rank, id),
                            "chunks_finned",
                            1,
                        );
                        if let Some(t) = &mut ss.timer {
                            t.feed();
                        }
                    }
                    let vbuf = done.vbuf;
                    if self.cfg.fault_leak_vbuf && !self.leaked_vbuf {
                        // Fault injection: this vbuf is never returned.
                        self.leaked_vbuf = true;
                        std::mem::forget(vbuf);
                    } else {
                        san::pool_put(self.send_pool_id);
                        self.send_pool.push(vbuf);
                    }
                }
                // 5. Stall watchdog: no credit or CQE within the window —
                //    the receiver may be missing a FIN, or we a credit.
                //    Re-announcing busy slots recovers both (a dup FIN for
                //    a credited chunk makes the receiver re-credit).
                if failed.is_none() {
                    if let Some(t) = &mut ss.timer {
                        if t.expired() {
                            let resend: Vec<(usize, usize)> = ss
                                .slots
                                .iter()
                                .enumerate()
                                .filter(|(_, s)| !s.free && s.fin_sent)
                                .filter_map(|(idx, s)| s.occupant.map(|c| (idx, c)))
                                .collect();
                            if resend.is_empty() {
                                // Stalled on local staging or an in-flight
                                // write — nothing on the wire to chase.
                                t.feed();
                            } else if t.bump(self.cfg.retry.max_retries) {
                                for (slot, c) in resend {
                                    let len = ss.chunk_size.min(total - c * ss.chunk_size);
                                    note(&self.counters, &self.trace, "retry.fin");
                                    self.nic.send_ctrl(
                                        ss.dst,
                                        Box::new(MpiPacket::Fin {
                                            recv_req: ss.peer_recv_req,
                                            chunk_idx: c,
                                            slot,
                                            bytes: len,
                                        }),
                                    );
                                }
                            } else {
                                failed = Some(MpiError::RetriesExhausted {
                                    op: "fin",
                                    peer: ss.dst,
                                    attempts: t.attempts,
                                });
                            }
                        }
                    }
                }
                if failed.is_none() && ss.next_send == ss.nchunks && ss.inflight.is_empty() {
                    let rec = SendRecord::Staged {
                        dst: ss.dst,
                        peer_recv_req: ss.peer_recv_req,
                        chunk_size: ss.chunk_size,
                        nchunks: ss.nchunks,
                        nslots: ss.slots.len(),
                        total,
                    };
                    st.phase = SendPhase::Done;
                    if self.faulty {
                        self.completed_sends.insert(id, rec);
                    }
                }
            }
        }
        if let Some(e) = failed {
            self.fail_send(id, e);
        }
    }

    /// Surface a typed failure on a send: release its resources and park it
    /// in the Failed phase for the caller to reap.
    fn fail_send(&mut self, id: ReqId, e: MpiError) {
        note(&self.counters, &self.trace, "mpi.error");
        let Some(st) = self.sends.get_mut(&id) else {
            return;
        };
        let old = std::mem::replace(&mut st.phase, SendPhase::Failed(e));
        match old {
            SendPhase::Staged(ss) => {
                for (_, vbuf) in ss.local {
                    san::pool_put(self.send_pool_id);
                    self.send_pool.push(vbuf);
                }
                for c in ss.inflight {
                    san::pool_put(self.send_pool_id);
                    self.send_pool.push(c.vbuf);
                }
            }
            SendPhase::Direct(d) => {
                self.reg_cache.release(d.ptr.buf().id());
            }
            SendPhase::Offload(o) => {
                self.reg_cache.release(o.ptr.buf().id());
            }
            _ => {}
        }
    }

    /// Surface a typed failure on a receive: release its resources and park
    /// it in the Failed phase for the caller to reap.
    fn fail_recv(&mut self, id: ReqId, e: MpiError) {
        note(&self.counters, &self.trace, "mpi.error");
        let Some(st) = self.recvs.get_mut(&id) else {
            return;
        };
        let buf_id = st.direct_ptr.as_ref().map(|p| p.buf().id());
        let offload_buf_id = st.offload.as_ref().map(|(p, _)| p.buf().id());
        let old = std::mem::replace(&mut st.phase, RecvPhase::Failed(e));
        match old {
            RecvPhase::Staged(mut sr, _) => {
                for _ in 0..sr.slots.len() {
                    san::pool_put(self.recv_pool_id);
                }
                self.recv_pool.append(&mut sr.slots);
                self.matched_rts.remove(&(sr.src, sr.peer_send_req));
                self.done_rts.insert((sr.src, sr.peer_send_req), ());
                self.grant_deferred_cts();
            }
            RecvPhase::WaitDirect { env, send_req, .. } => {
                if let Some(bid) = buf_id {
                    self.reg_cache.release(bid);
                }
                self.matched_rts.remove(&(env.src, send_req));
                self.done_rts.insert((env.src, send_req), ());
            }
            RecvPhase::WaitOffload { env, send_req, .. } => {
                if let Some(bid) = offload_buf_id {
                    self.reg_cache.release(bid);
                }
                self.matched_rts.remove(&(env.src, send_req));
                self.done_rts.insert((env.src, send_req), ());
            }
            _ => {}
        }
    }

    fn advance_recv(&mut self, id: ReqId) {
        if self.recvs.contains_key(&id) {
            self.try_grant_cts(id);
        }
        let Some(st) = self.recvs.get_mut(&id) else {
            return;
        };
        let mut failed: Option<MpiError> = None;
        // Direct-path watchdog (faulty only): the CtsDirect or the FinDirect
        // was lost — re-offer our buffer; a completed sender re-FINs.
        if let RecvPhase::WaitDirect {
            my_key,
            env,
            total,
            send_req,
            timer: Some(t),
        } = &mut st.phase
        {
            if t.expired() {
                if t.bump(self.cfg.retry.max_retries) {
                    note(&self.counters, &self.trace, "retry.cts_direct");
                    let offset = st
                        .direct_ptr
                        .as_ref()
                        .expect("direct receive without a direct pointer")
                        .offset();
                    self.nic.send_ctrl(
                        env.src,
                        Box::new(MpiPacket::CtsDirect {
                            send_req: *send_req,
                            recv_req: id,
                            key: *my_key,
                            offset,
                            len: *total,
                        }),
                    );
                } else {
                    failed = Some(MpiError::RetriesExhausted {
                        op: "cts_direct",
                        peer: env.src,
                        attempts: t.attempts,
                    });
                }
            }
        }
        // Offload watchdog (faulty only): the CtsOffload or the FinOffload
        // was lost — re-offer our scatter descriptor; a completed sender
        // re-FINs.
        if failed.is_none() {
            if let RecvPhase::WaitOffload {
                my_key,
                scatter,
                env,
                total,
                send_req,
                timer: Some(t),
            } = &mut st.phase
            {
                if t.expired() {
                    if t.bump(self.cfg.retry.max_retries) {
                        note(&self.counters, &self.trace, "retry.cts_offload");
                        self.nic.send_ctrl(
                            env.src,
                            Box::new(MpiPacket::CtsOffload {
                                send_req: *send_req,
                                recv_req: id,
                                key: *my_key,
                                scatter: scatter.clone(),
                                total: *total,
                            }),
                        );
                    } else {
                        failed = Some(MpiError::RetriesExhausted {
                            op: "cts_offload",
                            peer: env.src,
                            attempts: t.attempts,
                        });
                    }
                }
            }
        }
        if let Some(e) = failed {
            self.fail_recv(id, e);
            return;
        }
        let Some(st) = self.recvs.get_mut(&id) else {
            return;
        };
        // Device path: the scatter from the shared GPU finished — credit
        // the sender's tbuf and complete.
        if let RecvPhase::DevAbsorb {
            comp,
            env,
            total,
            send_req,
        } = &st.phase
        {
            if !comp.poll() {
                return;
            }
            let (env, total, send_req) = (*env, *total, *send_req);
            st.phase = RecvPhase::Done(RecvStatus {
                src: env.src,
                tag: env.tag,
                bytes: total,
            });
            if self.cfg.fault_drop_dev_credit && !self.dev_credit_dropped {
                // Fault injection: swallow the first CREDIT-dev. The sender
                // never learns its device tbuf is free — a staging leak the
                // sanitizer must flag at exit.
                self.dev_credit_dropped = true;
            } else {
                self.nic
                    .send_ctrl(env.src, Box::new(MpiPacket::CreditDev { send_req }));
            }
            if self.faulty {
                self.matched_rts.remove(&(env.src, send_req));
                self.done_rts.insert((env.src, send_req), ());
            }
            return;
        }
        let RecvPhase::Staged(sr, env) = &mut st.phase else {
            return;
        };
        st.sink.poll();
        // Feed arrived chunks to the sink in order.
        while let Some((&chunk, &(slot, bytes))) = sr.arrived.first_key_value() {
            if chunk != sr.next_chunk {
                break; // hole: a FIN is still missing (or in flight)
            }
            sr.arrived.pop_first();
            st.sink
                .chunk_arrived(chunk, sr.slots[slot].buf.base(), bytes);
            sr.absorbing.push_back((chunk, slot));
            sr.next_chunk += 1;
            // Two gauge updates; the monotonicity invariant tolerates the
            // one-update intermediate state (see `invariants`).
            let scope = invariants::xfer_scope(&self.prefix, sr.src, sr.peer_send_req);
            san::proto_set(&scope, "last_chunk", chunk as i64);
            san::proto_event(&scope, "chunks_absorbed", 1);
            if let Some(t) = &mut sr.timer {
                t.feed();
            }
        }
        // Credit slots whose data the sink has absorbed.
        while let Some(&(chunk, slot)) = sr.absorbing.front() {
            if !st.sink.chunk_absorbed(chunk) {
                break;
            }
            sr.absorbing.pop_front();
            sr.next_credit = chunk + 1;
            self.nic.send_ctrl(
                sr.src,
                Box::new(MpiPacket::Credit {
                    send_req: sr.peer_send_req,
                    slot,
                    chunk_idx: chunk,
                }),
            );
            san::proto_event(
                &invariants::xfer_scope(&self.prefix, sr.src, sr.peer_send_req),
                "credits_sent",
                1,
            );
        }
        if sr.next_chunk == sr.nchunks && st.sink.finished() {
            // Report the end-to-end latency so the adaptive policy can
            // steer the next transfer of this (size, layout) class.
            if let Some(key) = sr.tune_key {
                let settled = self
                    .tuner
                    .observe(key, sr.chunk_size, sim_core::now() - sr.started);
                if let Some(block) = settled {
                    note(
                        &self.counters,
                        &self.trace,
                        settled_counter(key.layout(), block),
                    );
                }
            }
            // Return granted vbufs to the pool.
            for _ in 0..sr.slots.len() {
                san::pool_put(self.recv_pool_id);
            }
            self.recv_pool.append(&mut sr.slots);
            let status = RecvStatus {
                src: env.src,
                tag: env.tag,
                bytes: sr.total,
            };
            let (peer, send_req) = (sr.src, sr.peer_send_req);
            st.phase = RecvPhase::Done(status);
            san::proto_set(
                &invariants::xfer_scope(&self.prefix, peer, send_req),
                "done",
                1,
            );
            if self.faulty {
                self.matched_rts.remove(&(peer, send_req));
                self.done_rts.insert((peer, send_req), ());
                self.completed_recvs.insert(id, (peer, send_req));
            }
            self.grant_deferred_cts();
            return;
        }
        // FIN watchdog (faulty only, armed at the CTS grant): nack the
        // first missing chunk so the sender re-announces its window.
        if sr.cts_sent {
            if let Some(t) = &mut sr.timer {
                if t.expired() {
                    if t.bump(self.cfg.retry.max_retries) {
                        note(&self.counters, &self.trace, "retry.fin_nack");
                        self.nic.send_ctrl(
                            sr.src,
                            Box::new(MpiPacket::FinNack {
                                send_req: sr.peer_send_req,
                                next_needed: sr.next_chunk,
                            }),
                        );
                    } else {
                        failed = Some(MpiError::RetriesExhausted {
                            op: "fin_nack",
                            peer: sr.src,
                            attempts: t.attempts,
                        });
                    }
                }
            }
        }
        if let Some(e) = failed {
            self.fail_recv(id, e);
        }
    }

    // --- completion queries --------------------------------------------------------

    pub fn send_done(&self, id: ReqId) -> bool {
        matches!(
            self.sends[&id].phase,
            SendPhase::Done | SendPhase::Failed(_)
        )
    }

    /// Whether this engine sits on a fault-injecting fabric.
    pub fn is_faulty(&self) -> bool {
        self.faulty
    }

    /// The physical node hosting world rank `rank` (hierarchical
    /// collectives group peers by this).
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        self.nic.node_of(rank)
    }

    /// Number of unreaped requests (sends + receives) this rank holds —
    /// zero once the application has waited on everything it posted.
    pub fn live_requests(&self) -> usize {
        self.sends.len() + self.recvs.len()
    }

    /// The typed error a failed send ended with, if any.
    pub fn send_error(&self, id: ReqId) -> Option<MpiError> {
        match &self.sends[&id].phase {
            SendPhase::Failed(e) => Some(e.clone()),
            _ => None,
        }
    }

    pub fn recv_done(&self, id: ReqId) -> Option<RecvStatus> {
        match self.recvs[&id].phase {
            RecvPhase::Done(status) => Some(status),
            _ => None,
        }
    }

    /// Whether the receive has reached a terminal state (success or typed
    /// failure).
    pub fn recv_finished(&self, id: ReqId) -> bool {
        matches!(
            self.recvs[&id].phase,
            RecvPhase::Done(_) | RecvPhase::Failed(_)
        )
    }

    /// The typed error a failed receive ended with, if any.
    pub fn recv_error(&self, id: ReqId) -> Option<MpiError> {
        match &self.recvs[&id].phase {
            RecvPhase::Failed(e) => Some(e.clone()),
            _ => None,
        }
    }

    pub fn is_send(&self, id: ReqId) -> bool {
        self.sends.contains_key(&id)
    }

    pub fn reap_send(&mut self, id: ReqId) {
        self.sends.remove(&id);
    }

    pub fn reap_recv(&mut self, id: ReqId) {
        self.recvs.remove(&id);
    }

    /// Scan the unexpected queue for a message matching `(src, tag)` on
    /// the world context; returns its envelope info without consuming it.
    pub fn probe_unexpected(&self, src: SrcSel, tag: TagSel, ctx: u16) -> Option<RecvStatus> {
        self.unexpected.iter().find_map(|u| {
            let env = u.env();
            if !env_matches(env, ctx, src, tag) {
                return None;
            }
            let bytes = match u {
                Unexpected::Eager { data, .. } => data.len(),
                Unexpected::Rts { total, .. } => *total,
            };
            Some(RecvStatus {
                src: env.src,
                tag: env.tag,
                bytes,
            })
        })
    }

    /// Earliest *future* instant at which polling could make progress.
    pub fn next_event(&self) -> Option<SimTime> {
        let now = sim_core::now();
        let mut best: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                if t > now {
                    best = Some(match best {
                        None => t,
                        Some(b) => b.min(t),
                    });
                }
            }
        };
        for s in self.sends.values() {
            consider(s.source.next_event());
            match &s.phase {
                SendPhase::WaitCts { timer: Some(t) } => consider(Some(t.deadline)),
                SendPhase::Direct(d) => consider(d.rdma.done_at()),
                SendPhase::Offload(o) => consider(o.rdma.done_at()),
                SendPhase::DevWaitCredit { pack } => consider(pack.done_at()),
                SendPhase::Staged(ss) => {
                    for c in &ss.inflight {
                        consider(c.comp.done_at());
                    }
                    if let Some(t) = &ss.timer {
                        consider(Some(t.deadline));
                    }
                }
                _ => {}
            }
        }
        for r in self.recvs.values() {
            consider(r.sink.next_event());
            match &r.phase {
                RecvPhase::WaitDirect { timer: Some(t), .. } => consider(Some(t.deadline)),
                RecvPhase::WaitOffload { timer: Some(t), .. } => consider(Some(t.deadline)),
                RecvPhase::DevAbsorb { comp, .. } => consider(comp.done_at()),
                RecvPhase::Staged(sr, _) => {
                    if let Some(t) = &sr.timer {
                        consider(Some(t.deadline));
                    }
                }
                _ => {}
            }
        }
        best
    }

    /// Block (in virtual time) until a packet arrives or the next known
    /// event instant passes.
    pub fn idle_block(&self) {
        self.nic.mailbox().wait_nonempty_until(self.next_event());
    }
}
