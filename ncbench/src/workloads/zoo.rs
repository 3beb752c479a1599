//! `host_zoo`: four ranks on two nodes (`with_ppn(2)`) on `MpiWorld`, no
//! GPU. Host-resident messages of 64 KiB–1 MiB cycle through the
//! `offload_sweep` layouts (contiguous, single-level strided, two-level
//! strided, irregular). Each message goes to the sender's co-located peer
//! (shm) and then to a remote peer (HCA) under `Auto { offload: true }`,
//! one message at a time with a barrier between, and each is verified by
//! repacking the receive buffer.
//!
//! The seed draws each message's size (its base size trimmed by up to
//! 1/32, in 4 KiB steps) and the bytes the buffers carry.

use std::sync::Arc;
use std::time::Instant;

use hostmem::HostBuf;
use mpi_sim::pack::PackCursor;
use mpi_sim::{Datatype, MpiConfig, MpiWorld, SchemeSel};
use sim_core::{ExecMode, SimTime};

use super::{mix, secs, Bench, Ctx, Marks, Round, Shared, Virt};
use crate::clock::CpuInstant;
use crate::trace::{host_layers, recorder_layers};

/// The `offload_sweep` layout zoo.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    Contig,
    Strided1d,
    Strided2d,
    Irregular,
}

pub const LAYOUTS: [Layout; 4] = [
    Layout::Contig,
    Layout::Strided1d,
    Layout::Strided2d,
    Layout::Irregular,
];

/// Base message sizes.
pub const SIZES: [usize; 5] = [64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20];

impl Layout {
    /// `(datatype, count, buffer bytes)` for a `total`-byte payload, exactly
    /// as `offload_sweep` builds them.
    pub fn build(self, total: usize) -> (Datatype, usize, usize) {
        match self {
            Layout::Contig => (Datatype::byte(), total, total),
            // Rows of 64 B every 128 B.
            Layout::Strided1d => {
                let rows = total / 64;
                (
                    Datatype::vector(rows, 16, 32, &Datatype::float()),
                    1,
                    rows * 128,
                )
            }
            // 64 outer groups of 64 B rows every 128 B.
            Layout::Strided2d => {
                let rows = total / (64 * 64);
                let row = Datatype::vector(rows, 16, 32, &Datatype::float());
                let group_stride = (rows * 128 + 256) as isize;
                (
                    Datatype::hvector(64, 1, group_stride, &row),
                    1,
                    64 * group_stride as usize,
                )
            }
            // Alternating 96/160 B blocks every 512 B.
            Layout::Irregular => {
                let blocks: Vec<(usize, isize)> = (0..total / 128)
                    .map(|i| (if i % 2 == 0 { 96 } else { 160 }, (i * 512) as isize))
                    .collect();
                let n = blocks.len();
                (Datatype::hindexed(&blocks, &Datatype::byte()), 1, n * 512)
            }
        }
    }
}

/// One message of the zoo: layout, payload bytes and sending rank.
#[derive(Copy, Clone, Debug)]
pub struct Msg {
    pub layout: Layout,
    pub total: usize,
    pub sender: usize,
}

impl Msg {
    fn coloc(&self) -> usize {
        self.sender ^ 1
    }

    fn remote(&self) -> usize {
        (self.sender + 2) % 4
    }
}

#[derive(Clone)]
pub struct Params {
    pub msgs: Vec<Msg>,
    /// Per message: the sender's buffer and the packed bytes every
    /// receiver must hold after it. Sends only read their buffer, so one
    /// set serves every round.
    images: Arc<Vec<(HostBuf, Vec<u8>)>>,
}

impl Params {
    pub fn from_seed(seed: u64) -> Params {
        let mut msgs = Vec::new();
        for (i, (&base, &layout)) in SIZES
            .iter()
            .flat_map(|s| LAYOUTS.iter().map(move |l| (s, l)))
            .enumerate()
        {
            let steps = (base / 32 / 4096) as u64;
            let trim = (mix(seed, 100 + i as u64) % (steps + 1)) as usize * 4096;
            msgs.push(Msg {
                layout,
                total: base - trim,
                sender: i % 4,
            });
        }
        let images = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let (dt, count, len) = m.layout.build(m.total);
                dt.commit();
                let salt = mix(seed, 1000 + i as u64);
                let bytes: Vec<u8> = (0..len)
                    .map(|b| (b as u64).wrapping_mul(salt | 1).wrapping_shr(13) as u8)
                    .collect();
                let buf = HostBuf::from_vec(bytes);
                let packed = dt.pack(&buf.base(), count);
                assert_eq!(packed.len(), m.total, "layout payload");
                (buf, packed)
            })
            .collect();
        Params {
            msgs,
            images: Arc::new(images),
        }
    }

    fn config() -> MpiConfig {
        MpiConfig {
            scheme: SchemeSel::Auto { offload: true },
            ..MpiConfig::default()
        }
    }
}

#[derive(Default)]
struct State {
    marks: Marks,
    host_start: Vec<Option<CpuInstant>>,
    host_end: Vec<Option<CpuInstant>>,
    lat_ns: Vec<u64>,
    windows: Vec<(SimTime, SimTime)>,
    failed: u64,
}

impl Bench for Params {
    fn ops(&self) -> u64 {
        2 * self.msgs.len() as u64
    }

    fn ranks(&self) -> usize {
        4
    }

    fn probe_type(&self) -> (Datatype, usize) {
        let (dt, count, _) = Layout::Irregular.build(1 << 20);
        dt.commit();
        (dt, count)
    }

    fn required_lanes(&self) -> &'static [&'static str] {
        &["stage/rdma", "hca/hca_tx", "hca/offload", "shm/shm"]
    }

    fn round(&self, ctx: &Ctx) -> Round {
        let ops = self.ops() as usize;
        let st = Shared::<State>::default();
        {
            let mut s = st.lock();
            s.host_start = vec![None; ops];
            s.host_end = vec![None; ops];
        }
        let p = self.clone();
        let spans = ctx.spans.clone();
        let launch = Instant::now();
        let launch_cpu = CpuInstant::now();
        let root = spans.open_at(launch);
        let state = st.clone();
        // `with_config` replaces the whole config, `ppn` included: set it
        // first.
        let end_virt = MpiWorld::new(4)
            .with_config(Params::config())
            .with_ppn(2)
            .with_exec(ExecMode::Event)
            .with_recorder(ctx.rec.clone())
            .run(move |comm| {
                let me = comm.rank();
                let rank = me as i64;
                spans.close(
                    spans.open_at(launch),
                    "launch",
                    "sim_core",
                    rank,
                    0,
                    root.id(),
                );
                let types: Vec<(Datatype, usize, usize)> =
                    spans.time("commit", "mpi_sim", rank, 0, root.id(), || {
                        p.msgs
                            .iter()
                            .map(|m| {
                                let t = m.layout.build(m.total);
                                t.0.commit();
                                t
                            })
                            .collect()
                    });
                let mut repacked = vec![0u8; SIZES[SIZES.len() - 1]];
                // Warm-up: every rank joins one barrier, so set-up ends with
                // the whole job launched and its types committed.
                spans.time("barrier", "mpi_sim", rank, 0, root.id(), || comm.barrier());
                state.lock().marks.ready.push(CpuInstant::now());
                for (i, m) in p.msgs.iter().enumerate() {
                    let (dt, count, len) = &types[i];
                    for (j, dst) in [m.coloc(), m.remote()].into_iter().enumerate() {
                        let k = 2 * i + j;
                        let op = k as u64 + 1;
                        spans.time("barrier", "mpi_sim", rank, op, root.id(), || comm.barrier());
                        let t0 = sim_core::now();
                        let h0 = CpuInstant::now();
                        if me == m.sender || me == dst {
                            let mut s = state.lock();
                            let slot = &mut s.host_start[k];
                            *slot = Some(slot.map_or(h0, |t| t.min(h0)));
                        }
                        if me == m.sender {
                            let buf = &p.images[i].0;
                            spans.time("send", "mpi_sim", rank, op, root.id(), || {
                                comm.send(buf.base(), *count, dt, dst, k as u32)
                            });
                        } else if me == dst {
                            let buf = HostBuf::alloc(*len);
                            spans.time("recv", "mpi_sim", rank, op, root.id(), || {
                                comm.recv(buf.base(), *count, dt, m.sender, k as u32)
                            });
                            let t1 = sim_core::now();
                            let ok = spans.time("verify", "bench", rank, op, root.id(), || {
                                let out = &mut repacked[..m.total];
                                PackCursor::from_plan(buf.base(), dt.plan(*count)).pack_into(out);
                                *out == p.images[i].1[..]
                            });
                            let mut s = state.lock();
                            s.host_end[k] = Some(CpuInstant::now());
                            s.lat_ns.push((t1 - t0).as_nanos());
                            s.windows.push((t0, t1));
                            s.failed += u64::from(!ok);
                        }
                    }
                }
                state.lock().marks.exited.push(CpuInstant::now());
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
            failed: s.failed + (ops - s.lat_ns.len()) as u64,
            ..Round::default()
        };
        if ctx.is_traced() {
            r.layers = recorder_layers(&ctx.rec, &s.windows, &Default::default());
            let sp = ctx.spans.snapshot();
            r.layers.insert("mpi_sim.finalize_s".into(), finalize_s);
            r.layers.extend(host_layers(&sp));
        }
        r
    }
}
