//! Outside timers on each crate's public functions: the host cost of one
//! call, measured in this process on inputs shaped like the workload's own
//! traffic and filled from the benchmark seed.

use std::hint::black_box;
use std::time::Instant;

use jsplit_dsm::protocol::{Requirement, WVal};
use jsplit_dsm::{diff, LockRequest, Msg, WireState};
use jsplit_mjvm::heap::{Gid, ObjPayload};
use jsplit_mjvm::loader::Image;
use jsplit_mjvm::{cost::JvmProfile, pcode, Program};
use jsplit_net::tcp::{encode_envelope, Envelope, EnvelopeDecoder};
use jsplit_net::{ChannelEndpoint, MsgKind, NodeId};
use jsplit_runtime::NodeSpec;

use crate::report::median;

/// splitmix64: the seeded source of every synthetic value.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Median host nanoseconds per call of `f`: batches sized to about a
/// millisecond each, seven of them after one warm-up batch.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed().as_nanos() >= 1_000_000 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Set-up layers on the workload's program.
pub struct SetupCosts {
    pub rewrite_ms: f64,
    pub load_ms: f64,
    /// One predecode per node of the workload, summed.
    pub predecode_ms: f64,
    pub checks_inserted: u64,
    pub code_growth: f64,
}

pub fn setup_costs(program: &Program, nodes: usize) -> Result<SetupCosts, String> {
    let rw = jsplit_rewriter::rewrite_program(program).map_err(|e| format!("rewrite failed: {e}"))?;
    let image = Image::load(&rw.program).map_err(|e| format!("load failed: {e:?}"))?;
    let model = JvmProfile::SunSim.cost_model();
    let rewrite_ns = ns_per_call(|| {
        black_box(jsplit_rewriter::rewrite_program(black_box(program)).ok());
    });
    let load_ns = ns_per_call(|| {
        black_box(Image::load(black_box(&rw.program)).ok());
    });
    let predecode_ns = ns_per_call(|| {
        black_box(pcode::predecode(black_box(&image), model));
    });
    Ok(SetupCosts {
        rewrite_ms: rewrite_ns / 1e6,
        load_ms: load_ns / 1e6,
        predecode_ms: predecode_ns * nodes as f64 / 1e6,
        checks_inserted: rw.stats.checks_total(),
        code_growth: rw.stats.growth(),
    })
}

/// `diff::compute` + `diff::apply` per changed field, on an `f64` array
/// object with `fields` changed slots out of twice as many (the mean diff
/// size of the workload).
pub fn diff_ns_per_field(fields: usize, rng: &mut Rng) -> f64 {
    let fields = fields.max(1);
    let len = (2 * fields).max(16);
    let twin: Vec<f64> = (0..len).map(|_| rng.next() as f64).collect();
    let mut current = twin.clone();
    let mut changed = 0;
    while changed < fields {
        let i = rng.below(len as u64) as usize;
        if current[i] == twin[i] {
            current[i] = -(rng.next() as f64) - 1.0;
            changed += 1;
        }
    }
    let twin = ObjPayload::ArrF64(twin);
    let current = ObjPayload::ArrF64(current);
    let mut master = twin.clone();
    let ns = ns_per_call(|| {
        let d = diff::compute(black_box(&twin), black_box(&current));
        diff::apply(&mut master, &d.entries);
        black_box(&master);
    });
    ns / fields as f64
}

fn wval(rng: &mut Rng) -> WVal {
    match rng.below(3) {
        0 => WVal::I32(rng.next() as i32),
        1 => WVal::F64(rng.next() as f64),
        _ => WVal::Ref(Gid::new(rng.below(8) as u16, rng.below(1 << 20)), rng.below(64) as u32),
    }
}

/// A message of `kind` with `k` variable-length elements.
fn sample_msg(kind: MsgKind, k: usize, rng: &mut Rng) -> Msg {
    let gid = Gid::new(rng.below(8) as u16, rng.below(1 << 20));
    let thread = rng.below(64) as u32;
    match kind {
        MsgKind::LockReq => Msg::LockReq { lock: gid, node: 1, thread, priority: 5, vc: Vec::new() },
        MsgKind::LockGrant => Msg::LockGrant {
            lock: gid,
            to_thread: thread,
            resume_wait: false,
            saved_count: 1,
            request_q: (0..k / 8)
                .map(|i| LockRequest { node: i as NodeId % 8, thread: i as u32, priority: 5, resume_wait: false, saved_count: 0, vc: Vec::new() })
                .collect(),
            wait_q: Vec::new(),
            notices: (0..k)
                .map(|_| {
                    let req = Requirement { scalar: rng.below(1000) as u32, ..Requirement::default() };
                    (Gid::new(rng.below(8) as u16, rng.below(1 << 20)), req)
                })
                .collect(),
            vc: Vec::new(),
        },
        MsgKind::Diff => Msg::DiffFlush {
            gid,
            entries: (0..k).map(|i| (i as u32 * 2, wval(rng))).collect(),
            node: 1,
            interval: rng.below(1000) as u32,
            want_ack: true,
        },
        MsgKind::DiffAck => Msg::DiffAck { gid, version: rng.below(1000) as u32 },
        MsgKind::Fetch => Msg::Fetch { gid, need: Requirement::default(), node: 1, thread, want_idx: u32::MAX },
        MsgKind::ObjState => Msg::ObjState {
            gid,
            class: 7,
            state: WireState::Fields((0..k).map(|_| wval(rng)).collect()),
            version: rng.below(1000) as u32,
            applied: Vec::new(),
            to_thread: thread,
            offset: 0,
            chunk_info: None,
        },
        MsgKind::Spawn => Msg::SpawnThread {
            thread_gid: gid,
            class: 9,
            state: WireState::Fields((0..k).map(|_| wval(rng)).collect()),
            priority: 5,
        },
        MsgKind::Control => Msg::Println { line: "7".repeat(k), origin: 1 },
    }
}

/// A message of `kind` grown until its encoding reaches `bytes` (the
/// workload's mean size for that kind).
fn sized_msg(kind: MsgKind, bytes: usize, rng: &mut Rng) -> Msg {
    let mut k = 0;
    loop {
        let m = sample_msg(kind, k, rng);
        if m.encode().len() >= bytes || k >= 1 << 16 {
            return m;
        }
        k = (k * 2).max(1);
    }
}

const KINDS: [MsgKind; 8] = [
    MsgKind::LockReq,
    MsgKind::LockGrant,
    MsgKind::Diff,
    MsgKind::DiffAck,
    MsgKind::Fetch,
    MsgKind::ObjState,
    MsgKind::Spawn,
    MsgKind::Control,
];

/// `Msg::encode` and `Msg::decode` host ns per message, averaged over the
/// workload's message mix (`sent` and `bytes` per kind, in `MsgKind`
/// order). Zero when the workload sent nothing.
pub fn codec_ns(sent: &[u64], bytes: &[u64], rng: &mut Rng) -> (f64, f64) {
    let total: u64 = sent.iter().sum();
    let (mut enc, mut dec) = (0.0, 0.0);
    for (i, kind) in KINDS.into_iter().enumerate() {
        let n = sent.get(i).copied().unwrap_or(0);
        if n == 0 {
            continue;
        }
        let mean = bytes.get(i).copied().unwrap_or(0) / n;
        let msg = sized_msg(kind, mean as usize, rng);
        let wire = msg.encode();
        let w = n as f64 / total as f64;
        enc += w * ns_per_call(|| {
            black_box(black_box(&msg).encode());
        });
        dec += w * ns_per_call(|| {
            black_box(Msg::decode(black_box(wire.clone())).ok());
        });
    }
    (enc, dec)
}

/// `tcp::encode_envelope` plus `EnvelopeDecoder` push/next for one data
/// envelope carrying a frame of `frame_bytes`.
pub fn envelope_ns(frame_bytes: usize, rng: &mut Rng) -> f64 {
    let env = Envelope::Data { src: 0, dst: 1, frame: (0..frame_bytes).map(|_| rng.next() as u8).collect() };
    let mut dec = EnvelopeDecoder::new();
    ns_per_call(|| {
        let wire = encode_envelope(black_box(&env));
        dec.push(&wire);
        black_box(dec.next().ok());
    })
}

/// One message through the channel transport: `transmit` on node 0, then
/// `flush`, then `drain_frames` on node 1 — per message, with the
/// workload's mean message size and the messages-per-frame batching the
/// workload achieved.
pub fn channel_ns_per_msg(msg_bytes: usize, per_frame: usize, rng: &mut Rng) -> f64 {
    let link = jsplit_runtime::driver::link_params(NodeSpec { profile: JvmProfile::SunSim });
    let mut eps = ChannelEndpoint::mesh(&[link, link], true);
    let (a, b) = eps.split_at_mut(1);
    let (tx, rx) = (&mut a[0], &mut b[0]);
    let words: Vec<u64> = (0..msg_bytes.div_ceil(8)).map(|_| rng.next()).collect();
    let per_frame = per_frame.max(1);
    let mut now = 0u64;
    let ns = ns_per_call(|| {
        for _ in 0..per_frame {
            now += 1_000_000;
            tx.transmit(now, now, 1, MsgKind::Diff, &mut |w| {
                for x in &words {
                    w.u64(*x);
                }
            });
        }
        tx.flush();
        rx.drain_frames(&mut |_, _, _, _, _, payload| {
            black_box(payload);
        });
    });
    ns / per_frame as f64
}
