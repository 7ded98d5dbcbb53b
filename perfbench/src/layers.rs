//! `--trace 1`: the per-layer ledger.
//!
//! The traced run alternates untraced and traced runs of the workload (A B
//! A B ...) so `trace.overhead_frac` compares like with like, reads every
//! counter the runtime's `RunReport` exposes, and times each crate's public
//! functions from outside (see `probes`). "Traced" turns on the trace
//! crate's event tracer and, on threads, the span profiler. The sockets
//! backend rejects both, so on the sockets workload the A/B pair and the
//! span shares come from the same program on the threads backend with the
//! same node count (one shared sync engine), labelled so in the record,
//! while its counters come from plain sockets runs made in the same loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use jsplit_runtime::Backend;

use crate::child::{Report, RunSpec};
use crate::probes::{self, Rng};
use crate::report::{median, ratio, Metrics, PER_LAYER};
use crate::workloads::{App, Input, Scale};
use crate::Bench;

/// Shares of `--seconds`, counted from the start, by which the A/B loop
/// and then the 1-node/baseline pairs stop starting new runs (each runs at
/// least once); cold starts and probes take the few seconds after.
const AB_UNTIL: f64 = 0.6;
const ONE_NODE_UNTIL: f64 = 0.85;
/// Sockets cold starts timed per traced run.
const COLD_STARTS: usize = 5;

pub fn traced(b: &mut Bench) -> Metrics {
    let mut m = Metrics::new(&PER_LAYER);
    let w = b.workload;
    let plain = RunSpec::of(w, b.input);
    let on_sockets = w.backend == Backend::Sockets;
    let untraced = if on_sockets { RunSpec { backend: Backend::Threads, ..plain } } else { plain };
    let traced = RunSpec { traced: true, ..untraced };
    if on_sockets {
        b.note("trace_and_span_shares_from", "threads");
    }

    let start = Instant::now();
    let (mut own, mut untraced_walls, mut traced_runs) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        if on_sockets {
            own.extend(b.measure(&plain, true));
        }
        if let Some(r) = b.measure(&untraced, true) {
            untraced_walls.push(r.f64("wall_s"));
            if !on_sockets {
                own.push(r);
            }
        }
        traced_runs.extend(b.measure(&traced, true));
        if start.elapsed() >= Duration::from_secs_f64(b.seconds * AB_UNTIL) {
            break;
        }
    }
    let traced_walls: Vec<f64> = traced_runs.iter().map(|r| r.f64("wall_s")).collect();
    m.set("trace.overhead_frac", ratio(median(&traced_walls), median(&untraced_walls)) - 1.0);
    b.walls = own.iter().map(|r| r.f64("wall_s")).collect();
    let Some(first) = own.first().cloned() else { return m };
    counters(&mut m, &first, median(&b.walls));
    span_shares(&mut m, &traced_runs);

    one_node_costs(b, &mut m, start + Duration::from_secs_f64(b.seconds * ONE_NODE_UNTIL));

    if on_sockets {
        // Spawn, handshake and teardown: a trivial program, whatever the
        // workload's app, on the workload's backend and node count.
        let cold = RunSpec { input: Input { app: App::Series, scale: Scale::Trivial }, ..plain };
        let walls: Vec<f64> = (0..COLD_STARTS).filter_map(|_| crate::child::run(&cold).ok()).map(|r| r.f64("wall_s")).collect();
        if walls.len() < COLD_STARTS {
            b.fail(format!("{} of {COLD_STARTS} sockets cold starts failed", COLD_STARTS - walls.len()));
        }
        m.set("runtime.sockets_cold_start_ms", median(&walls) * 1e3);
    }

    let probed = catch_unwind(AssertUnwindSafe(|| probe_layers(b, &mut m, &first)));
    match probed {
        Ok(Ok(())) => {}
        Ok(Err(e)) => b.fail(format!("layer probe failed: {e}")),
        Err(_) => b.fail("layer probe panicked".into()),
    }
    m
}

/// Deterministic counters of one run of the workload, plus per-window cost.
fn counters(m: &mut Metrics, r: &Report, wall_s: f64) {
    m.set("mjvm.ops", r.u64("ops") as f64);
    for k in [
        "fetches",
        "diffs_sent",
        "diff_fields",
        "shared_acquires_remote",
        "grants_sent",
        "invalidations",
        "releases_awaiting_acks",
    ] {
        m.set(&format!("dsm.{k}"), r.u64(&format!("dsm.{k}")) as f64);
    }
    let acquires = ["local_acquires", "shared_acquires_local", "shared_acquires_remote"]
        .iter()
        .map(|k| r.u64(&format!("dsm.{k}")) as f64)
        .sum();
    m.set("dsm.remote_acquire_frac", ratio(r.u64("dsm.shared_acquires_remote") as f64, acquires));
    let frames = r.u64("sync.frames_sent") as f64;
    m.set("net.frames", frames);
    m.set("net.msgs_per_frame", ratio(r.u64("sync.msgs_framed") as f64, frames));
    m.set("net.frame_bytes_avg", ratio(r.u64("sync.frame_bytes") as f64, frames));
    let windows = r.u64("sync.windows") as f64;
    m.set("runtime.windows", windows);
    m.set("runtime.barrier_waits", r.u64("sync.barrier_waits") as f64);
    m.set("runtime.us_per_window", ratio(wall_s * 1e6, windows));
    m.set("runtime.event_slab_high_water", r.u64("slab_hw") as f64);
}

/// Span kinds whose share of the profiled wall time is reported (the
/// epoch protocol's; `horizon_wait` only occurs under async sync).
const SPANS: [&str; 7] = ["execute", "barrier_wait", "slot_spin", "condvar_wait", "decide", "inbox_drain", "frame_flush"];

/// Median share of the profiled wall time per span kind.
fn span_shares(m: &mut Metrics, runs: &[Report]) {
    for label in SPANS {
        let shares: Vec<f64> = runs.iter().map(|r| ratio(r.f64(&format!("span.{label}")), r.f64("span.accounted"))).collect();
        m.set(&format!("runtime.{label}_frac"), median(&shares));
    }
}

/// The instrumentation cost: the rewritten program on one simulated node
/// against the original on the baseline VM, in pairs until `until`.
fn one_node_costs(b: &mut Bench, m: &mut Metrics, until: Instant) {
    let one = RunSpec { backend: Backend::Sim, nodes: 1, baseline: false, traced: false, setup: false, input: b.input };
    let base = RunSpec { baseline: true, ..one };
    let (mut one_walls, mut base_walls, mut ns_per_op) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        if let Some(r) = b.measure(&one, false) {
            one_walls.push(r.f64("wall_s"));
            ns_per_op.push(ratio(r.f64("wall_s") * 1e9, r.u64("ops") as f64));
        }
        if let Some(r) = b.measure(&base, false) {
            base_walls.push(r.f64("wall_s"));
        }
        if Instant::now() >= until {
            break;
        }
    }
    m.set("rewriter.slowdown_1node", ratio(median(&one_walls), median(&base_walls)));
    m.set("mjvm.ns_per_op_1node", median(&ns_per_op));
}

/// Outside timers on the rewriter, loader, predecoder, diff, codec,
/// envelope and channel functions, shaped by the workload's traffic.
fn probe_layers(b: &Bench, m: &mut Metrics, r: &Report) -> Result<(), String> {
    let mut rng = Rng::new(b.seed);
    let w = b.workload;
    let program = b.input.program();
    let s = probes::setup_costs(&program, w.nodes)?;
    m.set("rewriter.rewrite_ms", s.rewrite_ms);
    m.set("rewriter.checks_inserted", s.checks_inserted as f64);
    m.set("rewriter.code_growth", s.code_growth);
    m.set("mjvm.load_ms", s.load_ms);
    m.set("mjvm.predecode_ms", s.predecode_ms);

    let diffs = r.u64("dsm.diffs_sent");
    if diffs > 0 {
        let fields = (r.u64("dsm.diff_fields") as f64 / diffs as f64).round() as usize;
        m.set("dsm.diff_ns_per_field", probes::diff_ns_per_field(fields, &mut rng));
    }
    let (enc, dec) = probes::codec_ns(&r.list::<u64>("sent_by_kind"), &r.list::<u64>("bytes_by_kind"), &mut rng);
    m.set("dsm.msg_encode_ns", enc);
    m.set("dsm.msg_decode_ns", dec);

    let frames = r.u64("sync.frames_sent");
    if frames > 0 {
        let per_frame = m.get("net.msgs_per_frame").round() as usize;
        let msg_bytes = (r.u64("bytes") / r.u64("msgs").max(1)) as usize;
        m.set("net.channel_ns_per_msg", probes::channel_ns_per_msg(msg_bytes, per_frame, &mut rng));
        if w.backend == Backend::Sockets {
            let frame_bytes = m.get("net.frame_bytes_avg").round() as usize;
            m.set("net.envelope_ns", probes::envelope_ns(frame_bytes, &mut rng));
        }
    }
    Ok(())
}
