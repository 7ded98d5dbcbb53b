//! Cross-backend differential tests: the multi-threaded driver must be
//! observationally equivalent to the reference virtual-time simulator.
//!
//! The threads backend runs each node on its own OS thread and moves every
//! protocol message as *encoded bytes* across a channel, synchronized by
//! conservative virtual-time windows (single-barrier epoch rounds). If its
//! windowing, framing, message merge
//! order, uid allocation, or load-balance placement diverged from the sim
//! driver in any observable way, these tests catch it: program stdout,
//! virtual execution time, instruction counts, per-node DSM protocol
//! counters, and per-node network message/byte totals must all match
//! exactly — on all three paper applications plus a write-heavy
//! microbenchmark, across cluster sizes, in both protocol modes. (Host
//! wall-clock and the sync counters are the fields allowed to differ —
//! they describe *how* the parallel run was orchestrated, which is the
//! point of the backend.)

use jsplit_dsm::ProtocolMode;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, RunReport};

fn apps() -> Vec<(&'static str, Program)> {
    use jsplit_apps::{raytracer, series, tsp};
    vec![
        ("tsp", tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })),
        ("series", series::program(series::SeriesParams { n: 16, intervals: 40, threads: 8 })),
        ("raytracer", raytracer::program(raytracer::RayParams { size: 16, grid: 2, threads: 8 })),
    ]
}

fn run(backend: Backend, proto: ProtocolMode, nodes: usize, p: &Program) -> RunReport {
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, nodes).with_protocol(proto).with_backend(backend);
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

/// Everything observable about a run except host wall-clock, the
/// event-slab high-water mark, and the sync counters — those measure
/// driver internals, and the two drivers legitimately differ there.
fn assert_reports_match(ctx: &str, sim: &RunReport, thr: &RunReport) {
    assert_eq!(sim.output, thr.output, "{ctx}: stdout diverged");
    assert_eq!(sim.exec_time_ps, thr.exec_time_ps, "{ctx}: virtual time diverged");
    assert_eq!(sim.setup_ps, thr.setup_ps, "{ctx}: setup time diverged");
    assert_eq!(sim.ops, thr.ops, "{ctx}: total ops diverged");
    assert_eq!(sim.ops_per_node, thr.ops_per_node, "{ctx}: per-node ops diverged");
    assert_eq!(sim.threads, thr.threads, "{ctx}: thread count diverged");
    assert_eq!(sim.class_bytes, thr.class_bytes, "{ctx}: shipped class bytes diverged");
    assert_eq!(sim.dsm_per_node, thr.dsm_per_node, "{ctx}: per-node DSM stats diverged");
    assert_eq!(sim.net_per_node, thr.net_per_node, "{ctx}: per-node net stats diverged");
}

#[test]
fn threads_backend_matches_sim_on_all_apps_both_protocols() {
    for (app, p) in &apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let sim = run(Backend::Sim, proto, 4, p);
            let thr = run(Backend::Threads, proto, 4, p);
            assert_reports_match(&format!("{app} ({proto:?})"), &sim, &thr);
        }
    }
}

/// Cluster sizes below and above the app's thread count (16 nodes for 8
/// app threads leaves some nodes nearly idle — the regime per-pair
/// lookahead exists for).
#[test]
fn threads_backend_matches_sim_across_node_counts() {
    for (app, p) in &apps() {
        for nodes in [2usize, 4, 8, 16] {
            let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, nodes, p);
            let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, nodes, p);
            assert_reports_match(&format!("{app} @ {nodes} nodes"), &sim, &thr);
        }
    }
}

/// A write-heavy array microbenchmark (block-striped writers) — a very
/// different protocol mix from the paper apps: dominated by diffs and
/// array-region traffic.
#[test]
fn threads_backend_matches_sim_on_micro_kernel() {
    let p = jsplit_apps::micro::block_array_kernel(64, 8);
    for nodes in [4usize, 16] {
        let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, nodes, &p);
        let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, nodes, &p);
        assert_reports_match(&format!("micro @ {nodes} nodes"), &sim, &thr);
    }
}

/// The conservative-window merge must make the threads backend
/// deterministic on its own terms: five runs of the same program produce
/// identical stdout and protocol counters, regardless of OS scheduling.
#[test]
fn threads_backend_is_deterministic_repeated() {
    let (_, p) = apps().swap_remove(0);
    let first = run(Backend::Threads, ProtocolMode::MtsHlrc, 8, &p);
    for i in 1..5 {
        let r = run(Backend::Threads, ProtocolMode::MtsHlrc, 8, &p);
        assert_eq!(first.output, r.output, "run {i}: stdout diverged");
        assert_eq!(first.exec_time_ps, r.exec_time_ps, "run {i}: virtual time diverged");
        assert_eq!(first.ops_per_node, r.ops_per_node, "run {i}: per-node ops diverged");
        assert_eq!(first.net_per_node, r.net_per_node, "run {i}: net stats diverged");
        assert_eq!(first.dsm_per_node, r.dsm_per_node, "run {i}: DSM stats diverged");
    }
}

/// Degenerate topology: a cluster with far more nodes than application
/// threads leaves some nodes permanently silent (they publish `next = ∞`
/// every round). Silent nodes must not stall the cluster — the run
/// completes and still matches the sim — and the per-pair horizon must not
/// let them *unboundedly widen* anyone's window either (the self-echo
/// term; a violation shows up here as diverged counters or a deadlock).
#[test]
fn silent_nodes_neither_stall_nor_corrupt_the_cluster() {
    use jsplit_apps::tsp;
    let p = tsp::program(tsp::TspParams { n: 7, seed: 42, depth: 2, threads: 2 });
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 8, &p);
    let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, 8, &p);
    assert_reports_match("tsp-silent", &sim, &thr);
    // The premise holds: some node really did stay silent (no DSM or
    // spawn traffic beyond the class shipment it was sent).
    let quiet = thr.net_per_node.iter().skip(1).any(|n| n.msgs_sent == 0);
    assert!(quiet, "expected at least one silent worker in an 8-node run of 2 threads");
}

/// Single-node threads runs take the horizon=∞ fast path (no windowing);
/// they must still match the sim driver exactly.
#[test]
fn threads_backend_matches_sim_single_node() {
    let (_, p) = apps().swap_remove(0);
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 1, &p);
    let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, 1, &p);
    assert_reports_match("tsp-1node", &sim, &thr);
}

/// The threads backend reports its orchestration counters: windows ran,
/// one barrier wait per node per window, and fewer frames than messages.
#[test]
fn sync_counters_are_populated() {
    let (_, p) = apps().swap_remove(0);
    let nodes = 4u64;
    let r = run(Backend::Threads, ProtocolMode::MtsHlrc, nodes as usize, &p);
    let s = r.sync;
    assert!(s.windows > 0, "no windows counted");
    // One Barrier::wait per node per round; rounds = windows + the final
    // decision round(s) that break without processing a window.
    assert!(s.barrier_waits >= nodes * s.windows, "barrier_waits {} < n*windows {}", s.barrier_waits, nodes * s.windows);
    assert!(s.msgs_framed > 0, "no messages framed");
    assert!(s.frames_sent <= s.msgs_framed, "more frames than messages");
    assert!(s.msgs_batched() > 0, "batching saved no channel crossings on tsp");
    assert!(s.bytes_per_frame_avg() > 0.0);
    // Sim runs report zeroed sync counters.
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 4, &p);
    assert_eq!(sim.sync, jsplit_runtime::SyncStats::default());
}

/// Tracing on the threads backend: each node records into a private sink
/// and the driver canonicalizes the merged stream — the result must be
/// *byte-identical* to the sim backend's canonical trace of the same
/// program, on all three paper apps, down to the Chrome export text. The
/// derived analyses (stall breakdown, lock contention) then agree for free.
#[test]
fn threads_trace_is_byte_identical_to_sim_on_all_apps() {
    for (app, p) in &apps() {
        let cfg = |b| {
            ClusterConfig::javasplit(JvmProfile::SunSim, 4)
                .with_backend(b)
                .with_trace(jsplit_trace::TraceMode::Full)
        };
        let sim = run_cluster(cfg(Backend::Sim), p).expect("sim setup");
        let thr = run_cluster(cfg(Backend::Threads), p).expect("threads setup");
        sim.expect_clean();
        thr.expect_clean();
        let se = sim.trace.as_ref().expect("sim trace");
        let te = thr.trace.as_ref().expect("threads trace");
        if se != te {
            let i = se
                .iter()
                .zip(te.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(se.len().min(te.len()));
            panic!(
                "{app}: traces diverge at event {i} of {}/{}: sim {:?} vs threads {:?}",
                se.len(),
                te.len(),
                se.get(i),
                te.get(i)
            );
        }
        assert_eq!(
            jsplit_trace::chrome_trace(se),
            jsplit_trace::chrome_trace(te),
            "{app}: chrome export text diverged"
        );
        assert_eq!(sim.breakdown, thr.breakdown, "{app}: derived breakdown diverged");
        assert_eq!(sim.lock_stats, thr.lock_stats, "{app}: derived lock stats diverged");
        // Tracing implies profiling on the threads backend, with raw spans
        // kept for the Chrome real-time lanes; the sim has no wall profile.
        assert!(sim.wall.is_none(), "{app}: sim must not report a wall profile");
        let wall = thr.wall.as_ref().expect("traced threads run must carry a wall profile");
        assert!(wall.nodes.iter().any(|n| !n.spans.is_empty()), "{app}: no raw spans kept");
    }
}

/// A traced threads run must still be observationally identical to an
/// untraced one — tracing is pure observation.
#[test]
fn threads_tracing_does_not_perturb_the_run() {
    let (_, p) = apps().swap_remove(0);
    let plain = run(Backend::Threads, ProtocolMode::MtsHlrc, 4, &p);
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
        .with_backend(Backend::Threads)
        .with_trace(jsplit_trace::TraceMode::Full);
    let traced = run_cluster(cfg, &p).expect("cluster setup");
    traced.expect_clean();
    assert_reports_match("tsp traced-vs-plain", &plain, &traced);
    assert_eq!(plain.sync, traced.sync, "sync counters perturbed by tracing");
}

/// The wall profile's seven categories are boundary-chained, so per node
/// they must tile the thread's independently measured wall time: the sum
/// can only fall short (by the head/tail outside the epoch loop) and by no
/// more than 1% plus a small absolute allowance for very short runs.
#[test]
fn wall_profile_categories_tile_thread_wall_time() {
    use jsplit_trace::SpanKind;
    let (_, p) = apps().swap_remove(0);
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
        .with_backend(Backend::Threads)
        .with_profile(true);
    let r = run_cluster(cfg, &p).expect("cluster setup");
    r.expect_clean();
    let wall = r.wall.as_ref().expect("profile requested");
    assert_eq!(wall.nodes.len(), 4, "one profile per node");
    for n in &wall.nodes {
        let acc = n.accounted_ns();
        assert!(acc <= n.wall_ns, "node {}: accounted {acc} ns exceeds wall {} ns", n.node, n.wall_ns);
        let gap = n.wall_ns - acc;
        assert!(
            gap <= n.wall_ns / 100 + 500_000,
            "node {}: unaccounted gap {gap} ns of wall {} ns (> 1% + 0.5 ms)",
            n.node,
            n.wall_ns
        );
        // Every round crosses the barrier and decides; the per-kind stats
        // and the virtual window histogram must be populated.
        assert!(n.stats_of(SpanKind::BarrierWait).count > 0, "node {}: no barrier spans", n.node);
        assert!(n.stats_of(SpanKind::Decide).count > 0, "node {}: no decide spans", n.node);
        assert!(n.window_ps.count() > 0, "node {}: empty window histogram", n.node);
        // Profiling without a trace keeps aggregates only, never raw spans.
        assert!(n.spans.is_empty(), "node {}: raw spans kept without a trace", n.node);
        assert_eq!(n.spans_dropped, 0);
    }
    assert!(
        wall.nodes.iter().any(|n| n.frame_bytes.count() > 0),
        "no node recorded shipped frame sizes"
    );
    assert!(wall.dominant_stall().is_some(), "a 4-node run must have some stall time");
    // The profile is observational: the run still matches the sim.
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 4, &p);
    assert_reports_match("tsp profiled-vs-sim", &sim, &r);
    // The sim backend ignores the profile flag (its wall time is the
    // simulator's, not the guest's).
    assert!(sim.wall.is_none());
}

/// The skewed kernel: 16 nodes, one ~12x-slower straggler that paces
/// every epoch round. The round structure must not change any result.
#[test]
fn threads_backend_matches_sim_on_the_skewed_kernel() {
    let p = jsplit_apps::micro::skewed_block_array_kernel(1600, 16, 400);
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 16, &p);
    let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, 16, &p);
    assert_reports_match("skew @ 16 nodes", &sim, &thr);
}

/// The threads driver cannot honour mid-run joins; they must be rejected
/// up front as a configuration error — the right variant with an accurate
/// message, not silently ignored (tracing, once also rejected here, is now
/// supported and covered by the differential trace tests).
#[test]
fn threads_backend_rejects_mid_run_joins() {
    use jsplit_runtime::NodeSpec;
    let (_, p) = apps().swap_remove(0);

    let joins = ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_backend(Backend::Threads)
        .with_joins(vec![(1_000_000, NodeSpec::sun())]);
    match run_cluster(joins, &p) {
        Err(jsplit_runtime::ClusterError::Config(msg)) => {
            assert!(msg.contains("mid-run joins"), "unhelpful rejection message: {msg}");
            assert!(msg.contains("sim backend"), "message should point at the supported backend: {msg}");
        }
        Err(other) => panic!("expected ClusterError::Config, got {other:?}"),
        Ok(_) => panic!("mid-run joins must be rejected"),
    }
}

/// The opstats counters have no berth in the threads report: asking for
/// them must fail up front, not run and come back with `opstats: None`.
#[test]
fn threads_backend_rejects_opstats() {
    let (_, p) = apps().swap_remove(0);
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_backend(Backend::Threads).with_opstats(true);
    match run_cluster(cfg, &p) {
        Err(jsplit_runtime::ClusterError::Config(msg)) => {
            assert!(msg.contains("opstats"), "unhelpful rejection message: {msg}");
            assert!(msg.contains("sim backend"), "message should point at the supported backend: {msg}");
        }
        Err(other) => panic!("expected ClusterError::Config, got {other:?}"),
        Ok(_) => panic!("opstats on the threads backend must be rejected"),
    }
}
