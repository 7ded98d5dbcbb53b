//! Per-object DSM sharing profiler integration tests.
//!
//! The profiler follows the trace layer's discipline, and these tests pin
//! the three properties that make it trustworthy:
//!
//! * **Bit-identical off→on.** Enabling `objprof` must not perturb the
//!   execution: program output, virtual time, ops, and every per-node DSM
//!   and network counter are identical with the profiler on and off, on
//!   every backend and both DSM protocols.
//! * **Deterministic report.** The merged [`ObjProfReport`] is a pure
//!   function of the virtual-time execution, so it is identical
//!   run-to-run *and* across the sim / threads / sockets backends — the
//!   sockets path additionally round-trips each worker's profile through
//!   the wire codec.
//! * **Reconciles with `DsmStats`.** Per-object sums plus the
//!   unattributed bucket equal the aggregate totals exactly, for every
//!   mapped event kind.
//!
//! The worker-fault test exercises the sockets backend's panic path: a
//! worker that dies mid-run must surface its real panic message through a
//! `Fault` envelope, not a bare "connection reset" at the coordinator.

use std::sync::Mutex;

use jsplit_dsm::{DsmStats, ProtocolMode};
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::config::SocketsConfig;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, ClusterError, RunReport};
use jsplit_trace::{ObjProfReport, STATS_MAPPED};

fn tsp() -> Program {
    jsplit_apps::tsp::program(jsplit_apps::tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })
}

fn raytracer() -> Program {
    jsplit_apps::raytracer::program(jsplit_apps::raytracer::RayParams {
        size: 16,
        grid: 2,
        threads: 8,
    })
}

/// The spawned worker binary (the test harness's own `current_exe` is the
/// test runner, not a worker).
fn sockets_config() -> SocketsConfig {
    SocketsConfig {
        worker_bin: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_jsplit"))),
        ..SocketsConfig::default()
    }
}

/// Serializes sockets-spawning tests against the `JSPLIT_TEST_WORKER_PANIC`
/// environment variable: spawned workers inherit the environment, so a
/// concurrently-running fault-injection test would kill them.
static WORKER_ENV: Mutex<()> = Mutex::new(());

fn cfg(backend: Backend, proto: ProtocolMode, objprof: bool) -> ClusterConfig {
    let mut c = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
        .with_backend(backend)
        .with_protocol(proto)
        .with_objprof(objprof);
    if backend == Backend::Sockets {
        c = c.with_sockets(sockets_config());
    }
    c
}

fn run(cfg: ClusterConfig, p: &Program) -> RunReport {
    let lock = WORKER_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let r = run_cluster(cfg, p).expect("cluster setup");
    drop(lock);
    r.expect_clean();
    r
}

fn assert_observation_equal(ctx: &str, a: &RunReport, b: &RunReport) {
    assert_eq!(a.output, b.output, "{ctx}: stdout diverged");
    assert_eq!(a.exec_time_ps, b.exec_time_ps, "{ctx}: virtual time diverged");
    assert_eq!(a.ops, b.ops, "{ctx}: total ops diverged");
    assert_eq!(a.ops_per_node, b.ops_per_node, "{ctx}: per-node ops diverged");
    assert_eq!(a.dsm_per_node, b.dsm_per_node, "{ctx}: per-node DSM stats diverged");
    assert_eq!(a.net_per_node, b.net_per_node, "{ctx}: per-node net stats diverged");
}

/// Profiling is observation-free: the full backend × protocol matrix runs
/// bit-identically with the profiler on and off.
#[test]
fn objprof_off_vs_on_is_bit_identical_across_backends() {
    let p = tsp();
    for backend in [Backend::Sim, Backend::Threads, Backend::Sockets] {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let ctx = format!("{backend:?}/{proto:?}");
            let bare = run(cfg(backend, proto, false), &p);
            let profiled = run(cfg(backend, proto, true), &p);
            assert_observation_equal(&ctx, &bare, &profiled);
            assert!(bare.objprof.is_none(), "{ctx}: bare run must not carry a profile");
            let rep = profiled.objprof.as_ref().expect("profiled run carries a report");
            assert!(!rep.objects.is_empty(), "{ctx}: TSP shares objects; report cannot be empty");
        }
    }
}

/// The merged report is deterministic run-to-run and identical across all
/// three backends (the sockets path round-trips worker profiles through
/// the wire codec; any loss or reordering would show here).
#[test]
fn objprof_report_identical_across_runs_and_backends() {
    let p = tsp();
    let reference = run(cfg(Backend::Sim, ProtocolMode::MtsHlrc, true), &p)
        .objprof
        .expect("sim report");
    let again = run(cfg(Backend::Sim, ProtocolMode::MtsHlrc, true), &p)
        .objprof
        .expect("sim report");
    assert_eq!(reference, again, "sim report not reproducible run-to-run");
    for backend in [Backend::Threads, Backend::Sockets] {
        let rep = run(cfg(backend, ProtocolMode::MtsHlrc, true), &p)
            .objprof
            .expect("live report");
        assert_eq!(reference, rep, "{backend:?} report diverged from sim");
    }
}

/// The `DsmStats` field named by a [`STATS_MAPPED`] entry.
fn stat_field(s: &DsmStats, name: &str) -> u64 {
    match name {
        "fetches" => s.fetches,
        "fetches_delayed_at_home" => s.fetches_delayed_at_home,
        "diffs_sent" => s.diffs_sent,
        "diffs_applied" => s.diffs_applied,
        "invalidations" => s.invalidations,
        "shared_acquires_local" => s.shared_acquires_local,
        "shared_acquires_remote" => s.shared_acquires_remote,
        "grants_sent" => s.grants_sent,
        "waits" => s.waits,
        "notifies" => s.notifies,
        "promotions" => s.promotions,
        other => panic!("STATS_MAPPED names unknown DsmStats field {other:?}"),
    }
}

fn assert_reconciles(ctx: &str, rep: &ObjProfReport, total: &DsmStats) {
    for (ev, field) in STATS_MAPPED {
        let per_obj: u64 = rep.objects.iter().map(|o| o.total[ev.index()]).sum();
        assert_eq!(
            per_obj + rep.unattributed[ev.index()],
            stat_field(total, field),
            "{ctx}: per-object {} sums do not reconcile with DsmStats.{field}",
            ev.name(),
        );
    }
}

/// Per-object sums + unattributed == aggregate totals, exactly, for every
/// mapped event kind — on both protocols, and on the raytracer too (its
/// chunked scene arrays exercise the region→base gid folding).
#[test]
fn objprof_reconciles_with_dsm_totals() {
    for (app, p) in [("tsp", tsp()), ("raytracer", raytracer())] {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let r = run(cfg(Backend::Sim, proto, true), &p);
            let rep = r.objprof.as_ref().expect("report");
            assert_reconciles(&format!("{app}/{proto:?}"), rep, &r.dsm_total());
        }
    }
}

/// A worker that panics mid-run must not look like a silent disconnect:
/// the coordinator's error carries the worker's id and its real panic
/// message, relayed through the `Fault` envelope.
#[test]
fn worker_panic_message_reaches_the_coordinator() {
    let p = tsp();
    let lock = WORKER_ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("JSPLIT_TEST_WORKER_PANIC", "2");
    let result = run_cluster(
        ClusterConfig::javasplit(JvmProfile::SunSim, 4)
            .with_backend(Backend::Sockets)
            .with_sockets(sockets_config()),
        &p,
    );
    std::env::remove_var("JSPLIT_TEST_WORKER_PANIC");
    drop(lock);
    let err = result.expect_err("a dead worker must fail the run");
    let ClusterError::Config(msg) = err else { panic!("expected Config error") };
    assert!(msg.contains("worker 2 panicked"), "error must blame the worker: {msg}");
    assert!(
        msg.contains("injected test panic in worker 2"),
        "error must carry the real panic message: {msg}"
    );
}
