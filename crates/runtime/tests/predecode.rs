//! Differential tests for the predecoded executor on the cluster backends.
//!
//! The predecoder lowers every method body into a flat array of 16-byte
//! micro-ops at load time — operands resolved, static costs precomputed,
//! hot consecutive pairs fused into superinstructions — and the executor
//! dispatches on a dense u8 opcode instead of re-matching the full
//! `Instr` enum every step. None of that may be observable: program
//! stdout, virtual execution time, instruction counts, per-node DSM
//! protocol counters, and per-node network totals must match the classic
//! interpreter exactly, on all three paper applications, in both protocol
//! modes, on a Sun cluster and a mixed IBM/Sun one, on every backend (sim,
//! threads, sockets). Only the IBM profile prices a repeated access
//! differently from a first one, which is what exposes a fused check that
//! forgets to clear the access cache; the mixed cluster puts IBM on node 0,
//! where `main` runs, and on node 2.
//!
//! Cluster nodes run only the predecoded executor, so the classic side of
//! the comparison is a fixture: `tests/data/classic_sim_oracle.txt` holds
//! each case's observables as the classic interpreter produced them on
//! the sim backend. The inputs are fixed, so the recording is as strong a
//! check as a live classic run. The live classic-vs-predecoded comparison
//! runs on `LocalVm`, the one place classic still executes (the root
//! package's `tests/differential.rs`).
//!
//! The fixture changes only with a deliberate change to the model, and
//! then only after the `LocalVm` cross-check passes. Regenerate it with
//! `JSPLIT_RECORD_ORACLE=1 cargo test -p jsplit-runtime --test predecode
//! record_oracle -- --ignored`.
//!
//! The structural tests go below the cluster layer: for each app's loaded
//! image, every lowered micro-op must preserve the verifier's stack-shape
//! judgment (fused ops compose their components' effects), and every
//! fused superinstruction must survive a disassemble/parse round trip.

use jsplit_dsm::ProtocolMode;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_mjvm::pcode;
use jsplit_mjvm::Image;
use jsplit_runtime::config::SocketsConfig;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, NodeSpec, RunReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const ORACLE: &str = include_str!("data/classic_sim_oracle.txt");

fn apps() -> Vec<(&'static str, Program)> {
    use jsplit_apps::{raytracer, series, tsp};
    vec![
        ("tsp", tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })),
        ("series", series::program(series::SeriesParams { n: 16, intervals: 40, threads: 8 })),
        ("raytracer", raytracer::program(raytracer::RayParams { size: 16, grid: 2, threads: 8 })),
    ]
}

/// The cluster shapes every case runs on.
fn clusters() -> [(&'static str, ClusterConfig); 2] {
    [
        ("sun4", ClusterConfig::javasplit(JvmProfile::SunSim, 4)),
        (
            "mixed4",
            ClusterConfig::heterogeneous(vec![NodeSpec::ibm(), NodeSpec::sun(), NodeSpec::ibm(), NodeSpec::sun()]),
        ),
    ]
}

/// Every (case name, config, program) of the oracle, on `backend`.
fn cases(backend: Backend) -> Vec<(String, ClusterConfig, Program)> {
    let mut out = Vec::new();
    for (app, p) in apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            for (shape, cfg) in clusters() {
                let mut cfg = cfg.with_protocol(proto).with_backend(backend);
                if backend == Backend::Sockets {
                    cfg = cfg.with_sockets(sockets_config());
                }
                out.push((format!("{app} {proto:?} {shape}"), cfg, p.clone()));
            }
        }
    }
    out
}

/// The spawned worker binary for sockets runs (the test harness's own
/// `current_exe` is the test runner, not a worker).
fn sockets_config() -> SocketsConfig {
    SocketsConfig {
        worker_bin: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_jsplit"))),
        ..SocketsConfig::default()
    }
}

fn run(cfg: ClusterConfig, p: &Program) -> RunReport {
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

/// Everything observable about a run except host wall-clock and driver
/// internals (sync counters, slab high-water) — identical criteria to the
/// cross-backend suite. One fact per line, so a mismatch names it.
fn render(r: &RunReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "output: {:?}", r.output);
    let _ = writeln!(s, "exec_time_ps: {}", r.exec_time_ps);
    let _ = writeln!(s, "setup_ps: {}", r.setup_ps);
    let _ = writeln!(s, "ops: {}", r.ops);
    let _ = writeln!(s, "ops_per_node: {:?}", r.ops_per_node);
    let _ = writeln!(s, "threads: {}", r.threads);
    for (i, d) in r.dsm_per_node.iter().enumerate() {
        let _ = writeln!(s, "dsm[{i}]: {d:?}");
    }
    for (i, n) in r.net_per_node.iter().enumerate() {
        let _ = writeln!(s, "net[{i}]: {n:?}");
    }
    s
}

/// The fixture, keyed by case name (`## <case>` headers).
fn oracle() -> BTreeMap<&'static str, String> {
    let mut map = BTreeMap::new();
    for block in ORACLE.split("## ").filter(|b| !b.is_empty()) {
        let (name, body) = block.split_once('\n').expect("case header line");
        map.insert(name, body.to_string());
    }
    map
}

/// Run every case on `backend` and compare it with the classic oracle.
fn assert_matches_oracle(backend: Backend) {
    let oracle = oracle();
    let cases = cases(backend);
    assert_eq!(cases.len(), oracle.len(), "fixture and case list disagree");
    for (name, cfg, p) in cases {
        let want = oracle.get(name.as_str()).unwrap_or_else(|| panic!("{name}: not in the fixture"));
        let got = render(&run(cfg, &p));
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w, "{name} ({backend:?}): diverged from the classic oracle");
        }
        assert_eq!(got.lines().count(), want.lines().count(), "{name} ({backend:?}): node count diverged");
    }
}

#[test]
fn predecoded_sim_matches_classic_oracle() {
    assert_matches_oracle(Backend::Sim);
}

#[test]
fn predecoded_threads_matches_classic_oracle() {
    assert_matches_oracle(Backend::Threads);
}

#[test]
fn predecoded_sockets_matches_classic_oracle() {
    assert_matches_oracle(Backend::Sockets);
}

/// Writes the fixture from sim runs (see the module docs for when).
#[test]
#[ignore = "rewrites the fixture; run only for a deliberate model change"]
fn record_oracle() {
    if std::env::var_os("JSPLIT_RECORD_ORACLE").is_none() {
        return;
    }
    let mut s = String::new();
    for (name, cfg, p) in cases(Backend::Sim) {
        let _ = write!(s, "## {name}\n{}", render(&run(cfg, &p)));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/classic_sim_oracle.txt");
    std::fs::write(path, s).expect("write fixture");
}

/// Property: predecoding preserves the verifier's stack-shape judgment on
/// every method of every real app image, under both cost profiles (the
/// micro-op cost field differs per profile; the shape must not). This is
/// the structural half of the differential suite — it checks each
/// micro-op against the source instruction's verified pop/push counts and
/// each fused op against the composition of its components, including
/// branch-target agreement.
#[test]
fn predecode_preserves_verifier_stack_shapes_on_all_apps() {
    for (app, p) in &apps() {
        let image = Image::load(p).expect("load");
        for profile in [JvmProfile::SunSim, JvmProfile::IbmSim] {
            let pim = pcode::predecode(&image, profile.cost_model());
            if let Err(e) = pcode::verify_against(&pim, &image) {
                panic!("{app} ({}): predecode shape check failed: {e}", profile.name());
            }
            assert!(pim.methods.len() == image.methods.len(), "{app}: method count diverged");
        }
    }
}

/// Real app images must actually exercise the fuser — otherwise the
/// shape property above would be vacuous for superinstructions.
#[test]
fn real_apps_contain_fused_superinstructions() {
    for (app, p) in &apps() {
        let image = Image::load(p).expect("load");
        let pim = pcode::predecode(&image, JvmProfile::SunSim.cost_model());
        assert!(pim.fused > 0, "{app}: predecoder fused no pairs");
        // Every fused op the image contains must disassemble and parse
        // back to itself (the unit suite covers all variants synthetically;
        // this covers the ones real programs produce, with real operands).
        let mut seen = 0u64;
        for m in pim.methods.iter().flat_map(|pm| &pm.ops) {
            if let Some(s) = pcode::fmt_fused(m) {
                let back = pcode::parse_fused(&s).expect("fused disasm must parse back");
                assert_eq!(
                    (back.op, back.t, back.x, back.a, back.b),
                    (m.op, m.t, m.x, m.a, m.b),
                    "{app}: round trip changed `{s}`"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, pim.fused, "{app}: fused count disagrees with fmt_fused coverage");
    }
}
