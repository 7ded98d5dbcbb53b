//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p jsplit-bench --release --bin repro              # everything
//! cargo run -p jsplit-bench --release --bin repro table1       # one table
//! cargo run -p jsplit-bench --release --bin repro table4 --paper-scale
//! ```
//!
//! Sections: `table1`, `table2`, `table3`, `table4`, `ablation`, `mixed`
//! (the §6 heterogeneous-cluster and mid-run-join demonstrations), `all`.
//!
//! `repro perf [--smoke] [--backend sim|threads|sockets]` is separate
//! from `all`: it measures *host* wall-clock and ops/sec
//! (nondeterministic) and writes `BENCH_PERF.json` at the repo root — or,
//! with `--backend threads` (one OS thread per node) or `--backend
//! sockets` (one OS *process* per node over localhost TCP),
//! real-parallel-execution numbers with per-app 8-vs-1-node speedups and
//! synchronization counters to `BENCH_LIVE.json`.
//!
//! `repro trace <app> [--smoke]` runs one app (tsp/series/raytracer) with
//! full tracing, writes `TRACE_<app>.json` (Chrome trace-event format) at
//! the repo root and self-checks the trace invariants.
//!
//! `repro heat <app> [--smoke]` runs one app (tsp/series/raytracer) with
//! the per-object DSM sharing profiler, prints the heat table / sharing
//! classes / home-migration candidates, writes `HEAT_<app>.json` at the
//! repo root and self-checks the reconciliation invariant against the
//! aggregate `DsmStats` totals.
//!
//! `repro opstats <app> [--smoke]` runs one app under both protocols with
//! retired-opcode counting and prints the hot opcode / hot pair tables
//! that motivate the predecoder's superinstruction selection.

use jsplit_bench::{ablation, heat, measure, perf, table1, table2, table3, table4, tracecmd};
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, NodeSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `repro perf --backend sockets` spawns one process per node by
    // re-executing the current binary — this one — with a `worker`
    // subcommand, exactly like `jsplit worker`.
    if args.first().map(String::as_str) == Some("worker") {
        if let Err(e) = jsplit_runtime::sockets::worker_main(&args[1..]) {
            eprintln!("repro worker: {e}");
            std::process::exit(1);
        }
        return;
    }

    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let smoke = args.iter().any(|a| a == "--smoke");
    let section = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");

    if section == "perf" {
        // Host-performance harness: nondeterministic wall-clock numbers, so
        // never part of `all` (whose output doubles as a determinism
        // reference).
        let backend = match args.iter().position(|a| a == "--backend") {
            None => Backend::Sim,
            Some(i) => match args.get(i + 1).map(String::as_str) {
                Some("sim") => Backend::Sim,
                Some("threads") => Backend::Threads,
                Some("sockets") => Backend::Sockets,
                other => {
                    eprintln!("repro perf: unknown --backend {other:?} (want sim|threads|sockets)");
                    std::process::exit(2);
                }
            },
        };
        let pts = perf::run(smoke, backend);
        print!("{}", perf::render(&pts));
        let speedup = perf::live_speedup(&pts);
        if let Some(sp) = &speedup {
            println!(
                "tsp live speedup: 1 node {:.3}s / 8 nodes {:.3}s = {:.2}x",
                sp.wall_1node_secs,
                sp.wall_8node_secs,
                sp.speedup()
            );
        }
        match perf::write_json(&pts, smoke, backend, speedup.as_ref()) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\nfailed to write perf json: {e}"),
        }
        return;
    }

    if section == "trace" {
        // Observability harness: like perf, never part of `all` (its output
        // is a file at the repo root, not a table).
        let app = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .nth(1)
            .map(String::as_str)
            .unwrap_or("tsp");
        match tracecmd::run(app, smoke) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("repro trace: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if section == "heat" {
        // Per-object DSM sharing profiler: deterministic (sim backend, and
        // the objprof report is backend-invariant anyway), but its output is
        // a file at the repo root, so — like trace — not part of `all`.
        let app = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .nth(1)
            .map(String::as_str)
            .unwrap_or("tsp");
        match heat::run(app, smoke) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("repro heat: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if section == "opstats" {
        // Dynamic opcode/pair frequency profiler: runs one app with the
        // predecoded executor's retire counting on and prints the hot
        // opcode and hot consecutive-pair tables — the measurement behind
        // the superinstruction selection in jsplit-mjvm's pcode module.
        // Fused ops count as their source components, so the tables
        // describe the program, not the fusion.
        // Deterministic (sim backend, counts merged across nodes), so the
        // tables can be committed to EXPERIMENTS.md verbatim.
        let app = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .nth(1)
            .map(String::as_str)
            .unwrap_or("tsp");
        let Some((_, program)) = perf::workloads(smoke).into_iter().find(|(a, _)| *a == app)
        else {
            eprintln!("repro opstats: unknown app {app:?} (want tsp|series|raytracer)");
            std::process::exit(2);
        };
        for (label, cfg) in [
            ("baseline (central-server)", ClusterConfig::baseline(JvmProfile::SunSim, 8)),
            ("javasplit (home-migration)", ClusterConfig::javasplit(JvmProfile::SunSim, 8)),
        ] {
            let r = run_cluster(cfg.with_opstats(true), &program).expect("opstats cluster");
            let stats = r.opstats.expect("sim run with opstats enabled carries counters");
            println!("### {app} — {label}, {} retired ops", stats.total());
            println!();
            print!("{}", stats.render(12));
            println!();
        }
        return;
    }

    let want = |s: &str| section == "all" || section == s;

    println!("JavaSplit reproduction — paper tables/figures (virtual-time simulation)");
    println!("=======================================================================");

    if want("table1") {
        let rows = table1::run(2_000);
        print!("{}", table1::render(&rows));
    }
    if want("table2") {
        let rows = table2::run(2_000);
        print!("{}", table2::render(&rows));
    }
    if want("table3") {
        let rows = table3::run();
        print!("{}", table3::render(&rows));
    }
    if want("table4") {
        let scale = if paper_scale { table4::Scale::Paper } else { table4::Scale::Bench };
        let pts = table4::run(scale);
        print!("{}", table4::render(&pts));
        summarize_speedups(&pts);
    }
    if want("claims") {
        // The per-JVM speedup comparisons of 6.2 need the compute-dominated
        // regime (the paper's inputs run for minutes); Deep scale puts the
        // bench-scale compute/communication ratio back in that regime for
        // Series and the Ray Tracer at 8 nodes.
        let pts = table4::run_subset(
            table4::Scale::Deep,
            &["series", "raytracer"],
            &measure::PROFILES,
            &[8],
        );
        print!("{}", table4::render(&pts));
        summarize_speedups(&pts);
    }
    if want("ablation") {
        let rows = ablation::protocol_ablation(8);
        print!("{}", ablation::render_protocol(&rows));
        let rows = ablation::local_lock_ablation(3_000);
        print!("{}", ablation::render_locks(&rows));
        let rows = ablation::chunk_ablation(8_192, 4);
        print!("{}", ablation::render_chunks(&rows));
    }
    if want("mixed") {
        mixed_cluster_demo();
    }
}

/// The per-figure qualitative claims of §6.2, checked on the spot.
fn summarize_speedups(pts: &[table4::Point]) {
    println!("\n== Figure claims (paper 6.2) ==");
    let get = |app: &str, profile: JvmProfile, nodes: usize| {
        pts.iter()
            .find(|p| p.app == app && p.profile == profile && p.nodes == nodes)
            .map(|p| p.speedup)
            .unwrap_or(f64::NAN)
    };
    for app in table4::APPS {
        let sun = get(app, JvmProfile::SunSim, 8);
        let ibm = get(app, JvmProfile::IbmSim, 8);
        println!("{app:>10}: speedup@8 nodes  Sun {sun:5.2}  IBM {ibm:5.2}");
    }
    let s_sun = get("series", JvmProfile::SunSim, 8);
    let s_ibm = get("series", JvmProfile::IbmSim, 8);
    println!(
        "claim 'Series: IBM speedup significantly lower than Sun': {}",
        if s_ibm < s_sun { "REPRODUCED" } else { "NOT reproduced at this scale" }
    );
    let r_sun = get("raytracer", JvmProfile::SunSim, 8);
    let r_ibm = get("raytracer", JvmProfile::IbmSim, 8);
    println!(
        "claim 'Ray Tracer: Sun speedup is the lower one':          {}",
        if r_sun < r_ibm { "REPRODUCED" } else { "NOT reproduced at this scale" }
    );
}

/// §6 portability demonstrations: mixed JVM brands in one execution, and a
/// worker joining mid-run.
fn mixed_cluster_demo() {
    use jsplit_apps::tsp;
    println!("\n== Mixed-brand cluster & mid-run join (paper 2 / 6) ==");
    let params = tsp::TspParams { n: 9, seed: 42, depth: 3, threads: 8 };
    let expected = tsp::solve_reference(&params);
    let prog = tsp::program(params);

    let cfg = ClusterConfig::heterogeneous(vec![
        NodeSpec::sun(),
        NodeSpec::ibm(),
        NodeSpec::sun(),
        NodeSpec::ibm(),
    ]);
    let r = run_cluster(cfg, &prog).expect("mixed cluster");
    println!(
        "mixed 2xSun+2xIBM: result={} (oracle {expected}) time={:.4}s msgs={} -> {}",
        r.output[0],
        r.exec_time_ps as f64 / 1e12,
        r.net_total().msgs_sent,
        if r.output[0] == expected.to_string() { "OK" } else { "MISMATCH" },
    );

    let mut cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_joins(vec![(1, NodeSpec::ibm()), (2, NodeSpec::ibm())]);
    cfg.fuel = 256;
    let r = run_cluster(cfg, &prog).expect("join cluster");
    let joined_active = r.net_per_node.len() == 4 && r.net_per_node[3].msgs_recv > 0;
    println!(
        "2 nodes + 2 joining IBM workers: result={} nodes_end={} joined_participated={} -> {}",
        r.output[0],
        r.net_per_node.len(),
        joined_active,
        if r.output[0] == expected.to_string() && joined_active { "OK" } else { "CHECK" },
    );
    let _ = measure::ps_to_us(0);
}
