//! Host wall-clock performance harness (`repro perf [--backend threads]`).
//!
//! Every paper table reports *virtual* time, which is deterministic and
//! identical on any machine. This module instead measures how fast the
//! *host* runs: host wall-clock and interpreted-instructions per second
//! over fixed-seed workloads (TSP, Series, 3D Ray Tracer on an 8-node
//! SunSim cluster). With the default sim backend that is simulator
//! throughput, written to `BENCH_PERF.json`; with `--backend threads` each
//! node runs on its own OS thread (and with `--backend sockets` on its own
//! OS *process*, talking real localhost TCP) and the numbers are real
//! parallel execution, written to `BENCH_LIVE.json` — including, per app, the
//! 8-node vs 1-node wall-clock speedup (the live analogue of the paper's
//! Figure 3), the synchronization-layer counters (windows, barrier waits,
//! message batching), and the wall-clock span profile: per-node stall
//! breakdown with barrier-wait / window-length / frame-size percentiles.
//! Threads runs are measured *with the span profiler on* (aggregates only
//! — a handful of clock reads per epoch round, well under the run-to-run
//! noise) so the breakdown describes exactly the wall time reported.
//!
//! Deliberately *not* part of `repro all`: wall-clock numbers are
//! host-dependent and nondeterministic, and `repro all` output is used as a
//! bit-identical determinism reference.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::measure::{render_table, run_clean};
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::telemetry::lag_percentiles;
use jsplit_runtime::{Backend, ClusterConfig, MetricsConfig, SyncStats};
use jsplit_trace::{LogHist, SpanKind, TelemetrySummary, WallProfile, ALL_SPAN_KINDS};

/// One measured workload.
pub struct PerfPoint {
    pub app: &'static str,
    /// Host wall-clock for the whole `run_cluster` call (setup + run).
    pub wall_secs: f64,
    /// Interpreted instructions retired across all nodes.
    pub ops: u64,
    /// `ops / wall_secs` — the headline simulator-throughput number.
    pub ops_per_sec: f64,
    /// Virtual execution time (deterministic; sanity anchor).
    pub virtual_secs: f64,
    /// Cluster-wide messages sent (deterministic; sanity anchor).
    pub msgs_sent: u64,
    /// Peak simultaneously-live scheduler events (slab length).
    pub event_slab_high_water: u64,
    /// Same workload on a 1-node cluster, same backend (threads runs only:
    /// the denominator of the live speedup).
    pub wall_1node_secs: Option<f64>,
    /// Threads-backend synchronization counters (zero under sim).
    pub sync: SyncStats,
    /// Wall-clock span profile of the measured run (threads backend only).
    pub wall: Option<WallProfile>,
    /// Live-telemetry summary of the measured run (threads and sockets
    /// backends): peak/mean rates and horizon-lag percentiles. For sockets
    /// the series is the coordinator's merge of worker-shipped metrics
    /// envelopes.
    pub telemetry: Option<TelemetrySummary>,
}

impl PerfPoint {
    /// Live wall-clock speedup vs the 1-node run (threads backend only).
    pub fn speedup(&self) -> Option<f64> {
        self.wall_1node_secs.map(|w1| w1 / self.wall_secs.max(1e-9))
    }

    /// "condvar_wait 41%"-style cell for the text table ("-" without a
    /// profile or with no stall time at all).
    pub fn dominant_stall_cell(&self) -> String {
        let Some(w) = &self.wall else { return "-".into() };
        match w.dominant_stall() {
            Some((kind, ns)) => {
                let total: u64 = w.nodes.iter().map(|n| n.accounted_ns()).sum();
                format!("{} {:.0}%", kind.label(), 100.0 * ns as f64 / total.max(1) as f64)
            }
            None => "-".into(),
        }
    }
}

const NODES: usize = 8;

/// The three fixed-seed workloads at smoke (CI) or bench scale. Shared
/// with `repro opstats`, so the opcode-frequency tables describe exactly
/// the programs the throughput harness measures.
pub fn workloads(smoke: bool) -> Vec<(&'static str, Program)> {
    use jsplit_apps::{raytracer, series, tsp};
    if smoke {
        // Test-scale inputs: a few seconds total, for CI.
        vec![
            ("tsp", tsp::program(tsp::TspParams { n: 9, seed: 42, depth: 3, threads: 16 })),
            ("series", series::program(series::SeriesParams { n: 96, intervals: 1000, threads: 16 })),
            ("raytracer", raytracer::program(raytracer::RayParams { size: 48, grid: 4, threads: 16 })),
        ]
    } else {
        // Bench-scale inputs (same as the table4 figure sweep).
        vec![
            ("tsp", tsp::program(tsp::TspParams { n: 13, seed: 42, depth: 3, threads: 16 })),
            ("series", series::program(series::SeriesParams { n: 256, intervals: 4000, threads: 16 })),
            ("raytracer", raytracer::program(raytracer::RayParams { size: 360, grid: 4, threads: 16 })),
        ]
    }
}

/// Run all workloads on the fixed cluster configuration with the given
/// execution backend. Live runs also measure each workload on a 1-node
/// cluster for the per-app live speedup.
pub fn run(smoke: bool, backend: Backend) -> Vec<PerfPoint> {
    let mut out = Vec::new();
    // Both live backends (one OS thread per node / one OS process per
    // node) measure the 1-node denominator for the per-app speedup and
    // carry the telemetry registry (in-process for threads; worker-shipped
    // metrics envelopes merged at the coordinator for sockets); only the
    // threads backend carries the in-process span profiler.
    let live = matches!(backend, Backend::Threads | Backend::Sockets);
    for (app, p) in workloads(smoke) {
        let mut cfg = ClusterConfig::javasplit(JvmProfile::SunSim, NODES)
            .with_backend(backend)
            .with_profile(backend == Backend::Threads);
        if live {
            // Sample the registry but write no JSONL: the summary
            // (peak/mean rates, lag percentiles) lands in the LIVE rows.
            cfg = cfg.with_metrics(MetricsConfig::default());
        }
        let t0 = Instant::now();
        let mut r = run_clean(cfg, &p);
        let wall = t0.elapsed().as_secs_f64();
        let wall_1node_secs = live.then(|| {
            let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 1).with_backend(backend);
            let t0 = Instant::now();
            run_clean(cfg, &p);
            t0.elapsed().as_secs_f64()
        });
        out.push(PerfPoint {
            app,
            wall_secs: wall,
            ops: r.ops,
            ops_per_sec: r.ops as f64 / wall.max(1e-9),
            virtual_secs: r.exec_time_secs(),
            msgs_sent: r.net_total().msgs_sent,
            event_slab_high_water: r.event_slab_high_water,
            wall_1node_secs,
            sync: r.sync,
            wall: r.wall.take(),
            telemetry: r.telemetry.take(),
        });
    }
    out
}

/// 8-node vs 1-node wall-clock on the TSP workload — the headline live
/// number (threads backend), kept as its own JSON key for baseline diffs.
pub struct LiveSpeedup {
    pub wall_1node_secs: f64,
    pub wall_8node_secs: f64,
}

impl LiveSpeedup {
    pub fn speedup(&self) -> f64 {
        self.wall_1node_secs / self.wall_8node_secs.max(1e-9)
    }
}

/// Derive the headline TSP speedup from an already-measured point set.
pub fn live_speedup(pts: &[PerfPoint]) -> Option<LiveSpeedup> {
    pts.iter().find(|p| p.app == "tsp").and_then(|p| {
        p.wall_1node_secs.map(|w1| LiveSpeedup { wall_1node_secs: w1, wall_8node_secs: p.wall_secs })
    })
}

pub fn render(pts: &[PerfPoint]) -> String {
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.app.to_string(),
                format!("{:.3}", p.wall_secs),
                p.ops.to_string(),
                format!("{:.2}", p.ops_per_sec / 1e6),
                format!("{:.4}", p.virtual_secs),
                p.msgs_sent.to_string(),
                p.event_slab_high_water.to_string(),
                p.speedup().map_or("-".into(), |s| format!("{s:.2}x")),
                if p.sync.windows == 0 { "-".into() } else { p.sync.windows.to_string() },
                if p.sync.windows == 0 { "-".into() } else { p.sync.msgs_batched().to_string() },
                p.dominant_stall_cell(),
            ]
        })
        .collect();
    render_table(
        &format!("Host performance — js{NODES}(sun), fixed seeds"),
        &["app", "wall_s", "ops", "Mops/s", "virtual_s", "msgs", "slab_hw", "spdup", "windows", "batched", "top stall"],
        &rows,
    )
}

/// Serialize to the `BENCH_PERF.json` / `BENCH_LIVE.json` schema
/// (hand-rolled: every field is a number or plain string, no escaping
/// needed).
pub fn to_json(
    pts: &[PerfPoint],
    smoke: bool,
    backend: Backend,
    speedup: Option<&LiveSpeedup>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!(
        "  \"backend\": \"{}\",\n",
        match backend {
            Backend::Sim => "sim",
            Backend::Threads => "threads",
            Backend::Sockets => "sockets",
        }
    ));
    s.push_str(&format!(
        "  \"config\": \"javasplit {NODES} nodes, SunSim profile, 16 app threads\",\n"
    ));
    if let Some(sp) = speedup {
        s.push_str(&format!(
            "  \"tsp_speedup\": {{\"wall_1node_secs\": {:.3}, \"wall_8node_secs\": {:.3}, \"speedup\": {:.2}}},\n",
            sp.wall_1node_secs,
            sp.wall_8node_secs,
            sp.speedup(),
        ));
    }
    s.push_str("  \"results\": [\n");
    for (i, p) in pts.iter().enumerate() {
        let live = match (p.wall_1node_secs, p.speedup()) {
            (Some(w1), Some(sp)) => format!(", \"wall_1node_secs\": {w1:.3}, \"speedup\": {sp:.2}"),
            _ => String::new(),
        };
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"wall_secs\": {:.3}, \"ops\": {}, \"ops_per_sec\": {:.0}, \
             \"virtual_secs\": {:.6}, \"msgs_sent\": {}, \"event_slab_high_water\": {}{}, \
             \"windows\": {}, \"barrier_waits\": {}, \"frames_sent\": {}, \"msgs_framed\": {}, \
             \"msgs_batched\": {}, \"bytes_per_frame_avg\": {:.1}{}{}}}{}\n",
            p.app,
            p.wall_secs,
            p.ops,
            p.ops_per_sec,
            p.virtual_secs,
            p.msgs_sent,
            p.event_slab_high_water,
            live,
            p.sync.windows,
            p.sync.barrier_waits,
            p.sync.frames_sent,
            p.sync.msgs_framed,
            p.sync.msgs_batched(),
            p.sync.bytes_per_frame_avg(),
            wall_profile_json(p.wall.as_ref()),
            telemetry_json(p.telemetry.as_ref()),
            if i + 1 < pts.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// p50/p90/p99 of a histogram as a JSON object fragment.
fn hist_json(h: &LogHist) -> String {
    format!(
        "{{\"p50\": {}, \"p90\": {}, \"p99\": {}}}",
        h.percentile(0.50),
        h.percentile(0.90),
        h.percentile(0.99)
    )
}

/// The live-telemetry block: sample count, peak/mean cluster rates, and
/// horizon-lag percentiles (empty string when the point carries no
/// telemetry, i.e. sim runs).
fn telemetry_json(t: Option<&TelemetrySummary>) -> String {
    let Some(t) = t else { return String::new() };
    let (p50, p90, p99) = lag_percentiles(t);
    format!(
        ", \"telemetry\": {{\"samples\": {}, \"peak_ops_per_sec\": {:.0}, \"mean_ops_per_sec\": {:.0}, \
         \"peak_bytes_per_sec\": {:.0}, \"mean_bytes_per_sec\": {:.0}, \
         \"horizon_lag_ps\": {{\"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}}}, \"stalls\": {}}}",
        t.samples,
        t.peak_ops_per_sec,
        t.mean_ops_per_sec,
        t.peak_bytes_per_sec,
        t.mean_bytes_per_sec,
        t.stalls.len(),
    )
}

/// The per-node stall breakdown + histograms block (empty string when the
/// point carries no profile, i.e. sim runs).
fn wall_profile_json(wall: Option<&WallProfile>) -> String {
    let Some(w) = wall else { return String::new() };
    let mut s = String::from(", \"wall_profile\": [");
    for (i, n) in w.nodes.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{{\"node\": {}, \"wall_ns\": {}", n.node, n.wall_ns));
        for k in ALL_SPAN_KINDS {
            s.push_str(&format!(", \"{}_ns\": {}", k.label(), n.stats_of(k).total_ns));
        }
        s.push_str(&format!(
            ", \"barrier_wait_hist_ns\": {}, \"window_hist_ps\": {}, \"frame_hist_bytes\": {}}}",
            hist_json(&n.stats_of(SpanKind::BarrierWait).hist),
            hist_json(&n.window_ps),
            hist_json(&n.frame_bytes)
        ));
    }
    s.push(']');
    let dominant = w
        .dominant_stall()
        .map(|(k, _)| k.label())
        .unwrap_or("none");
    s.push_str(&format!(", \"dominant_stall\": \"{dominant}\""));
    s
}

/// Write `BENCH_PERF.json` (sim) or `BENCH_LIVE.json` (threads) at the
/// repo root; returns the path written.
pub fn write_json(
    pts: &[PerfPoint],
    smoke: bool,
    backend: Backend,
    speedup: Option<&LiveSpeedup>,
) -> std::io::Result<PathBuf> {
    // Both live backends land in BENCH_LIVE.json; the `backend` key
    // distinguishes thread rows from socket rows.
    let file = match backend {
        Backend::Sim => "BENCH_PERF.json",
        Backend::Threads | Backend::Sockets => "BENCH_LIVE.json",
    };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(to_json(pts, smoke, backend, speedup).as_bytes())?;
    Ok(path.canonicalize().unwrap_or(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_schema_shape() {
        let pts = vec![
            PerfPoint {
                app: "tsp",
                wall_secs: 1.5,
                ops: 1000,
                ops_per_sec: 666.7,
                virtual_secs: 0.4,
                msgs_sent: 12,
                event_slab_high_water: 9,
                wall_1node_secs: Some(6.0),
                sync: SyncStats { windows: 10, barrier_waits: 80, frames_sent: 4, frame_bytes: 400, msgs_framed: 14 },
                wall: None,
                telemetry: None,
            },
            PerfPoint {
                app: "series",
                wall_secs: 1.2,
                ops: 1000,
                ops_per_sec: 833.3,
                virtual_secs: 0.4,
                msgs_sent: 12,
                event_slab_high_water: 9,
                wall_1node_secs: Some(6.0),
                sync: SyncStats { windows: 25, barrier_waits: 200, frames_sent: 9, frame_bytes: 900, msgs_framed: 14 },
                wall: None,
                telemetry: Some({
                    let mut t = TelemetrySummary { samples: 12, peak_ops_per_sec: 2000.4, ..TelemetrySummary::default() };
                    t.horizon_lag_ps.record(4096);
                    t
                }),
            },
        ];
        // The headline speedup comes from the tsp row.
        let sp = live_speedup(&pts).expect("tsp point carries 1-node wall");
        assert_eq!(sp.wall_8node_secs, 1.5);
        let j = to_json(&pts, true, Backend::Threads, Some(&sp));
        assert!(j.contains("\"smoke\": true"));
        assert!(j.contains("\"backend\": \"threads\""));
        for gone in ["lookahead", "wire_batch", "\"sync\"", "nulls", "horizon_advances"] {
            assert!(!j.contains(gone), "removed key {gone} still emitted");
        }
        assert!(j.contains("\"speedup\": 4.00"));
        assert!(j.contains("\"app\": \"tsp\""));
        assert!(j.contains("\"app\": \"series\""));
        assert!(j.contains("\"event_slab_high_water\": 9"));
        assert!(j.contains("\"wall_1node_secs\": 6.000"));
        // Floats land at fixed precision (satellite: stable diffs against
        // baselines; no 6-decimal wall-clock noise).
        assert!(j.contains("\"wall_secs\": 1.500"));
        assert!(j.contains("\"ops_per_sec\": 667,"));
        // The telemetry block rides only on rows that carry a summary.
        assert!(j.contains("\"telemetry\": {\"samples\": 12, \"peak_ops_per_sec\": 2000,"));
        assert!(j.contains("\"horizon_lag_ps\": {\"p50\": "));
        assert!(j.contains("\"stalls\": 0"));
        assert!(j.contains("\"windows\": 10"));
        assert!(j.contains("\"barrier_waits\": 80"));
        assert!(j.contains("\"frames_sent\": 4"));
        assert!(j.contains("\"msgs_framed\": 14"));
        assert!(j.contains("\"msgs_batched\": 10"));
        assert!(j.contains("\"bytes_per_frame_avg\": 100.0"));
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON dependency.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn sim_points_omit_live_fields() {
        let pts = vec![PerfPoint {
            app: "series",
            wall_secs: 1.0,
            ops: 10,
            ops_per_sec: 10.0,
            virtual_secs: 0.1,
            msgs_sent: 2,
            event_slab_high_water: 3,
            wall_1node_secs: None,
            sync: SyncStats::default(),
            wall: None,
            telemetry: None,
        }];
        assert!(pts[0].speedup().is_none());
        assert!(live_speedup(&pts).is_none());
        let j = to_json(&pts, false, Backend::Sim, None);
        assert!(!j.contains("tsp_speedup"));
        assert!(!j.contains("wall_1node_secs"));
        assert!(!j.contains("wall_profile"));
        assert!(!j.contains("\"telemetry\""));
        assert!(j.contains("\"windows\": 0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn wall_profile_block_carries_breakdown_and_percentiles() {
        use jsplit_trace::SpanRecorder;
        use std::time::Instant;
        // Build a small real profile: two marks and some histogram feed.
        let mut rec = SpanRecorder::new(Instant::now(), false);
        rec.mark(SpanKind::Execute);
        rec.mark(SpanKind::BarrierWait);
        rec.window_ps.record(500_000);
        let mut prof = rec.finish(0, 1_000_000);
        prof.frame_bytes.record(96);
        let wall = WallProfile { nodes: vec![prof] };
        let pts = vec![PerfPoint {
            app: "tsp",
            wall_secs: 1.0,
            ops: 100,
            ops_per_sec: 100.0,
            virtual_secs: 0.1,
            msgs_sent: 5,
            event_slab_high_water: 2,
            wall_1node_secs: Some(2.0),
            sync: SyncStats { windows: 1, barrier_waits: 8, frames_sent: 1, frame_bytes: 96, msgs_framed: 1 },
            wall: Some(wall),
            telemetry: None,
        }];
        assert_eq!(pts[0].dominant_stall_cell().split(' ').next(), Some("barrier_wait"));
        let j = to_json(&pts, true, Backend::Threads, None);
        assert!(j.contains("\"wall_profile\": ["));
        assert!(j.contains("\"node\": 0"));
        for k in ALL_SPAN_KINDS {
            assert!(j.contains(&format!("\"{}_ns\":", k.label())), "missing {}", k.label());
        }
        assert!(j.contains("\"barrier_wait_hist_ns\": {\"p50\":"));
        assert!(j.contains("\"window_hist_ps\": {\"p50\":"));
        assert!(j.contains("\"frame_hist_bytes\": {\"p50\":"));
        assert!(j.contains("\"dominant_stall\": \"barrier_wait\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
