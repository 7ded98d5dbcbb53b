//! One program run per process.
//!
//! Every measured run executes in a fresh child process (this binary,
//! re-executed with `child ...`), leader of its own process group. That
//! gives each run its own peak-RSS figure, lets a run past its deadline be
//! killed together with any sockets workers it spawned, and keeps a trap or
//! panic inside the runtime from taking the benchmark down: the parent sees
//! a failed run instead.
//!
//! The child reports on stdout, one `@pb <key> <value>` line per field; a
//! key reported twice keeps its last value.

use std::collections::HashMap;
use std::io::Read as _;
use std::os::unix::process::CommandExt as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::host::{self, Exit};
use crate::workloads::{App, Input, Scale, Workload};
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::{Backend, Cluster, ClusterConfig, SocketsDriver, ThreadsDriver};
use jsplit_trace::{TraceMode, ALL_SPAN_KINDS};

/// A run that takes longer than this is killed and counted as failed.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// Host seconds of driver set-up sampling after a run that asks for it.
const SETUP_SLICE_SECONDS: f64 = 0.15;

/// Events kept by a traced run's ring buffer.
const TRACE_RING: usize = 1 << 16;

const TAG: &str = "@pb ";

/// Everything that fixes one program run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub input: Input,
    pub backend: Backend,
    pub nodes: usize,
    /// The original program on the baseline VM instead of JavaSplit.
    pub baseline: bool,
    /// Turn on the trace crate's event tracer (a ring of [`TRACE_RING`]
    /// events) and the threads backend's wall-clock span profiler. The
    /// sockets backend rejects both.
    pub traced: bool,
    /// After the run, time driver constructions for
    /// [`SETUP_SLICE_SECONDS`] and report them as `samples`.
    pub setup: bool,
}

impl RunSpec {
    /// The workload's measured configuration.
    pub fn of(w: &Workload, input: Input) -> RunSpec {
        RunSpec { input, backend: w.backend, nodes: w.nodes, baseline: false, traced: false, setup: false }
    }

    pub fn config(&self) -> ClusterConfig {
        let cfg = if self.baseline {
            ClusterConfig::baseline(JvmProfile::SunSim, 2)
        } else {
            ClusterConfig::javasplit(JvmProfile::SunSim, self.nodes).with_backend(self.backend)
        };
        if self.traced {
            cfg.with_trace(TraceMode::Ring(TRACE_RING)).with_profile(true)
        } else {
            cfg
        }
    }

    fn to_args(self) -> Vec<String> {
        let app = match self.input.app {
            App::Ray => "ray",
            App::Tsp => "tsp",
            App::Series => "series",
        };
        let scale = match self.input.scale {
            Scale::Bench => "bench",
            Scale::Smoke => "smoke",
            Scale::Trivial => "trivial",
        };
        [
            app.to_string(),
            scale.to_string(),
            backend_name(self.backend).to_string(),
            self.nodes.to_string(),
            u8::from(self.baseline).to_string(),
            u8::from(self.traced).to_string(),
            u8::from(self.setup).to_string(),
        ]
        .into()
    }

    fn from_args(a: &[String]) -> Result<RunSpec, String> {
        let [app, scale, backend, nodes, baseline, traced, setup] = a else {
            return Err(format!("child: expected 7 run-spec fields, got {}", a.len()));
        };
        let app = match app.as_str() {
            "ray" => App::Ray,
            "tsp" => App::Tsp,
            "series" => App::Series,
            other => return Err(format!("child: unknown app {other}")),
        };
        let scale = match scale.as_str() {
            "bench" => Scale::Bench,
            "smoke" => Scale::Smoke,
            "trivial" => Scale::Trivial,
            other => return Err(format!("child: unknown scale {other}")),
        };
        let backend = match backend.as_str() {
            "sim" => Backend::Sim,
            "threads" => Backend::Threads,
            "sockets" => Backend::Sockets,
            other => return Err(format!("child: unknown backend {other}")),
        };
        Ok(RunSpec {
            input: Input { app, scale },
            backend,
            nodes: nodes.parse().map_err(|e| format!("child: bad node count {nodes}: {e}"))?,
            baseline: baseline == "1",
            traced: traced == "1",
            setup: setup == "1",
        })
    }
}

pub fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Sim => "sim",
        Backend::Threads => "threads",
        Backend::Sockets => "sockets",
    }
}

/// What a child reported: its `@pb` fields and the program's console
/// output.
#[derive(Debug, Default, Clone)]
pub struct Report {
    fields: HashMap<String, String>,
    pub output: Vec<String>,
}

impl Report {
    fn parse(stdout: &str) -> Report {
        let mut r = Report::default();
        for line in stdout.lines() {
            let Some(rest) = line.strip_prefix(TAG) else { continue };
            let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
            if k == "out" {
                r.output.push(v.to_string());
            } else {
                r.fields.insert(k.to_string(), v.to_string());
            }
        }
        r
    }

    pub fn f64(&self, key: &str) -> f64 {
        self.fields.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    pub fn u64(&self, key: &str) -> u64 {
        self.fields.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    /// A comma-separated list field (per node, per message kind, or the
    /// set-up samples).
    pub fn list<T: std::str::FromStr>(&self, key: &str) -> Vec<T> {
        self.fields.get(key).map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect()).unwrap_or_default()
    }
}

/// Run `spec` once in a child process. `Err` names why the run failed: the
/// runtime reported a deadlock, abort, trap or configuration error, the
/// child crashed, ran past [`DEADLINE`], or left processes behind.
pub fn run(spec: &RunSpec) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("cannot spawn run: {e}"))?;
    let (exit, orphaned) = host::wait_group(&mut child, DEADLINE);
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        let _ = out.read_to_string(&mut stdout);
    }
    let report = Report::parse(&stdout);
    match exit {
        Exit::TimedOut => return Err(format!("run past its {}s deadline", DEADLINE.as_secs())),
        Exit::Code(Some(0)) => {}
        Exit::Code(Some(code)) => return Err(format!("run process exited with code {code}")),
        Exit::Code(None) => return Err("run process killed by a signal".into()),
    }
    if orphaned {
        return Err("run left processes behind".into());
    }
    match report.fields.get("status").map(String::as_str) {
        Some("ok") => Ok(report),
        Some(s) => Err(s.to_string()),
        None => Err("run printed no status".into()),
    }
}

/// Entry point of `perfbench child <spec...>`; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    match RunSpec::from_args(args) {
        Ok(spec) => {
            child_run(&spec);
            0
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

fn emit(key: &str, value: impl std::fmt::Display) {
    println!("{TAG}{key} {value}");
}

fn join(v: impl IntoIterator<Item = u64>) -> String {
    v.into_iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

fn child_run(spec: &RunSpec) {
    let program = spec.input.program();
    let t0 = Instant::now();
    let result = jsplit_runtime::exec::run_cluster(spec.config(), &program);
    let wall = t0.elapsed().as_secs_f64();
    let r = match result {
        Ok(r) => r,
        Err(e) => return emit("status", format!("cluster error: {e}")),
    };
    emit("wall_s", wall);
    emit("rss_kb", host::peak_rss_kb());
    emit("ops", r.ops);
    emit("vt_ps", r.exec_time_ps);
    let net = r.net_total();
    emit("msgs", net.msgs_sent);
    emit("bytes", net.bytes_sent);
    emit("node_msgs", join(r.net_per_node.iter().map(|n| n.msgs_sent)));
    emit("sent_by_kind", join(net.sent_by_kind));
    emit("bytes_by_kind", join(net.bytes_by_kind));
    let d = r.dsm_total();
    for (k, v) in [
        ("fetches", d.fetches),
        ("diffs_sent", d.diffs_sent),
        ("diff_fields", d.diff_fields),
        ("local_acquires", d.local_acquires),
        ("shared_acquires_local", d.shared_acquires_local),
        ("shared_acquires_remote", d.shared_acquires_remote),
        ("grants_sent", d.grants_sent),
        ("invalidations", d.invalidations),
        ("releases_awaiting_acks", d.releases_awaiting_acks),
    ] {
        emit(&format!("dsm.{k}"), v);
    }
    let s = r.sync;
    emit("sync.windows", s.windows);
    emit("sync.barrier_waits", s.barrier_waits);
    emit("sync.frames_sent", s.frames_sent);
    emit("sync.frame_bytes", s.frame_bytes);
    emit("sync.msgs_framed", s.msgs_framed);
    emit("slab_hw", r.event_slab_high_water);
    if let Some(rw) = &r.rewrite {
        emit("rewrite.checks", rw.checks_total());
        emit("rewrite.growth", rw.growth());
    }
    if let Some(w) = &r.wall {
        for kind in ALL_SPAN_KINDS {
            emit(&format!("span.{}", kind.label()), w.nodes.iter().map(|n| n.stats_of(kind).total_ns).sum::<u64>());
        }
        emit("span.accounted", w.nodes.iter().map(|n| n.accounted_ns()).sum::<u64>());
    }
    for line in &r.output {
        emit("out", line);
    }
    let status = if r.deadlocked {
        "deadlocked".to_string()
    } else if r.aborted {
        "aborted".to_string()
    } else if let Some((uid, e)) = r.errors.first() {
        format!("thread {uid} trapped: {e:?}")
    } else {
        "ok".to_string()
    };
    let ok = status == "ok";
    emit("status", status);
    // Set-up samples come after every figure of the run itself, so they
    // cannot touch its wall time or peak memory.
    if spec.setup && ok {
        match setup_samples(spec, &program, SETUP_SLICE_SECONDS) {
            Ok(s) => emit("samples", s.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")),
            Err(e) => emit("status", e),
        }
    }
}

/// Host seconds per driver construction, repeated for about `seconds`.
fn setup_samples(spec: &RunSpec, program: &Program, seconds: f64) -> Result<Vec<f64>, String> {
    const MIN_SAMPLES: usize = 9;
    const MAX_SAMPLES: usize = 1000;
    let cfg = spec.config();
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || (Instant::now() < until && samples.len() < MAX_SAMPLES) {
        // Time construction only: the driver is dropped after the clock
        // is read.
        let t0 = Instant::now();
        let built = match spec.backend {
            Backend::Sim => Cluster::new(cfg.clone(), program).map(|_d| t0.elapsed()),
            Backend::Threads => ThreadsDriver::new(cfg.clone(), program).map(|_d| t0.elapsed()),
            Backend::Sockets => SocketsDriver::new(cfg.clone(), program).map(|_d| t0.elapsed()),
        };
        samples.push(built.map_err(|e| format!("set-up sampling: cluster error: {e}"))?.as_secs_f64());
    }
    Ok(samples)
}
