//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--expect LINE[,LINE...]]
//! ```
//!
//! Runs one workload (see `BENCHMARK.json` and `README.md` next to this
//! crate) as a closed loop — one program run at a time, each started after
//! the last finished, each in its own process — for `--seconds`, checks
//! every run's output, and prints the metrics. With `--trace 0` those are
//! the end-to-end metrics; with `--trace 1` a separate traced run yields the
//! per-layer metrics, timed from outside each crate's public functions. The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`;
//! the line before it is the full record, tagged with the host fingerprint.
//!
//! `--seed` seeds the synthetic inputs of the per-layer probes; the three
//! programs are fixed bench-scale inputs (the TSP graph is seed 42, as in
//! `repro perf`). `--smoke` shrinks the programs for the
//! self-tests; `--expect` replaces the oracle (a self-test feeds a wrong
//! value and checks it is counted as a failure).
//!
//! `perfbench worker ...` is the sockets backend's re-executed node worker
//! and `perfbench child ...` one measured run; neither is for direct use.

mod child;
mod host;
mod layers;
mod probes;
mod report;
mod workloads;

use std::time::{Duration, Instant};

use child::{Report, RunSpec};
use report::{median, num, ratio, string, Metrics};
use workloads::{Input, Scale, Workload};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    expect: Option<Vec<String>>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut a = Args {
        workload: &workloads::WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        expect: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value} (want one of {})", names.join(", "))
                })?)
            }
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--expect" => a.expect = Some(value.split(',').map(str::to_string).collect()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One benchmark invocation: the workload, its oracle, and the tally of
/// attempted and failed runs.
pub struct Bench {
    pub workload: &'static Workload,
    pub input: Input,
    pub seed: u64,
    pub seconds: f64,
    expected: Result<Vec<String>, String>,
    /// Virtual time and per-node message counts of the first run that
    /// passed the output check; every later run must match them.
    reference: Option<(u64, Vec<u64>)>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Wall seconds of every measured run of the workload's configuration.
    pub walls: Vec<f64>,
    /// Free-form `key: value` notes for the record line.
    pub notes: Vec<(String, String)>,
}

impl Bench {
    /// Run `spec` once and check it. Returns the report only if the run
    /// completed and passed every check; otherwise records why it failed.
    /// `same_run` says whether the run must reproduce the first run's
    /// virtual time and per-node message counts (true for any run of the
    /// workload's program on its node count, whatever the backend).
    pub fn measure(&mut self, spec: &RunSpec, same_run: bool) -> Option<Report> {
        self.attempted += 1;
        match child::run(spec).and_then(|r| self.check(&r, same_run).map(|()| r)) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: {} run failed: {e}", self.workload.name);
                self.failures.push(e);
                None
            }
        }
    }

    fn check(&mut self, r: &Report, same_run: bool) -> Result<(), String> {
        let expected = self.expected.as_ref().map_err(|e| format!("no expected output: {e}"))?;
        if &r.output != expected {
            return Err(format!("output {:?} differs from the oracle's {expected:?}", r.output));
        }
        if same_run {
            let got = (r.u64("vt_ps"), r.list::<u64>("node_msgs"));
            match &self.reference {
                None => self.reference = Some(got),
                Some(first) if *first != got => {
                    return Err(format!(
                        "virtual time {} ps / per-node messages {:?} differ from the first run's {} ps / {:?}",
                        got.0, got.1, first.0, first.1
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Record a failure of something other than a program run.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: {}: {what}", self.workload.name);
        self.attempted += 1;
        self.failures.push(what);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// The expected console output: the Rust oracle, or for Series the
/// unrewritten program on the baseline VM.
fn oracle(input: Input) -> Result<Vec<String>, String> {
    match input.native_oracle() {
        Some(out) => Ok(out),
        None => {
            let spec =
                RunSpec { input, backend: jsplit_runtime::Backend::Sim, nodes: 1, baseline: true, traced: false, setup: false };
            child::run(&spec).map(|r| r.output).map_err(|e| format!("baseline oracle run failed: {e}"))
        }
    }
}

/// `--trace 0`: the closed loop. Each program run ends with a slice of
/// driver set-up samples in the same child, so both are spread over the
/// whole window: the host's speed drifts over seconds, and a window's
/// median should average over that drift rather than catch one phase of it.
fn end_to_end(b: &mut Bench) -> Metrics {
    let mut m = Metrics::new(&report::END_TO_END);
    let spec = RunSpec { setup: true, ..RunSpec::of(b.workload, b.input) };
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut setup = Vec::new();
    loop {
        if let Some(r) = b.measure(&spec, true) {
            b.walls.push(r.f64("wall_s"));
            setup.extend(r.list::<f64>("samples"));
            runs.push(r);
        }
        if start.elapsed() >= Duration::from_secs_f64(b.seconds) {
            break;
        }
    }
    b.note("setup_samples", setup.len());
    m.set("setup_s", median(&setup));
    let col = |f: &dyn Fn(&Report) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    m.set("wall_s", col(&|r| r.f64("wall_s")));
    m.set("mops_per_s", col(&|r| ratio(r.u64("ops") as f64, r.f64("wall_s")) / 1e6));
    m.set("peak_rss_mb", col(&|r| r.u64("rss_kb") as f64 / 1024.0));
    m.set("net_msgs", col(&|r| r.u64("msgs") as f64));
    m.set("net_bytes", col(&|r| r.u64("bytes") as f64));
    m.set("ok_frac", ratio((b.attempted - b.failures.len()) as f64, b.attempted as f64));
    m
}

/// The record line: everything the result line summarises, plus the host
/// fingerprint that decides which records may be compared.
fn record_line(args: &Args, b: &Bench, metrics: &Metrics) -> String {
    let fp = host::Fingerprint::probe();
    let list = |v: &[String]| v.iter().map(|s| string(s)).collect::<Vec<_>>().join(", ");
    let notes: Vec<String> = b.notes.iter().map(|(k, v)| format!("{}: {}", string(k), string(v))).collect();
    format!(
        "{{\"record\": \"perfbench\", \"workload\": {}, \"backend\": \"{}\", \"nodes\": {}, \"seed\": {}, \
         \"smoke\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host\": {{\"host_id\": \"{}\", \"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}}}, \
         \"attempted\": {}, \"failures\": [{}], \"run_wall_s\": [{}], \"notes\": {{{}}}, \"metrics\": {}}}",
        string(b.workload.name),
        child::backend_name(b.workload.backend),
        b.workload.nodes,
        args.seed,
        args.smoke,
        u8::from(args.trace),
        num(args.seconds),
        fp.host_id(),
        fp.parallelism,
        string(&fp.cpu_model),
        string(&fp.rustc),
        string(&fp.git_rev),
        b.attempted,
        list(&b.failures),
        b.walls.iter().map(|w| num(*w)).collect::<Vec<_>>().join(", "),
        notes.join(", "),
        metrics.to_json(),
    )
}

fn bench_main(argv: &[String]) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    host::adopt_orphans();
    let input = Input { app: args.workload.app, scale: if args.smoke { Scale::Smoke } else { Scale::Bench } };
    let mut b = Bench {
        workload: args.workload,
        input,
        seed: args.seed,
        seconds: args.seconds,
        expected: args.expect.clone().map_or_else(|| oracle(input), Ok),
        reference: None,
        attempted: 0,
        failures: Vec::new(),
        walls: Vec::new(),
        notes: Vec::new(),
    };
    if let Err(e) = &b.expected {
        b.fail(e.clone());
    }
    let metrics = if args.trace { layers::traced(&mut b) } else { end_to_end(&mut b) };
    eprintln!(
        "perfbench: {} ({} runs attempted, {} failed)\n{}",
        b.workload.name,
        b.attempted,
        b.failures.len(),
        metrics.to_text()
    );
    println!("{}", record_line(&args, &b, &metrics));
    let failed = b.failures.len();
    println!("{}", report::result_line(failed == 0, b.attempted, failed, &metrics));
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        // The sockets backend spawns its node workers by re-executing the
        // current binary with `worker`, as `repro` and `jsplit` do.
        Some("worker") => match jsplit_runtime::sockets::worker_main(&argv[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                1
            }
        },
        Some("child") => child::main(&argv[1..]),
        _ => bench_main(&argv),
    };
    std::process::exit(code);
}
