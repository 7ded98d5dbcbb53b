//! Self-tests of the benchmark binary, at smoke scale: its names match
//! `BENCHMARK.json`, its output parses, and a wrong expected value is a
//! counted failure rather than a crash.

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for the benchmark's own output and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { s: s.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at {}", p.i));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key} in {self:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.string()? else { unreachable!() };
                    self.eat(b':')?;
                    let v = self.value()?;
                    if m.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                text.parse().map(Json::Num).map_err(|_| format!("bad number {text:?} at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(&mut self) -> Result<Json, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(Json::Str(out)),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("bad escape")?;
                    self.i += 1;
                    match e {
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?).ok_or("bad \\u")?);
                            self.i += 4;
                        }
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let start = self.i - 1;
                    let len = match c {
                        0xf0.. => 4,
                        0xe0.. => 3,
                        0xc0.. => 2,
                        _ => 1,
                    };
                    self.i = start + len;
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?);
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn metric_table(bench: &Json, key: &str) -> BTreeMap<String, String> {
    bench.get(key).arr().iter().map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string())).collect()
}

fn workload_names(bench: &Json) -> Vec<String> {
    bench.get("workloads").arr().iter().map(|w| w.get("name").str().to_string()).collect()
}

struct Output {
    code: Option<i32>,
    stdout: Vec<String>,
    stderr: String,
}

fn perfbench(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("run perfbench");
    Output {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Run one smoke-scale invocation and return (record, result) parsed.
fn smoke(workload: &str, trace: &str, extra: &[&str]) -> (Json, Json) {
    let mut args = vec!["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", trace, "--smoke"];
    args.extend_from_slice(extra);
    let out = perfbench(&args);
    assert_eq!(out.code, Some(0), "perfbench {args:?} failed:\n{}", out.stderr);
    let n = out.stdout.len();
    assert!(n >= 2, "expected a record and a result line, got {:?}", out.stdout);
    let record = Json::parse(&out.stdout[n - 2]).unwrap_or_else(|e| panic!("record line does not parse: {e}"));
    let result = Json::parse(&out.stdout[n - 1]).unwrap_or_else(|e| panic!("result line does not parse: {e}"));
    (record, result)
}

/// The result line has exactly the documented keys, and its metrics are
/// exactly `table`, each with the table's unit.
fn assert_result_shape(result: &Json, table: &BTreeMap<String, String>) {
    let keys: Vec<&str> = result.obj().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let attempted = result.get("attempted").num();
    let failed = result.get("failed").num();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0 && failed.fract() == 0.0 && failed <= attempted);
    let metrics = result.get("metrics").obj();
    let printed: BTreeMap<String, String> = metrics.iter().map(|(k, v)| (k.clone(), v.get("unit").str().to_string())).collect();
    assert_eq!(&printed, table, "printed metrics differ from BENCHMARK.json");
    for (k, v) in metrics {
        assert_eq!(v.obj().len(), 2, "{k}: want exactly value and unit");
        assert!(v.get("value").num().is_finite(), "{k} is not a finite number");
    }
}

#[test]
fn end_to_end_output_matches_benchmark_json() {
    let bench = benchmark_json();
    let table = metric_table(&bench, "end_to_end");
    for w in workload_names(&bench) {
        let (record, result) = smoke(&w, "0", &[]);
        assert_eq!(record.get("workload").str(), w);
        assert_eq!(record.get("trace").num(), 0.0);
        assert_result_shape(&result, &table);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{w}: {:?}", record.get("failures"));
        assert_eq!(result.get("failed").num(), 0.0);
        for name in ["wall_s", "setup_s", "mops_per_s", "peak_rss_mb", "net_msgs", "net_bytes", "ok_frac"] {
            assert!(result.get("metrics").get(name).get("value").num() > 0.0, "{w}: {name} reads 0");
        }
        let host = record.get("host");
        for k in ["host_id", "available_parallelism", "cpu_model", "rustc", "git_rev"] {
            host.get(k);
        }
    }
}

#[test]
fn traced_output_matches_benchmark_json() {
    let bench = benchmark_json();
    let table = metric_table(&bench, "per_layer");
    for w in workload_names(&bench) {
        let (record, result) = smoke(&w, "1", &[]);
        assert_eq!(record.get("workload").str(), w);
        assert_result_shape(&result, &table);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{w}: {:?}", record.get("failures"));
        let m = result.get("metrics");
        for name in ["rewriter.rewrite_ms", "rewriter.checks_inserted", "mjvm.load_ms", "mjvm.ops", "rewriter.slowdown_1node"] {
            assert!(m.get(name).get("value").num() > 0.0, "{w}: {name} reads 0");
        }
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let bench = benchmark_json();
    let out = perfbench(&["--workload", "no-such-workload", "--seconds", "1", "--trace", "0"]);
    assert_ne!(out.code, Some(0));
    assert!(out.stdout.is_empty(), "an invalid invocation must print no result");
    let listed = out.stderr.split("want one of ").nth(1).expect("error lists the workloads");
    let listed: Vec<String> = listed.trim().trim_end_matches(')').split(", ").map(str::to_string).collect();
    assert_eq!(listed, workload_names(&bench));
}

#[test]
fn wrong_expected_value_is_a_counted_failure() {
    for (w, trace) in [("tsp-sockets2", "0"), ("series-threads2", "1")] {
        let (record, result) = smoke(w, trace, &["--expect", "-1"]);
        assert_eq!(result.get("correct"), &Json::Bool(false));
        let attempted = result.get("attempted").num();
        assert!(attempted >= 1.0);
        assert!(result.get("failed").num() >= 1.0);
        let failures = record.get("failures").arr();
        assert!(failures.iter().any(|f| f.str().contains("differs from the oracle")), "{failures:?}");
    }
}
