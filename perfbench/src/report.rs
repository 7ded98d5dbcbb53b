//! Metric names and units, summary statistics, and the JSON the benchmark
//! prints. `BENCHMARK.json` lists the same names; the self-tests check that
//! the two agree.

use std::fmt::Write as _;

/// (name, unit) of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("mops_per_s", "Mops/s"),
    ("peak_rss_mb", "MB"),
    ("net_msgs", "count"),
    ("net_bytes", "B"),
    ("ok_frac", "ratio"),
];

/// (name, unit) of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("rewriter.rewrite_ms", "ms"),
    ("rewriter.checks_inserted", "count"),
    ("rewriter.code_growth", "ratio"),
    ("rewriter.slowdown_1node", "ratio"),
    ("mjvm.load_ms", "ms"),
    ("mjvm.predecode_ms", "ms"),
    ("mjvm.ops", "count"),
    ("mjvm.ns_per_op_1node", "ns"),
    ("dsm.fetches", "count"),
    ("dsm.diffs_sent", "count"),
    ("dsm.diff_fields", "count"),
    ("dsm.shared_acquires_remote", "count"),
    ("dsm.grants_sent", "count"),
    ("dsm.invalidations", "count"),
    ("dsm.releases_awaiting_acks", "count"),
    ("dsm.remote_acquire_frac", "ratio"),
    ("dsm.diff_ns_per_field", "ns"),
    ("dsm.msg_encode_ns", "ns"),
    ("dsm.msg_decode_ns", "ns"),
    ("net.frames", "count"),
    ("net.msgs_per_frame", "ratio"),
    ("net.frame_bytes_avg", "B"),
    ("net.envelope_ns", "ns"),
    ("net.channel_ns_per_msg", "ns"),
    ("runtime.windows", "count"),
    ("runtime.barrier_waits", "count"),
    ("runtime.us_per_window", "us"),
    ("runtime.execute_frac", "ratio"),
    ("runtime.barrier_wait_frac", "ratio"),
    ("runtime.slot_spin_frac", "ratio"),
    ("runtime.condvar_wait_frac", "ratio"),
    ("runtime.decide_frac", "ratio"),
    ("runtime.inbox_drain_frac", "ratio"),
    ("runtime.frame_flush_frac", "ratio"),
    ("runtime.event_slab_high_water", "count"),
    ("runtime.sockets_cold_start_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 { s[m] } else { (s[m - 1] + s[m]) / 2.0 }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 { 0.0 } else { a / b }
}

/// Metric values by name, in the order of a name table.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { table, values: vec![0.0; table.len()] }
    }

    /// Set a metric; panics on a name outside the table, which is a bug in
    /// this crate, never a property of a measured run.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.table.iter().position(|(n, _)| *n == name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.table.iter().position(|(n, _)| *n == name).map_or(0.0, |i| self.values[i])
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .table
            .iter()
            .zip(&self.values)
            .map(|((n, u), v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Aligned `name value unit` lines for the human-readable summary.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for ((n, u), v) in self.table.iter().zip(&self.values) {
            let _ = writeln!(s, "  {n:<32} {:>16} {u}", num(*v));
        }
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (non-finite values, which JSON cannot carry, print as 0).
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        "0".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.2034567891), "1.2034567891");
        assert_eq!(num(886.0), "886");
        assert_eq!(num(f64::NAN), "0");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
