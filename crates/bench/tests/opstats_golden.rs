//! `repro opstats tsp --smoke` must print exactly the committed golden
//! (`ci/opstats_tsp_smoke.golden.txt`, recorded with the classic
//! interpreter's counters). The predecoded executor counts fused ops as
//! their source components, so any drift in that bookkeeping — a component
//! retired twice, skipped, or out of order, a pair chain reset in the wrong
//! place — changes a count or a pair row here.

use std::process::Command;

#[test]
fn opstats_tsp_smoke_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["opstats", "tsp", "--smoke"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro opstats failed: {}", String::from_utf8_lossy(&out.stderr));
    let golden = include_str!("../../../ci/opstats_tsp_smoke.golden.txt");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the golden", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "line count differs from the golden");
}
