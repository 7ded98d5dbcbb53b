//! Differential property testing: for randomly generated, data-race-free
//! multithreaded programs, the rewritten program on any cluster must produce
//! exactly the output of the original program on the baseline VM — the
//! paper's transparency claim, checked over a whole program space instead of
//! three hand-picked benchmarks.
//!
//! Program space: `t` worker threads each execute a random sequence of
//! operations against shared state, all under monitors (so every program is
//! DRF by construction) and designed so the *observable output* is
//! schedule-independent:
//!
//! * add a constant to a shared counter (synchronized) — total is
//!   commutative;
//! * write into a per-thread slot of a shared array — slots are disjoint;
//! * push then pop its own marker on the shared Vector — net size is zero;
//! * spin on local arithmetic — perturbs timing only.
//!
//! Main joins everything and prints the counter, the array and the Vector
//! size.
//!
//! The same programs, and the three paper applications, also cross-check
//! the two interpreter tiers: on `LocalVm`, the predecoded executor must
//! reproduce the classic interpreter's output, virtual time and retired-op
//! count exactly, for the original program and for its rewrite (whose DSM
//! checks are what the check-fused superinstructions execute), under both
//! cost profiles (only IBM prices a repeated access differently from a
//! first one).

use javasplit::mjvm::builder::ProgramBuilder;
use javasplit::mjvm::class::Program;
use javasplit::mjvm::cost::JvmProfile;
use javasplit::mjvm::instr::{Cmp, ElemTy, Ty};
use javasplit::mjvm::LocalVm;
use javasplit::runtime::exec::run_cluster;
use javasplit::runtime::ClusterConfig;
use proptest::prelude::*;

/// One worker action.
#[derive(Debug, Clone)]
enum Op {
    /// counter.add(k)
    Add(i32),
    /// slots[self] += k (disjoint per worker)
    Slot(i32),
    /// vector.addElement(x); vector.removeLast()
    PushPop,
    /// burn `n` iterations of local arithmetic
    Spin(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-50i32..50).prop_map(Op::Add),
        (-9i32..9).prop_map(Op::Slot),
        Just(Op::PushPop),
        (1u8..20).prop_map(Op::Spin),
    ]
}

#[derive(Debug, Clone)]
struct Spec {
    workers: Vec<Vec<Op>>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..8), 1..5)
        .prop_map(|workers| Spec { workers })
}

/// Compile a spec into an MJVM program.
fn build(spec: &Spec) -> Program {
    let nworkers = spec.workers.len() as i32;
    let mut pb = ProgramBuilder::new("D");
    pb.class("State", "java.lang.Object", |cb| {
        cb.default_ctor("java.lang.Object");
        cb.field("counter", Ty::I32).field("slots", Ty::Ref).field("vec", Ty::Ref);
        cb.synchronized_method("add", &[Ty::I32], None, |m| {
            m.load(0).load(0).getfield("State", "counter").load(1).iadd().putfield("State", "counter").ret();
        });
        cb.synchronized_method("slot", &[Ty::I32, Ty::I32], None, |m| {
            // slots[i] += k
            m.load(0).getfield("State", "slots").load(1);
            m.load(0).getfield("State", "slots").load(1).aload(ElemTy::I32).load(2).iadd();
            m.astore(ElemTy::I32);
            m.ret();
        });
    });
    // One worker class per distinct op list (they may differ in body).
    for (i, ops) in spec.workers.iter().enumerate() {
        let cls = format!("W{i}");
        let ops = ops.clone();
        let idx = i as i32;
        pb.class(&cls, "java.lang.Thread", |cb| {
            cb.field("st", Ty::Ref);
            let cls2 = cls.clone();
            cb.method("<init>", &[Ty::Ref], None, move |m| {
                m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
                m.load(0).load(1).putfield(&cls2, "st").ret();
            });
            let cls3 = cls.clone();
            cb.method("run", &[], None, move |m| {
                for op in &ops {
                    match op {
                        Op::Add(k) => {
                            m.load(0)
                                .getfield(&cls3, "st")
                                .const_i32(*k)
                                .invokevirtual("add", &[Ty::I32], None);
                        }
                        Op::Slot(k) => {
                            m.load(0)
                                .getfield(&cls3, "st")
                                .const_i32(idx)
                                .const_i32(*k)
                                .invokevirtual("slot", &[Ty::I32, Ty::I32], None);
                        }
                        Op::PushPop => {
                            m.load(0)
                                .getfield(&cls3, "st")
                                .getfield("State", "vec")
                                .ldc_str("m")
                                .invokevirtual("addElement", &[Ty::Ref], None);
                            m.load(0)
                                .getfield(&cls3, "st")
                                .getfield("State", "vec")
                                .invokevirtual("removeLast", &[], Some(Ty::Ref))
                                .pop_();
                        }
                        Op::Spin(n) => {
                            let top = m.new_label();
                            let end = m.new_label();
                            m.const_i32(0).store(1);
                            m.bind(top);
                            m.load(1).const_i32(*n as i32).if_icmp(Cmp::Ge, end);
                            m.load(1).const_i32(3).imul().const_i32(1).iadd().pop_();
                            m.iinc(1, 1).goto(top);
                            m.bind(end);
                        }
                    }
                }
                m.ret();
            });
        });
    }
    pb.class("D", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            // locals: 0=state 1=workers 2=i
            m.construct("State", &[], |_| {}).store(0);
            m.load(0).const_i32(nworkers).newarray(ElemTy::I32).putfield("State", "slots");
            m.load(0);
            m.construct("java.util.Vector", &[Ty::I32], |m| {
                m.const_i32(2);
            });
            m.putfield("State", "vec");
            m.const_i32(nworkers).newarray(ElemTy::Ref).store(1);
            for i in 0..nworkers {
                m.load(1).const_i32(i);
                m.construct(&format!("W{i}"), &[Ty::Ref], |m| {
                    m.load(0);
                });
                m.astore(ElemTy::Ref);
                m.load(1).const_i32(i).aload(ElemTy::Ref).invokevirtual("start", &[], None);
            }
            let jt = m.new_label();
            let je = m.new_label();
            m.const_i32(0).store(2);
            m.bind(jt);
            m.load(2).const_i32(nworkers).if_icmp(Cmp::Ge, je);
            m.load(1).load(2).aload(ElemTy::Ref).invokevirtual("join", &[], None);
            m.iinc(2, 1).goto(jt);
            m.bind(je);
            // print counter, each slot, vector size
            m.load(0).getfield("State", "counter").println_i32();
            for i in 0..nworkers {
                m.load(0).getfield("State", "slots").const_i32(i).aload(ElemTy::I32).println_i32();
            }
            m.load(0).getfield("State", "vec").invokevirtual("size", &[], Some(Ty::I32)).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Rust-side oracle for the expected output.
fn oracle(spec: &Spec) -> Vec<String> {
    let mut counter = 0i32;
    let mut slots = vec![0i32; spec.workers.len()];
    for (i, ops) in spec.workers.iter().enumerate() {
        for op in ops {
            match op {
                Op::Add(k) => counter = counter.wrapping_add(*k),
                Op::Slot(k) => slots[i] = slots[i].wrapping_add(*k),
                _ => {}
            }
        }
    }
    let mut out = vec![counter.to_string()];
    out.extend(slots.iter().map(|s| s.to_string()));
    out.push("0".to_string()); // vector net size
    out
}

/// Everything a `LocalVm` run shows: output, virtual time, retired ops,
/// traps, deadlock.
type LocalObs = (Vec<String>, u64, u64, String, bool);

fn local_run(p: &Program, rewritten: bool, profile: JvmProfile, classic: bool) -> LocalObs {
    let model = profile.cost_model();
    let load = if rewritten { LocalVm::new_rewritten(p, model) } else { LocalVm::new(p, model) };
    let mut vm = load.expect("load");
    vm.classic_interp = classic;
    let r = vm.run();
    (r.output, r.time_ps, r.ops, format!("{:?}", r.errors), r.deadlocked)
}

/// Run `original` and its rewrite on `LocalVm` under both tiers and both
/// profiles; the predecoded run must match the classic one exactly. Each
/// run must also finish cleanly, so agreement is never agreement on a
/// trap.
fn tiers_agree(original: &Program) -> Result<(), String> {
    let rewritten = javasplit::rewriter::rewrite_program(original).map_err(|e| format!("rewrite: {e:?}"))?.program;
    for (form, p, rw) in [("original", original, false), ("rewritten", &rewritten, true)] {
        for profile in [JvmProfile::SunSim, JvmProfile::IbmSim] {
            let classic = local_run(p, rw, profile, true);
            let fast = local_run(p, rw, profile, false);
            let ctx = format!("{form} ({})", profile.name());
            if classic.3 != "[]" || classic.4 {
                return Err(format!("{ctx}: classic run did not finish cleanly: {classic:?}"));
            }
            if classic != fast {
                return Err(format!("{ctx}: predecoded {fast:?} != classic {classic:?}"));
            }
        }
    }
    Ok(())
}

#[test]
fn localvm_tiers_agree_on_the_three_apps() {
    use javasplit::apps::{raytracer, series, tsp};
    for (app, p) in [
        ("tsp", tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })),
        ("series", series::program(series::SeriesParams { n: 16, intervals: 40, threads: 8 })),
        ("raytracer", raytracer::program(raytracer::RayParams { size: 16, grid: 2, threads: 8 })),
    ] {
        if let Err(e) = tiers_agree(&p) {
            panic!("{app}: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn distributed_output_matches_baseline_and_oracle(spec in spec_strategy()) {
        let prog = build(&spec);
        let expected = oracle(&spec);

        let base = run_cluster(ClusterConfig::baseline(JvmProfile::SunSim, 2), &prog).unwrap();
        prop_assert!(base.errors.is_empty(), "baseline trapped: {:?}", base.errors);
        prop_assert!(!base.deadlocked);
        prop_assert_eq!(&base.output, &expected, "baseline vs oracle");

        for nodes in [1usize, 3] {
            let r = run_cluster(ClusterConfig::javasplit(JvmProfile::IbmSim, nodes), &prog).unwrap();
            prop_assert!(r.errors.is_empty(), "{nodes} nodes trapped: {:?}", r.errors);
            prop_assert!(!r.deadlocked, "{nodes} nodes deadlocked");
            prop_assert_eq!(&r.output, &expected, "{} nodes vs oracle", nodes);
        }
    }

    #[test]
    fn chunked_arrays_preserve_transparency(spec in spec_strategy()) {
        // Same differential property with the 4.3 region-CU extension on —
        // the chunk size is deliberately tiny so the shared slots array is
        // always chunked.
        let prog = build(&spec);
        let expected = oracle(&spec);
        let mut cfg = ClusterConfig::javasplit(JvmProfile::IbmSim, 3);
        cfg.array_chunk = Some(2);
        let r = run_cluster(cfg, &prog).unwrap();
        prop_assert!(r.errors.is_empty(), "chunked trapped: {:?}", r.errors);
        prop_assert!(!r.deadlocked);
        prop_assert_eq!(&r.output, &expected, "chunked vs oracle");
    }

    #[test]
    fn localvm_tiers_agree_on_generated_programs(spec in spec_strategy()) {
        let r = tiers_agree(&build(&spec));
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn both_protocol_modes_agree(spec in spec_strategy()) {
        let prog = build(&spec);
        let expected = oracle(&spec);
        for mode in [javasplit::dsm::ProtocolMode::MtsHlrc, javasplit::dsm::ProtocolMode::ClassicHlrc] {
            let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_protocol(mode);
            let r = run_cluster(cfg, &prog).unwrap();
            prop_assert!(r.errors.is_empty(), "{mode:?} trapped: {:?}", r.errors);
            prop_assert_eq!(&r.output, &expected, "{:?} vs oracle", mode);
        }
    }
}
