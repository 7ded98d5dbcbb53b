//! The MJVM bootstrap library (the analogue of the JDK bootstrap classes).
//!
//! Pure-bytecode classes (`Thread.join`, `StringBuilder`, `Vector`, `Random`,
//! the thread-exit trampoline) go through the rewriter's *automatic*
//! bootstrap-rewriting path; classes with native methods (`Object`, `Math`,
//! `System`, `String`, `VFile`) keep their natives and play the role of the
//! paper's hand-written `javasplit` wrapper classes (§4.1).
//!
//! `java.util.Vector`'s synchronized methods intentionally mirror the JDK's:
//! they are the paper's canonical example of *unneeded synchronization* that
//! the local-object lock counter optimization (§4.4) makes cheap again.

use crate::builder::ProgramBuilder;
use crate::class::ClassFile;
use crate::instr::{Cmp, ElemTy, Ty};

pub const OBJECT: &str = "java.lang.Object";
pub const STRING: &str = "java.lang.String";
pub const THREAD: &str = "java.lang.Thread";
pub const SYSTEM: &str = "java.lang.System";
pub const MATH: &str = "java.lang.Math";
pub const STRINGBUILDER: &str = "java.lang.StringBuilder";
pub const RANDOM: &str = "java.util.Random";
pub const VECTOR: &str = "java.util.Vector";
pub const VFILE: &str = "java.io.VFile";
/// Runtime support class holding the thread-exit trampoline.
pub const JSRUNTIME: &str = "java.lang.JSRuntime";
/// Name of the constant static field through which rewritten code reaches
/// a class's `C_static` instance (paper §4.2).
pub const STATICS_HOLDER: &str = "__javasplit__statics__";
/// Suffix of the rewriter's synthesized statics-companion classes.
pub const STATIC_SUFFIX: &str = "_static";

/// Build all bootstrap classes.
pub fn stdlib_classes() -> Vec<ClassFile> {
    let mut classes: Vec<ClassFile> = Vec::new();

    // ---- java.lang.Object: the root (no super — assembled by hand) ----
    {
        let mut obj = ClassFile::new(OBJECT, None);
        obj.is_bootstrap = true;
        obj.methods.push(crate::class::MethodDef {
            sig: crate::class::Sig::new("<init>", &[], None),
            is_static: false,
            is_synchronized: false,
            is_native: false,
            max_locals: 1,
            code: vec![crate::instr::Instr::Return],
        });
        push_native(&mut obj, "hashCode", &[], Some(Ty::I32), false);
        push_native(&mut obj, "equals", &[Ty::Ref], Some(Ty::I32), false);
        push_native(&mut obj, "wait", &[], None, false);
        push_native(&mut obj, "notify", &[], None, false);
        push_native(&mut obj, "notifyAll", &[], None, false);
        classes.push(obj);
    }

    // ---- remaining bootstrap classes via the fluent API ----
    let mut pb = ProgramBuilder::new("<stdlib>");

    // java.lang.String — immutable payload; all behaviour native.
    pb.class(STRING, OBJECT, |cb| {
        cb.bootstrap();
        cb.native_method("length", &[], Some(Ty::I32), false)
            .native_method("charAt", &[Ty::I32], Some(Ty::I32), false)
            .native_method("concat", &[Ty::Ref], Some(Ty::Ref), false)
            .native_method("equals", &[Ty::Ref], Some(Ty::I32), false)
            .native_method("valueOfI", &[Ty::I32], Some(Ty::Ref), true)
            .native_method("valueOfJ", &[Ty::I64], Some(Ty::Ref), true)
            .native_method("valueOfD", &[Ty::F64], Some(Ty::Ref), true);
    });

    // java.lang.Math — static natives only.
    pb.class(MATH, OBJECT, |cb| {
        cb.bootstrap();
        for f in ["sqrt", "sin", "cos", "tan", "atan", "exp", "log", "abs", "floor", "ceil"] {
            cb.native_method(f, &[Ty::F64], Some(Ty::F64), true);
        }
        cb.native_method("pow", &[Ty::F64, Ty::F64], Some(Ty::F64), true)
            .native_method("absI", &[Ty::I32], Some(Ty::I32), true)
            .native_method("minI", &[Ty::I32, Ty::I32], Some(Ty::I32), true)
            .native_method("maxI", &[Ty::I32, Ty::I32], Some(Ty::I32), true);
    });

    // java.lang.System — console, arraycopy, virtual clock.
    pb.class(SYSTEM, OBJECT, |cb| {
        cb.bootstrap();
        cb.native_method("println", &[Ty::Ref], None, true)
            .native_method("printlnI", &[Ty::I32], None, true)
            .native_method("printlnJ", &[Ty::I64], None, true)
            .native_method("printlnD", &[Ty::F64], None, true)
            .native_method("arraycopy", &[Ty::Ref, Ty::I32, Ty::Ref, Ty::I32, Ty::I32], None, true)
            .native_method("currentTimeMillis", &[], Some(Ty::I64), true);
    });

    // java.io.VFile — the low-level I/O class the runtime intercepts.
    pb.class(VFILE, OBJECT, |cb| {
        cb.bootstrap();
        cb.native_method("open", &[Ty::Ref], Some(Ty::I32), true)
            .native_method("writeLine", &[Ty::I32, Ty::Ref], None, true)
            .native_method("readLine", &[Ty::I32], Some(Ty::Ref), true)
            .native_method("close", &[Ty::I32], None, true);
    });

    // java.lang.Thread — lifecycle in bytecode, creation via native start0.
    pb.class(THREAD, OBJECT, |cb| {
        cb.bootstrap();
        cb.field("target", Ty::Ref).field("priority", Ty::I32).field("alive", Ty::I32);
        cb.method("<init>", &[], None, |m| {
            m.load(0)
                .invokespecial(OBJECT, "<init>", &[], None)
                .load(0)
                .const_i32(5)
                .putfield(THREAD, "priority")
                .ret();
        });
        cb.method("<init>", &[Ty::Ref], None, |m| {
            m.load(0)
                .invokespecial(OBJECT, "<init>", &[], None)
                .load(0)
                .load(1)
                .putfield(THREAD, "target")
                .load(0)
                .const_i32(5)
                .putfield(THREAD, "priority")
                .ret();
        });
        // Default run(): delegate to the target Runnable, if any.
        cb.method("run", &[], None, |m| {
            let done = m.new_label();
            m.load(0).getfield(THREAD, "target").if_null(done);
            m.load(0).getfield(THREAD, "target").invokevirtual("run", &[], None);
            m.bind(done).ret();
        });
        // start(): publish alive=1 under the monitor, then hand the thread to
        // the VM. The rewriter substitutes the `start0` call site with
        // DsmSpawn (paper §4, change 1).
        cb.method("start", &[], None, |m| {
            m.load(0).monitor_enter();
            m.load(0).const_i32(1).putfield(THREAD, "alive");
            m.load(0).monitor_exit();
            m.load(0).invokevirtual("start0", &[], None).ret();
        });
        cb.native_method("start0", &[], None, false);
        cb.native_method("sleep", &[Ty::I64], None, true);
        cb.native_method("currentThread", &[], Some(Ty::Ref), true);
        cb.native_method("yield", &[], None, true);
        cb.method("setPriority", &[Ty::I32], None, |m| {
            m.load(0).load(1).putfield(THREAD, "priority").ret();
        });
        cb.method("getPriority", &[], Some(Ty::I32), |m| {
            m.load(0).getfield(THREAD, "priority").ret_val();
        });
        cb.synchronized_method("isAlive", &[], Some(Ty::I32), |m| {
            m.load(0).getfield(THREAD, "alive").ret_val();
        });
        // join(): the classic monitor idiom — works across nodes because the
        // DSM lock transfer carries the write notice that invalidates the
        // cached `alive` field.
        cb.synchronized_method("join", &[], None, |m| {
            let top = m.new_label();
            let out = m.new_label();
            m.bind(top);
            m.load(0).getfield(THREAD, "alive").if_i(Cmp::Eq, out);
            m.load(0).invokevirtual("wait", &[], None);
            m.goto(top);
            m.bind(out).ret();
        });
    });

    // java.lang.JSRuntime — the thread-exit trampoline every spawned thread
    // actually runs: run(), then clear `alive` and notify joiners.
    pb.class(JSRUNTIME, OBJECT, |cb| {
        cb.bootstrap();
        cb.static_method("threadMain", &[Ty::Ref], None, |m| {
            m.load(0).invokevirtual("run", &[], None);
            m.load(0).monitor_enter();
            m.load(0).const_i32(0).putfield(THREAD, "alive");
            m.load(0).invokevirtual("notifyAll", &[], None);
            m.load(0).monitor_exit();
            m.ret();
        });
    });

    // java.lang.StringBuilder — concat-based, enough for formatted output.
    pb.class(STRINGBUILDER, OBJECT, |cb| {
        cb.bootstrap();
        cb.field("s", Ty::Ref);
        cb.method("<init>", &[], None, |m| {
            m.load(0)
                .invokespecial(OBJECT, "<init>", &[], None)
                .load(0)
                .ldc_str("")
                .putfield(STRINGBUILDER, "s")
                .ret();
        });
        cb.method("append", &[Ty::Ref], Some(Ty::Ref), |m| {
            m.load(0)
                .load(0)
                .getfield(STRINGBUILDER, "s")
                .load(1)
                .invokevirtual("concat", &[Ty::Ref], Some(Ty::Ref))
                .putfield(STRINGBUILDER, "s")
                .load(0)
                .ret_val();
        });
        cb.method("appendI", &[Ty::I32], Some(Ty::Ref), |m| {
            m.load(0)
                .load(1)
                .invokestatic(STRING, "valueOfI", &[Ty::I32], Some(Ty::Ref))
                .invokevirtual("append", &[Ty::Ref], Some(Ty::Ref))
                .ret_val();
        });
        cb.method("appendJ", &[Ty::I64], Some(Ty::Ref), |m| {
            m.load(0)
                .load(1)
                .invokestatic(STRING, "valueOfJ", &[Ty::I64], Some(Ty::Ref))
                .invokevirtual("append", &[Ty::Ref], Some(Ty::Ref))
                .ret_val();
        });
        cb.method("appendD", &[Ty::F64], Some(Ty::Ref), |m| {
            m.load(0)
                .load(1)
                .invokestatic(STRING, "valueOfD", &[Ty::F64], Some(Ty::Ref))
                .invokevirtual("append", &[Ty::Ref], Some(Ty::Ref))
                .ret_val();
        });
        cb.method("toString", &[], Some(Ty::Ref), |m| {
            m.load(0).getfield(STRINGBUILDER, "s").ret_val();
        });
    });

    // java.util.Random — 64-bit LCG (deterministic across nodes).
    pb.class(RANDOM, OBJECT, |cb| {
        cb.bootstrap();
        cb.field("seed", Ty::I64);
        cb.method("<init>", &[Ty::I64], None, |m| {
            m.load(0)
                .invokespecial(OBJECT, "<init>", &[], None)
                .load(0)
                .load(1)
                .putfield(RANDOM, "seed")
                .ret();
        });
        // nextInt(bound): seed = seed*6364136223846793005 + 1442695040888963407;
        // return abs((int)(seed >> 33)) % bound.
        cb.method("nextInt", &[Ty::I32], Some(Ty::I32), |m| {
            m.load(0)
                .load(0)
                .getfield(RANDOM, "seed")
                .const_i64(6364136223846793005)
                .lmul()
                .const_i64(1442695040888963407)
                .ladd()
                .putfield(RANDOM, "seed");
            // high bits: (seed / 2^33) — adequate mixing for an LCG.
            m.load(0)
                .getfield(RANDOM, "seed")
                .const_i64(8589934592) // 2^33
                .ldiv()
                .l2i()
                .invokestatic(MATH, "absI", &[Ty::I32], Some(Ty::I32))
                .load(1)
                .irem()
                .ret_val();
        });
        cb.method("nextDouble", &[], Some(Ty::F64), |m| {
            m.load(0)
                .const_i32(1000000)
                .invokevirtual("nextInt", &[Ty::I32], Some(Ty::I32))
                .i2d()
                .const_f64(1000000.0)
                .ddiv()
                .ret_val();
        });
    });

    // java.util.Vector — synchronized growable array (JDK-style).
    pb.class(VECTOR, OBJECT, |cb| {
        cb.bootstrap();
        cb.field("arr", Ty::Ref).field("size", Ty::I32);
        cb.method("<init>", &[Ty::I32], None, |m| {
            m.load(0).invokespecial(OBJECT, "<init>", &[], None);
            m.load(0).load(1).newarray(ElemTy::Ref).putfield(VECTOR, "arr");
            m.load(0).const_i32(0).putfield(VECTOR, "size").ret();
        });
        cb.synchronized_method("size", &[], Some(Ty::I32), |m| {
            m.load(0).getfield(VECTOR, "size").ret_val();
        });
        cb.synchronized_method("elementAt", &[Ty::I32], Some(Ty::Ref), |m| {
            m.load(0).getfield(VECTOR, "arr").load(1).aload(ElemTy::Ref).ret_val();
        });
        cb.synchronized_method("addElement", &[Ty::Ref], None, |m| {
            let fits = m.new_label();
            // grow if size == arr.length
            m.load(0)
                .getfield(VECTOR, "size")
                .load(0)
                .getfield(VECTOR, "arr")
                .arraylen()
                .if_icmp(Cmp::Lt, fits);
            // newArr = new Ref[max(1, 2*len)]; arraycopy; arr = newArr
            m.load(0)
                .getfield(VECTOR, "arr")
                .arraylen()
                .const_i32(2)
                .imul()
                .const_i32(1)
                .invokestatic(MATH, "maxI", &[Ty::I32, Ty::I32], Some(Ty::I32))
                .newarray(ElemTy::Ref)
                .store(2);
            m.load(0)
                .getfield(VECTOR, "arr")
                .const_i32(0)
                .load(2)
                .const_i32(0)
                .load(0)
                .getfield(VECTOR, "size")
                .invokestatic(SYSTEM, "arraycopy", &[Ty::Ref, Ty::I32, Ty::Ref, Ty::I32, Ty::I32], None);
            m.load(0).load(2).putfield(VECTOR, "arr");
            m.bind(fits);
            m.load(0)
                .getfield(VECTOR, "arr")
                .load(0)
                .getfield(VECTOR, "size")
                .load(1)
                .astore(ElemTy::Ref);
            m.load(0).load(0).getfield(VECTOR, "size").const_i32(1).iadd().putfield(VECTOR, "size");
            m.ret();
        });
        // removeLast(): pop the most recent element (null if empty).
        cb.synchronized_method("removeLast", &[], Some(Ty::Ref), |m| {
            let empty = m.new_label();
            m.load(0).getfield(VECTOR, "size").if_i(Cmp::Le, empty);
            m.load(0).load(0).getfield(VECTOR, "size").const_i32(1).isub().putfield(VECTOR, "size");
            m.load(0)
                .getfield(VECTOR, "arr")
                .load(0)
                .getfield(VECTOR, "size")
                .aload(ElemTy::Ref)
                .ret_val();
            m.bind(empty).const_null().ret_val();
        });
        cb.synchronized_method("isEmpty", &[], Some(Ty::I32), |m| {
            let yes = m.new_label();
            m.load(0).getfield(VECTOR, "size").if_i(Cmp::Le, yes);
            m.const_i32(0).ret_val();
            m.bind(yes).const_i32(1).ret_val();
        });
    });

    let built = pb.build();
    let mut out = classes;
    out.extend(built.classes.into_iter().map(|mut c| {
        c.is_bootstrap = true;
        c
    }));
    out
}

fn push_native(cf: &mut ClassFile, name: &str, params: &[Ty], ret: Option<Ty>, is_static: bool) {
    cf.methods.push(crate::class::MethodDef {
        sig: crate::class::Sig::new(name, params, ret),
        is_static,
        is_synchronized: false,
        is_native: true,
        max_locals: 0,
        code: vec![],
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdlib_has_all_core_classes() {
        let classes = stdlib_classes();
        for n in [OBJECT, STRING, THREAD, SYSTEM, MATH, STRINGBUILDER, RANDOM, VECTOR, VFILE, JSRUNTIME] {
            assert!(classes.iter().any(|c| &*c.name == n), "missing {n}");
        }
        assert!(classes.iter().all(|c| c.is_bootstrap));
    }

    #[test]
    fn object_is_root() {
        let classes = stdlib_classes();
        let obj = classes.iter().find(|c| &*c.name == OBJECT).unwrap();
        assert!(obj.super_name.is_none());
        assert!(obj.method("wait").unwrap().is_native);
        assert!(obj.method("<init>").is_some());
    }

    #[test]
    fn vector_methods_are_synchronized() {
        let classes = stdlib_classes();
        let v = classes.iter().find(|c| &*c.name == VECTOR).unwrap();
        for m in ["size", "elementAt", "addElement", "removeLast", "isEmpty"] {
            assert!(v.method(m).unwrap().is_synchronized, "{m} must be synchronized");
        }
    }

    #[test]
    fn thread_join_is_wait_loop() {
        let classes = stdlib_classes();
        let t = classes.iter().find(|c| &*c.name == THREAD).unwrap();
        let join = t.method("join").unwrap();
        assert!(join.is_synchronized);
        assert!(join
            .code
            .iter()
            .any(|i| matches!(i, crate::instr::Instr::InvokeVirtual(s) if &*s.name == "wait")));
    }
}
