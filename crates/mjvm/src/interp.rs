//! The MJVM execution model and the classic (reference) interpreter.
//!
//! This module defines what a thread is ([`Thread`], [`Frame`]), what it
//! executes against ([`VmEnv`]) and how a quantum ends ([`StepOutcome`]),
//! plus the helpers both interpreter tiers share (natives, frame pop,
//! array access). All environment-dependent behaviour — monitors, DSM
//! access checks, thread spawning, I/O, time — is delegated to a
//! [`VmEnv`], so the identical interpreter executes the *original* program
//! on the baseline VM and the *rewritten* program inside the distributed
//! JavaSplit runtime.
//!
//! [`step`] is the classic enum-decode interpreter: it runs a thread for up
//! to `fuel` instructions, charging virtual-time costs from the node's
//! [`CostModel`], until the thread blocks, finishes or exhausts the
//! quantum. Cluster nodes run the predecoded executor
//! ([`crate::pcode::step`]); classic is the reference semantics that
//! executor is tested against, run only through
//! [`LocalVm::classic_interp`](crate::localvm::LocalVm::classic_interp).
//!
//! Blocking discipline: instructions that may block come in two styles.
//!
//! * **retry** — access checks, `monitorenter` and friends return before any
//!   stack mutation; the thread suspends with `pc` still at the blocking
//!   instruction and simply re-executes it when woken (the fetch/acquire has
//!   completed by then). This matches how a real DSM read-miss handler
//!   blocks before the faulting access.
//! * **complete** — `wait`, `sleep` and similar natives finish their logical
//!   effect, the interpreter advances `pc`, and the thread resumes *after*
//!   the instruction.

use crate::cost::{CostModel, Rw};
use crate::heap::{Heap, ObjPayload, ObjRef, ThreadUid};
use crate::instr::{AccessKind, ElemTy, Instr};
use crate::intrinsics::{self, NativeOp};
use crate::loader::{Image, MethodId};
use crate::value::Value;

/// Runtime trap (MJVM has no exception handling; a trap kills the thread and
/// is surfaced in the run report — a documented substitution for Java
/// exceptions).
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    NullDeref { method: String, pc: usize },
    DivByZero { method: String, pc: usize },
    IndexOutOfBounds { len: usize, idx: i64 },
    NegativeArraySize(i64),
    StackUnderflow { method: String, pc: usize },
    IllegalMonitorState { op: &'static str },
    NoSuchMethod(String),
    Unquickened(String),
    TypeMismatch(String),
    VolatileStackEmpty,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::NullDeref { method, pc } => write!(f, "null dereference in {method}@{pc}"),
            VmError::DivByZero { method, pc } => write!(f, "division by zero in {method}@{pc}"),
            VmError::IndexOutOfBounds { len, idx } => {
                write!(f, "array index {idx} out of bounds (len {len})")
            }
            VmError::NegativeArraySize(n) => write!(f, "negative array size {n}"),
            VmError::StackUnderflow { method, pc } => write!(f, "stack underflow in {method}@{pc}"),
            VmError::IllegalMonitorState { op } => write!(f, "illegal monitor state in {op}"),
            VmError::NoSuchMethod(m) => write!(f, "no such method: {m}"),
            VmError::Unquickened(i) => write!(f, "unquickened instruction at runtime: {i}"),
            VmError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            VmError::VolatileStackEmpty => write!(f, "volatile release without acquire"),
        }
    }
}

impl std::error::Error for VmError {}

/// One activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    pub method: MethodId,
    pub pc: usize,
    pub locals: Vec<Value>,
    pub stack: Vec<Value>,
    /// For synchronized methods: whether the receiver monitor is held yet.
    pub entered_monitor: bool,
    /// Objects acquired by `DsmVolatileAcquire`, awaiting release.
    pub vol_stack: Vec<ObjRef>,
}

impl Frame {
    pub fn new(method: MethodId, max_locals: u16, args: Vec<Value>, synchronized: bool) -> Frame {
        let mut locals = args;
        locals.resize(max_locals as usize, Value::Null);
        Frame {
            method,
            pc: 0,
            locals,
            stack: Vec::with_capacity(8),
            entered_monitor: !synchronized,
            vol_stack: Vec::new(),
        }
    }
}

/// An application thread: a stack of frames plus scheduling metadata.
#[derive(Debug)]
pub struct Thread {
    pub uid: ThreadUid,
    pub frames: Vec<Frame>,
    /// The `java.lang.Thread` heap object representing this thread, if any
    /// (the initial `main` thread gets one lazily on `currentThread()`).
    pub thread_obj: Option<ObjRef>,
    /// Java thread priority (1..=10); the queue-passing lock protocol grants
    /// to the highest-priority requester (paper §3.2).
    pub priority: i32,
    /// Inline access cache (models the IBM JIT's repeated-access
    /// optimization); key packs kind/object/slot. Cleared by `DsmCheck*`.
    pub last_access: u64,
}

/// Sentinel for "no cached access".
pub const NO_ACCESS: u64 = u64::MAX;

impl Thread {
    pub fn new(uid: ThreadUid, root: Frame) -> Thread {
        Thread { uid, frames: vec![root], thread_obj: None, priority: 5, last_access: NO_ACCESS }
    }
}

#[inline]
pub(crate) fn access_key(kind: AccessKind, obj: u32, slot: u32) -> u64 {
    let k = match kind {
        AccessKind::Field => 0u64,
        AccessKind::Static => 1,
        AccessKind::Array => 2,
    };
    (k << 61) | ((obj as u64) << 29) | slot as u64
}

/// Result of a [`VmEnv::check_read`]/`check_write` access check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Copy valid — fall through to the access (Figure 3 fast path).
    Proceed,
    /// Read/write miss: the environment has issued a fetch and will wake the
    /// thread; re-execute the check on resume.
    Miss,
}

/// Result of a (possibly blocking) monitor acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonOutcome {
    /// Acquired; `cost` is the acquire's virtual-time price.
    Entered { cost: u64 },
    /// Thread is now queued; the environment will wake it as owner.
    Blocked { cost: u64 },
}

/// How a `step` call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepState {
    /// Quantum exhausted (or yielded); thread is still runnable.
    Running,
    /// Thread blocked; the environment is responsible for waking it.
    Blocked,
    /// Root frame returned — thread finished.
    Done,
}

/// Outcome of a quantum.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    pub state: StepState,
    /// Virtual time consumed, in picoseconds.
    pub cost: u64,
    /// Instructions retired.
    pub ops: u64,
}

/// The environment a thread executes against. The baseline VM implements
/// this with classic in-heap monitors; the distributed runtime implements it
/// with the MTS-HLRC protocol engine.
#[allow(unused_variables)]
pub trait VmEnv {
    // ---- DSM access checks (rewritten code only) ----
    /// `idx` is the element index for array accesses (`None` for fields,
    /// statics and `arraylength`) — region-granular coherency (the paper's
    /// §4.3 extension) needs it to locate the accessed chunk.
    fn check_read(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef, kind: AccessKind, idx: Option<i32>) -> CheckOutcome {
        CheckOutcome::Proceed
    }
    fn check_write(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef, kind: AccessKind, idx: Option<i32>) -> CheckOutcome {
        CheckOutcome::Proceed
    }

    // ---- synchronization ----
    /// Original `monitorenter` semantics (baseline VM).
    fn monitor_enter(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> MonOutcome;
    /// Original `monitorexit`; returns its cost.
    fn monitor_exit(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> Result<u64, VmError>;
    /// Substituted (JavaSplit) acquire handler (rewritten code).
    fn dsm_monitor_enter(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> MonOutcome {
        self.monitor_enter(heap, t, obj)
    }
    fn dsm_monitor_exit(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> Result<u64, VmError> {
        self.monitor_exit(heap, t, obj)
    }
    /// `Object.wait()` — always blocks (complete-style); caller must own the
    /// monitor of `obj`.
    fn obj_wait(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> Result<u64, VmError>;
    /// `Object.notify()` / `notifyAll()`.
    fn obj_notify(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef, all: bool) -> Result<u64, VmError>;
    /// Volatile-access pseudo-acquire (paper §3). Defaults to plain acquire.
    fn volatile_acquire(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> MonOutcome {
        self.dsm_monitor_enter(heap, t, obj)
    }
    fn volatile_release(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> Result<u64, VmError> {
        self.dsm_monitor_exit(heap, t, obj)
    }

    // ---- threads ----
    /// `Thread.start()` (baseline, `via_dsm = false`) or the rewriter's
    /// `DsmSpawn` handler (ships the thread to a chosen node, `via_dsm =
    /// true`). Non-blocking; returns its cost.
    fn spawn(&mut self, heap: &mut Heap, t: &mut Thread, thread_obj: ObjRef, via_dsm: bool) -> Result<u64, VmError>;
    /// `Thread.sleep(ms)` — blocks (complete-style).
    fn sleep(&mut self, t: &mut Thread, millis: i64) -> u64;
    /// `Thread.yield()` — end the quantum; returns its cost.
    fn yield_now(&mut self, t: &mut Thread) -> u64 {
        0
    }
    /// The `java.lang.Thread` object for the running thread (creating one
    /// lazily for the primordial main thread).
    fn current_thread_obj(&mut self, heap: &mut Heap, t: &mut Thread) -> ObjRef;

    // ---- I/O & time ----
    fn println(&mut self, t: &Thread, line: &str);
    fn now_millis(&self) -> i64;
    fn file_open(&mut self, name: &str) -> i32 {
        -1
    }
    fn file_write_line(&mut self, fd: i32, line: &str) {}
    fn file_read_line(&mut self, fd: i32) -> Option<String> {
        None
    }
    fn file_close(&mut self, fd: i32) {}
}

/// Everything a quantum needs besides the thread itself.
pub struct StepCtx<'a, E: VmEnv> {
    pub image: &'a Image,
    pub heap: &'a mut Heap,
    pub env: &'a mut E,
    pub cost: &'a CostModel,
}

macro_rules! pop {
    ($frame:expr, $m:expr) => {
        match $frame.stack.pop() {
            Some(v) => v,
            None => {
                return Err(VmError::StackUnderflow { method: $m.sig.to_string(), pc: $frame.pc })
            }
        }
    };
}

/// Run `thread` for up to `fuel` instructions.
pub fn step<E: VmEnv>(thread: &mut Thread, ctx: &mut StepCtx<'_, E>, fuel: u32) -> Result<StepOutcome, VmError> {
    let mut cost: u64 = 0;
    let mut ops: u64 = 0;
    let model = ctx.cost;

    'quantum: while ops < fuel as u64 {
        // --- synchronized-method entry protocol ---
        {
            let frame = match thread.frames.last_mut() {
                Some(f) => f,
                None => return Ok(StepOutcome { state: StepState::Done, cost, ops }),
            };
            if !frame.entered_monitor {
                let recv = frame.locals[0].as_ref();
                let (fm, fpc) = (frame.method, frame.pc);
                debug_assert_eq!(fpc, 0, "sync entry must happen before first instruction");
                let _ = fm;
                match ctx.env.monitor_enter(ctx.heap, thread, recv) {
                    MonOutcome::Entered { cost: c } => {
                        cost += c;
                        thread.frames.last_mut().unwrap().entered_monitor = true;
                    }
                    MonOutcome::Blocked { cost: c } => {
                        cost += c;
                        return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                    }
                }
            }
        }

        let frame_idx = thread.frames.len() - 1;
        let method_id = thread.frames[frame_idx].method;
        let method = ctx.image.method(method_id);
        let pc = thread.frames[frame_idx].pc;

        let Some(ins) = method.code.get(pc) else {
            // Fell off the end of a void method: treat as implicit return.
            if pop_frame(thread, ctx, None, &mut cost)? {
                return Ok(StepOutcome { state: StepState::Done, cost, ops });
            }
            continue 'quantum;
        };

        ops += 1;
        cost += model.static_cost(ins);

        // The inline access cache is copied out of the thread before `frame`
        // mutably borrows it, and written back after the dispatch — arms that
        // return early either clear it explicitly or end the thread.
        let mut last_access = thread.last_access;
        let frame = &mut thread.frames[frame_idx];

        macro_rules! binop_i32 {
            ($f:expr) => {{
                let b = pop!(frame, method).as_i32();
                let a = pop!(frame, method).as_i32();
                frame.stack.push(Value::I32($f(a, b)));
                frame.pc += 1;
            }};
        }
        macro_rules! binop_i64 {
            ($f:expr) => {{
                let b = pop!(frame, method).as_i64();
                let a = pop!(frame, method).as_i64();
                frame.stack.push(Value::I64($f(a, b)));
                frame.pc += 1;
            }};
        }
        macro_rules! binop_f64 {
            ($f:expr) => {{
                let b = pop!(frame, method).as_f64();
                let a = pop!(frame, method).as_f64();
                frame.stack.push(Value::F64($f(a, b)));
                frame.pc += 1;
            }};
        }

        match ins {
            Instr::Const(v) => {
                frame.stack.push(*v);
                frame.pc += 1;
            }
            Instr::LdcStr(s) => {
                cost += model.alloc;
                let r = ctx.heap.intern_str(ctx.image.string_class, s);
                frame.stack.push(Value::Ref(r));
                frame.pc += 1;
            }
            Instr::Dup => {
                let v = *frame.stack.last().ok_or_else(|| VmError::StackUnderflow {
                    method: method.sig.to_string(),
                    pc,
                })?;
                frame.stack.push(v);
                frame.pc += 1;
            }
            Instr::DupX1 => {
                let b = pop!(frame, method);
                let a = pop!(frame, method);
                frame.stack.push(b);
                frame.stack.push(a);
                frame.stack.push(b);
                frame.pc += 1;
            }
            Instr::Pop => {
                pop!(frame, method);
                frame.pc += 1;
            }
            Instr::Swap => {
                let b = pop!(frame, method);
                let a = pop!(frame, method);
                frame.stack.push(b);
                frame.stack.push(a);
                frame.pc += 1;
            }
            Instr::Load(n) => {
                frame.stack.push(frame.locals[*n as usize]);
                frame.pc += 1;
            }
            Instr::Store(n) => {
                let v = pop!(frame, method);
                frame.locals[*n as usize] = v;
                frame.pc += 1;
            }
            Instr::IInc(n, d) => {
                let v = frame.locals[*n as usize].as_i32();
                frame.locals[*n as usize] = Value::I32(v.wrapping_add(*d));
                frame.pc += 1;
            }

            Instr::IAdd => binop_i32!(i32::wrapping_add),
            Instr::ISub => binop_i32!(i32::wrapping_sub),
            Instr::IMul => binop_i32!(i32::wrapping_mul),
            Instr::IDiv => {
                let b = pop!(frame, method).as_i32();
                let a = pop!(frame, method).as_i32();
                if b == 0 {
                    return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                }
                frame.stack.push(Value::I32(a.wrapping_div(b)));
                frame.pc += 1;
            }
            Instr::IRem => {
                let b = pop!(frame, method).as_i32();
                let a = pop!(frame, method).as_i32();
                if b == 0 {
                    return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                }
                frame.stack.push(Value::I32(a.wrapping_rem(b)));
                frame.pc += 1;
            }
            Instr::INeg => {
                let a = pop!(frame, method).as_i32();
                frame.stack.push(Value::I32(a.wrapping_neg()));
                frame.pc += 1;
            }
            Instr::IShl => binop_i32!(|a: i32, b: i32| a.wrapping_shl(b as u32 & 31)),
            Instr::IShr => binop_i32!(|a: i32, b: i32| a.wrapping_shr(b as u32 & 31)),
            Instr::IUShr => binop_i32!(|a: i32, b: i32| ((a as u32).wrapping_shr(b as u32 & 31)) as i32),
            Instr::IAnd => binop_i32!(|a, b| a & b),
            Instr::IOr => binop_i32!(|a, b| a | b),
            Instr::IXor => binop_i32!(|a, b| a ^ b),

            Instr::LAdd => binop_i64!(i64::wrapping_add),
            Instr::LSub => binop_i64!(i64::wrapping_sub),
            Instr::LMul => binop_i64!(i64::wrapping_mul),
            Instr::LDiv => {
                let b = pop!(frame, method).as_i64();
                let a = pop!(frame, method).as_i64();
                if b == 0 {
                    return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                }
                frame.stack.push(Value::I64(a.wrapping_div(b)));
                frame.pc += 1;
            }
            Instr::LRem => {
                let b = pop!(frame, method).as_i64();
                let a = pop!(frame, method).as_i64();
                if b == 0 {
                    return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                }
                frame.stack.push(Value::I64(a.wrapping_rem(b)));
                frame.pc += 1;
            }
            Instr::LNeg => {
                let a = pop!(frame, method).as_i64();
                frame.stack.push(Value::I64(a.wrapping_neg()));
                frame.pc += 1;
            }

            Instr::DAdd => binop_f64!(|a: f64, b: f64| a + b),
            Instr::DSub => binop_f64!(|a: f64, b: f64| a - b),
            Instr::DMul => binop_f64!(|a: f64, b: f64| a * b),
            Instr::DDiv => binop_f64!(|a: f64, b: f64| a / b),
            Instr::DRem => binop_f64!(|a: f64, b: f64| a % b),
            Instr::DNeg => {
                let a = pop!(frame, method).as_f64();
                frame.stack.push(Value::F64(-a));
                frame.pc += 1;
            }

            Instr::I2L => {
                let a = pop!(frame, method).as_i32();
                frame.stack.push(Value::I64(a as i64));
                frame.pc += 1;
            }
            Instr::I2D => {
                let a = pop!(frame, method).as_i32();
                frame.stack.push(Value::F64(a as f64));
                frame.pc += 1;
            }
            Instr::L2I => {
                let a = pop!(frame, method).as_i64();
                frame.stack.push(Value::I32(a as i32));
                frame.pc += 1;
            }
            Instr::L2D => {
                let a = pop!(frame, method).as_i64();
                frame.stack.push(Value::F64(a as f64));
                frame.pc += 1;
            }
            Instr::D2I => {
                let a = pop!(frame, method).as_f64();
                frame.stack.push(Value::I32(a as i32));
                frame.pc += 1;
            }
            Instr::D2L => {
                let a = pop!(frame, method).as_f64();
                frame.stack.push(Value::I64(a as i64));
                frame.pc += 1;
            }
            Instr::LCmp => {
                let b = pop!(frame, method).as_i64();
                let a = pop!(frame, method).as_i64();
                frame.stack.push(Value::I32((a.cmp(&b)) as i32));
                frame.pc += 1;
            }
            Instr::DCmp => {
                let b = pop!(frame, method).as_f64();
                let a = pop!(frame, method).as_f64();
                let c = if a > b {
                    1
                } else if a < b {
                    -1
                } else {
                    0 // NaN compares as 0 here (dcmpg/dcmpl distinction dropped)
                };
                frame.stack.push(Value::I32(c));
                frame.pc += 1;
            }

            Instr::Goto(t) => frame.pc = *t,
            Instr::IfICmp(c, t) => {
                let b = pop!(frame, method).as_i32();
                let a = pop!(frame, method).as_i32();
                frame.pc = if c.eval_i32(a, b) { *t } else { pc + 1 };
            }
            Instr::IfI(c, t) => {
                let a = pop!(frame, method).as_i32();
                frame.pc = if c.eval_i32(a, 0) { *t } else { pc + 1 };
            }
            Instr::IfNull(t) => {
                let v = pop!(frame, method);
                frame.pc = if v.is_null() { *t } else { pc + 1 };
            }
            Instr::IfNonNull(t) => {
                let v = pop!(frame, method);
                frame.pc = if v.is_null() { pc + 1 } else { *t };
            }
            Instr::IfACmpEq(t) => {
                let b = pop!(frame, method);
                let a = pop!(frame, method);
                frame.pc = if a == b { *t } else { pc + 1 };
            }
            Instr::IfACmpNe(t) => {
                let b = pop!(frame, method);
                let a = pop!(frame, method);
                frame.pc = if a == b { pc + 1 } else { *t };
            }

            Instr::NewQ(cid) => {
                let rc = ctx.image.class(*cid);
                let zeros = rc.zeroed_fields();
                cost += model.alloc + model.alloc_per_byte * (zeros.len() as u64 * 8);
                let r = ctx.heap.alloc_object(*cid, zeros.len(), zeros);
                frame.stack.push(Value::Ref(r));
                frame.pc += 1;
            }
            Instr::NewArray(elem) => {
                let len = pop!(frame, method).as_i32();
                if len < 0 {
                    return Err(VmError::NegativeArraySize(len as i64));
                }
                let cls = ctx.image.array_class(*elem);
                cost += model.alloc + model.alloc_per_byte * (len as u64 * 8);
                let r = ctx.heap.alloc_array(cls, *elem, len as usize);
                frame.stack.push(Value::Ref(r));
                frame.pc += 1;
            }
            Instr::ArrayLen => {
                let r = pop!(frame, method)
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let len = ctx.heap.get(r).payload.array_len().ok_or_else(|| {
                    VmError::TypeMismatch("arraylength on non-array".into())
                })?;
                frame.stack.push(Value::I32(len as i32));
                frame.pc += 1;
            }

            Instr::GetFieldQ { slot, kind_cost } => {
                let r = pop!(frame, method)
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let key = access_key(*kind_cost, r.0, *slot as u32);
                cost += model.access(*kind_cost, Rw::Read, cache_hit(&mut last_access, key));
                let v = match &ctx.heap.get(r).payload {
                    ObjPayload::Fields(fs) => fs[*slot as usize],
                    _ => return Err(VmError::TypeMismatch("getfield on non-object".into())),
                };
                frame.stack.push(v);
                frame.pc += 1;
            }
            Instr::PutFieldQ { slot, kind_cost } => {
                let v = pop!(frame, method);
                let r = pop!(frame, method)
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let key = access_key(*kind_cost, r.0, *slot as u32);
                cost += model.access(*kind_cost, Rw::Write, cache_hit(&mut last_access, key));
                match &mut ctx.heap.get_mut(r).payload {
                    ObjPayload::Fields(fs) => fs[*slot as usize] = v,
                    _ => return Err(VmError::TypeMismatch("putfield on non-object".into())),
                }
                frame.pc += 1;
            }
            Instr::GetStaticQ { class, slot, free } => {
                if !*free {
                    let key = access_key(AccessKind::Static, class.0, *slot as u32);
                    cost +=
                        model.access(AccessKind::Static, Rw::Read, cache_hit(&mut last_access, key));
                }
                frame.stack.push(ctx.heap.get_static(*class, *slot));
                frame.pc += 1;
            }
            Instr::PutStaticQ { class, slot } => {
                let v = pop!(frame, method);
                let key = access_key(AccessKind::Static, class.0, *slot as u32);
                cost += model.access(AccessKind::Static, Rw::Write, cache_hit(&mut last_access, key));
                ctx.heap.set_static(*class, *slot, v);
                frame.pc += 1;
            }

            Instr::ALoad(elem) => {
                let idx = pop!(frame, method).as_i32();
                let r = pop!(frame, method)
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let key = access_key(AccessKind::Array, r.0, idx as u32);
                cost += model.access(AccessKind::Array, Rw::Read, cache_hit(&mut last_access, key));
                let v = array_load(ctx.heap, r, idx, *elem)?;
                frame.stack.push(v);
                frame.pc += 1;
            }
            Instr::AStore(elem) => {
                let v = pop!(frame, method);
                let idx = pop!(frame, method).as_i32();
                let r = pop!(frame, method)
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let key = access_key(AccessKind::Array, r.0, idx as u32);
                cost += model.access(AccessKind::Array, Rw::Write, cache_hit(&mut last_access, key));
                array_store(ctx.heap, r, idx, v, *elem)?;
                frame.pc += 1;
            }

            // ---- DSM pseudo-instructions ----
            Instr::DsmCheckRead { depth, kind } | Instr::DsmCheckWrite { depth, kind } => {
                let is_write = matches!(ins, Instr::DsmCheckWrite { .. });
                let slot = frame.stack.len().checked_sub(1 + *depth as usize).ok_or_else(
                    || VmError::StackUnderflow { method: method.sig.to_string(), pc },
                )?;
                let Some(obj) = frame.stack[slot].as_opt_ref() else {
                    return Err(VmError::NullDeref { method: method.sig.to_string(), pc });
                };
                let rw = if is_write { Rw::Write } else { Rw::Read };
                cost += model.access_cost(*kind, rw).check();
                // Element index (just above the array ref) for array
                // accesses — region-granular checks need it.
                let idx = if matches!(kind, AccessKind::Array) && *depth >= 1 {
                    match frame.stack[slot + 1] {
                        Value::I32(i) => Some(i),
                        _ => None,
                    }
                } else {
                    None
                };
                // The check defeats the repeated-access optimization.
                last_access = NO_ACCESS;
                thread.last_access = NO_ACCESS;
                let t = &mut *thread;
                let outcome = if is_write {
                    ctx.env.check_write(ctx.heap, t, obj, *kind, idx)
                } else {
                    ctx.env.check_read(ctx.heap, t, obj, *kind, idx)
                };
                match outcome {
                    CheckOutcome::Proceed => thread.frames[frame_idx].pc += 1,
                    CheckOutcome::Miss => {
                        return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                    }
                }
            }

            Instr::MonitorEnter | Instr::DsmMonitorEnter => {
                let dsm = matches!(ins, Instr::DsmMonitorEnter);
                let Some(&top) = frame.stack.last() else {
                    return Err(VmError::StackUnderflow { method: method.sig.to_string(), pc });
                };
                let obj = top
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let out = if dsm {
                    ctx.env.dsm_monitor_enter(ctx.heap, thread, obj)
                } else {
                    ctx.env.monitor_enter(ctx.heap, thread, obj)
                };
                match out {
                    MonOutcome::Entered { cost: c } => {
                        cost += c;
                        let f = &mut thread.frames[frame_idx];
                        f.stack.pop();
                        f.pc += 1;
                    }
                    MonOutcome::Blocked { cost: c } => {
                        cost += c;
                        return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                    }
                }
            }
            Instr::MonitorExit | Instr::DsmMonitorExit => {
                let dsm = matches!(ins, Instr::DsmMonitorExit);
                let obj = pop!(frame, method)
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let c = if dsm {
                    ctx.env.dsm_monitor_exit(ctx.heap, thread, obj)?
                } else {
                    ctx.env.monitor_exit(ctx.heap, thread, obj)?
                };
                cost += c;
                thread.frames[frame_idx].pc += 1;
            }
            Instr::DsmVolatileAcquire { depth } => {
                let slot = frame.stack.len().checked_sub(1 + *depth as usize).ok_or_else(
                    || VmError::StackUnderflow { method: method.sig.to_string(), pc },
                )?;
                let obj = frame.stack[slot]
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                match ctx.env.volatile_acquire(ctx.heap, thread, obj) {
                    MonOutcome::Entered { cost: c } => {
                        cost += c;
                        let f = &mut thread.frames[frame_idx];
                        f.vol_stack.push(obj);
                        f.pc += 1;
                    }
                    MonOutcome::Blocked { cost: c } => {
                        cost += c;
                        return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                    }
                }
            }
            Instr::DsmVolatileRelease => {
                let obj = frame.vol_stack.pop().ok_or(VmError::VolatileStackEmpty)?;
                cost += ctx.env.volatile_release(ctx.heap, thread, obj)?;
                thread.frames[frame_idx].pc += 1;
            }
            Instr::DsmSpawn => {
                let tobj = pop!(frame, method)
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                frame.pc += 1;
                cost += ctx.env.spawn(ctx.heap, thread, tobj, true)?;
            }

            // ---- invocation ----
            Instr::InvokeStaticQ(mid) | Instr::InvokeSpecialQ(mid) => {
                let callee = ctx.image.method(*mid);
                let nargs = callee.sig.nargs() + if callee.is_static { 0 } else { 1 };
                cost += model.invoke + model.invoke_per_arg * nargs as u64;
                if frame.stack.len() < nargs {
                    return Err(VmError::StackUnderflow { method: method.sig.to_string(), pc });
                }
                let args: Vec<Value> = frame.stack.split_off(frame.stack.len() - nargs);
                frame.pc += 1;
                if let Some(native) = callee.native {
                    match run_native(native, args, thread, ctx, frame_idx, &mut cost)? {
                        NativeFlow::Continue => {}
                        NativeFlow::Block => {
                            return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                        }
                        NativeFlow::EndQuantum => {
                            return Ok(StepOutcome { state: StepState::Running, cost, ops })
                        }
                    }
                } else {
                    if !callee.is_static && args[0].is_null() {
                        return Err(VmError::NullDeref { method: callee.sig.to_string(), pc });
                    }
                    let f = Frame::new(*mid, callee.max_locals, args, callee.is_synchronized);
                    thread.frames.push(f);
                }
            }
            Instr::InvokeVirtualQ { sig, nargs, ret: _, site } => {
                let total = *nargs as usize + 1;
                if frame.stack.len() < total {
                    return Err(VmError::StackUnderflow { method: method.sig.to_string(), pc });
                }
                let recv_slot = frame.stack.len() - total;
                let recv = frame.stack[recv_slot]
                    .as_opt_ref()
                    .ok_or_else(|| VmError::NullDeref { method: method.sig.to_string(), pc })?;
                let cls = ctx.heap.get(recv).class;
                let mid = ctx.image.dispatch_cached(*site, cls, *sig).ok_or_else(|| {
                    VmError::NoSuchMethod(format!(
                        "{}.{}",
                        ctx.image.class(cls).name,
                        ctx.image.sigs[sig.0 as usize]
                    ))
                })?;
                let callee = ctx.image.method(mid);
                cost += model.invoke + model.invoke_per_arg * total as u64;
                let args: Vec<Value> = frame.stack.split_off(recv_slot);
                frame.pc += 1;
                if let Some(native) = callee.native {
                    match run_native(native, args, thread, ctx, frame_idx, &mut cost)? {
                        NativeFlow::Continue => {}
                        NativeFlow::Block => {
                            return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                        }
                        NativeFlow::EndQuantum => {
                            return Ok(StepOutcome { state: StepState::Running, cost, ops })
                        }
                    }
                } else {
                    let f = Frame::new(mid, callee.max_locals, args, callee.is_synchronized);
                    thread.frames.push(f);
                }
            }

            Instr::Return => {
                if pop_frame(thread, ctx, None, &mut cost)? {
                    return Ok(StepOutcome { state: StepState::Done, cost, ops });
                }
            }
            Instr::ReturnVal => {
                let v = pop!(frame, method);
                if pop_frame(thread, ctx, Some(v), &mut cost)? {
                    return Ok(StepOutcome { state: StepState::Done, cost, ops });
                }
            }

            Instr::Nop => frame.pc += 1,

            // Symbolic instructions must have been quickened at load time.
            sym @ (Instr::New(_)
            | Instr::GetField(..)
            | Instr::PutField(..)
            | Instr::GetStatic(..)
            | Instr::PutStatic(..)
            | Instr::InvokeStatic(..)
            | Instr::InvokeVirtual(_)
            | Instr::InvokeSpecial(..)) => {
                return Err(VmError::Unquickened(format!("{sym:?}")));
            }
        }

        thread.last_access = last_access;
    }

    Ok(StepOutcome { state: StepState::Running, cost, ops })
}

/// Update the per-thread inline access cache and report whether the access
/// repeats the previous one (the IBM profile's cheap path).
#[inline]
pub(crate) fn cache_hit(last: &mut u64, key: u64) -> bool {
    let hit = *last == key;
    *last = key;
    hit
}

pub(crate) enum NativeFlow {
    Continue,
    Block,
    EndQuantum,
}

/// Execute a native method. Args include the receiver for instance natives.
pub(crate) fn run_native<E: VmEnv>(
    op: NativeOp,
    args: Vec<Value>,
    thread: &mut Thread,
    ctx: &mut StepCtx<'_, E>,
    caller_idx: usize,
    cost: &mut u64,
) -> Result<NativeFlow, VmError> {
    use NativeOp::*;
    let model = ctx.cost;
    match op {
        // ---- pure intrinsics ----
        MathSqrt | MathSin | MathCos | MathTan | MathAtan | MathPow | MathExp | MathLog
        | MathAbsD | MathAbsI | MathFloor | MathCeil | MathMinI | MathMaxI | HashCode | RefEq
        | ArrayCopy | StrLen | StrCharAt | StrConcat | StrFromI32 | StrFromI64 | StrFromF64
        | StrEquals => {
            let (ret, c) = intrinsics::exec_pure(op, &args, ctx.heap, ctx.image, model)?;
            *cost += c;
            if let Some(v) = ret {
                thread.frames[caller_idx].stack.push(v);
            }
            Ok(NativeFlow::Continue)
        }

        // ---- env-routed ----
        PrintlnStr => {
            *cost += model.println;
            let line = match args[0].as_opt_ref() {
                Some(r) => ctx.heap.str_of(r).to_string(),
                None => "null".to_string(),
            };
            ctx.env.println(thread, &line);
            Ok(NativeFlow::Continue)
        }
        PrintlnI32 => {
            *cost += model.println;
            ctx.env.println(thread, &args[0].as_i32().to_string());
            Ok(NativeFlow::Continue)
        }
        PrintlnI64 => {
            *cost += model.println;
            ctx.env.println(thread, &args[0].as_i64().to_string());
            Ok(NativeFlow::Continue)
        }
        PrintlnF64 => {
            *cost += model.println;
            ctx.env.println(thread, &format!("{:?}", args[0].as_f64()));
            Ok(NativeFlow::Continue)
        }
        CurrentTimeMillis => {
            *cost += model.math_op;
            let v = ctx.env.now_millis();
            thread.frames[caller_idx].stack.push(Value::I64(v));
            Ok(NativeFlow::Continue)
        }
        ThreadStart => {
            let tobj = args[0]
                .as_opt_ref()
                .ok_or_else(|| VmError::NullDeref { method: "Thread.start".into(), pc: 0 })?;
            *cost += ctx.env.spawn(ctx.heap, thread, tobj, false)?;
            Ok(NativeFlow::Continue)
        }
        ThreadSleep => {
            *cost += ctx.env.sleep(thread, args[0].as_i64());
            Ok(NativeFlow::Block)
        }
        ThreadCurrent => {
            let r = ctx.env.current_thread_obj(ctx.heap, thread);
            thread.frames[caller_idx].stack.push(Value::Ref(r));
            Ok(NativeFlow::Continue)
        }
        ThreadYield => {
            *cost += ctx.env.yield_now(thread);
            Ok(NativeFlow::EndQuantum)
        }
        ObjWait => {
            let obj = args[0]
                .as_opt_ref()
                .ok_or_else(|| VmError::NullDeref { method: "Object.wait".into(), pc: 0 })?;
            *cost += ctx.env.obj_wait(ctx.heap, thread, obj)?;
            Ok(NativeFlow::Block)
        }
        ObjNotify | ObjNotifyAll => {
            let obj = args[0]
                .as_opt_ref()
                .ok_or_else(|| VmError::NullDeref { method: "Object.notify".into(), pc: 0 })?;
            *cost += ctx.env.obj_notify(ctx.heap, thread, obj, matches!(op, ObjNotifyAll))?;
            Ok(NativeFlow::Continue)
        }
        FileOpen => {
            let name = ctx.heap.str_of(args[0].as_ref()).to_string();
            let fd = ctx.env.file_open(&name);
            thread.frames[caller_idx].stack.push(Value::I32(fd));
            Ok(NativeFlow::Continue)
        }
        FileWriteLine => {
            let fd = args[0].as_i32();
            let line = ctx.heap.str_of(args[1].as_ref()).to_string();
            *cost += model.println;
            ctx.env.file_write_line(fd, &line);
            Ok(NativeFlow::Continue)
        }
        FileReadLine => {
            let fd = args[0].as_i32();
            *cost += model.println;
            let v = match ctx.env.file_read_line(fd) {
                Some(s) => {
                    let r = ctx.heap.alloc_str(ctx.image.string_class, s.into());
                    Value::Ref(r)
                }
                None => Value::Null,
            };
            thread.frames[caller_idx].stack.push(v);
            Ok(NativeFlow::Continue)
        }
        FileClose => {
            ctx.env.file_close(args[0].as_i32());
            Ok(NativeFlow::Continue)
        }
    }
}

/// Pop the top frame: run the synchronized-method exit protocol, propagate
/// the return value, and report whether the thread is finished.
pub(crate) fn pop_frame<E: VmEnv>(
    thread: &mut Thread,
    ctx: &mut StepCtx<'_, E>,
    ret: Option<Value>,
    cost: &mut u64,
) -> Result<bool, VmError> {
    let frame = thread.frames.last().unwrap();
    let mid = frame.method;
    let entered = frame.entered_monitor;
    let method = ctx.image.method(mid);
    if method.is_synchronized && entered {
        let recv = thread.frames.last().unwrap().locals[0].as_ref();
        let c = ctx.env.monitor_exit(ctx.heap, thread, recv)?;
        *cost += c;
    }
    thread.frames.pop();
    match thread.frames.last_mut() {
        Some(caller) => {
            if let Some(v) = ret {
                caller.stack.push(v);
            }
            Ok(false)
        }
        None => Ok(true),
    }
}

pub(crate) fn array_load(heap: &Heap, r: ObjRef, idx: i32, elem: ElemTy) -> Result<Value, VmError> {
    let obj = heap.get(r);
    let len = obj.payload.array_len().ok_or_else(|| VmError::TypeMismatch("aload on non-array".into()))?;
    if idx < 0 || idx as usize >= len {
        return Err(VmError::IndexOutOfBounds { len, idx: idx as i64 });
    }
    let i = idx as usize;
    Ok(match (&obj.payload, elem) {
        (ObjPayload::ArrI32(v), ElemTy::I32) => Value::I32(v[i]),
        (ObjPayload::ArrI64(v), ElemTy::I64) => Value::I64(v[i]),
        (ObjPayload::ArrF64(v), ElemTy::F64) => Value::F64(v[i]),
        (ObjPayload::ArrRef(v), ElemTy::Ref) => v[i],
        _ => return Err(VmError::TypeMismatch("array element type".into())),
    })
}

pub(crate) fn array_store(heap: &mut Heap, r: ObjRef, idx: i32, v: Value, elem: ElemTy) -> Result<(), VmError> {
    let obj = heap.get_mut(r);
    let len = obj.payload.array_len().ok_or_else(|| VmError::TypeMismatch("astore on non-array".into()))?;
    if idx < 0 || idx as usize >= len {
        return Err(VmError::IndexOutOfBounds { len, idx: idx as i64 });
    }
    let i = idx as usize;
    match (&mut obj.payload, elem) {
        (ObjPayload::ArrI32(a), ElemTy::I32) => a[i] = v.as_i32(),
        (ObjPayload::ArrI64(a), ElemTy::I64) => a[i] = v.as_i64(),
        (ObjPayload::ArrF64(a), ElemTy::F64) => a[i] = v.as_f64(),
        (ObjPayload::ArrRef(a), ElemTy::Ref) => a[i] = v,
        _ => return Err(VmError::TypeMismatch("array element type".into())),
    }
    Ok(())
}
