//! Binary class-file serialization.
//!
//! The paper's runtime physically ships the rewritten classes to worker
//! nodes ("the resulting rewritten classes are sent to one of the worker
//! nodes", §2; applet workers download them over HTTP). This module gives
//! MJVM programs the same property: a compact, self-contained binary format
//! for whole [`Program`]s, so the distributed runtime can account for class
//! distribution as real network traffic and tooling can persist rewritten
//! programs to disk.
//!
//! Format: little-endian, length-prefixed strings, one opcode byte per
//! instruction with operands following — the moral equivalent of a `.class`
//! file for the MJVM instruction set.

use crate::class::{ClassFile, FieldDef, MethodDef, Program, Sig};
use crate::instr::{AccessKind, Cmp, ElemTy, Instr, Ty};
use crate::loader::{ClassId, MethodId, SigId};
use crate::value::Value;
use std::sync::Arc;

/// Decoding errors (a malformed class file).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassFileError(pub String);

impl std::fmt::Display for ClassFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class file error: {}", self.0)
    }
}

impl std::error::Error for ClassFileError {}

const MAGIC: &[u8; 4] = b"MJVM";
const VERSION: u16 = 1;

struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn usz(&mut self, v: usize) {
        self.u32(v as u32);
    }
}

/// Cursor over encoded bytes (public so `decode_class` is callable).
pub struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ClassFileError> {
        if self.pos + n > self.buf.len() {
            return Err(ClassFileError("truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ClassFileError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ClassFileError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ClassFileError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, ClassFileError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, ClassFileError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ClassFileError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<Arc<str>, ClassFileError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        std::str::from_utf8(b)
            .map(Arc::from)
            .map_err(|_| ClassFileError("bad utf-8".into()))
    }
    fn usz(&mut self) -> Result<usize, ClassFileError> {
        Ok(self.u32()? as usize)
    }
    /// An element count whose elements take at least `min_bytes` each:
    /// bounded by the bytes left, so a corrupt count is an error rather
    /// than an allocation of its size.
    fn count(&mut self, min_bytes: usize) -> Result<usize, ClassFileError> {
        let n = self.usz()?;
        let left = self.buf.len() - self.pos;
        if n > left / min_bytes {
            return Err(ClassFileError(format!("count {n} exceeds the {left} bytes left")));
        }
        Ok(n)
    }
}

fn ty_tag(t: Ty) -> u8 {
    match t {
        Ty::I32 => 0,
        Ty::I64 => 1,
        Ty::F64 => 2,
        Ty::Ref => 3,
    }
}

fn ty_from(tag: u8) -> Result<Ty, ClassFileError> {
    Ok(match tag {
        0 => Ty::I32,
        1 => Ty::I64,
        2 => Ty::F64,
        3 => Ty::Ref,
        _ => return Err(ClassFileError(format!("bad type tag {tag}"))),
    })
}

fn elem_tag(t: ElemTy) -> u8 {
    match t {
        ElemTy::I32 => 0,
        ElemTy::I64 => 1,
        ElemTy::F64 => 2,
        ElemTy::Ref => 3,
    }
}

fn elem_from(tag: u8) -> Result<ElemTy, ClassFileError> {
    Ok(match tag {
        0 => ElemTy::I32,
        1 => ElemTy::I64,
        2 => ElemTy::F64,
        3 => ElemTy::Ref,
        _ => return Err(ClassFileError(format!("bad elem tag {tag}"))),
    })
}

fn cmp_tag(c: Cmp) -> u8 {
    match c {
        Cmp::Eq => 0,
        Cmp::Ne => 1,
        Cmp::Lt => 2,
        Cmp::Le => 3,
        Cmp::Gt => 4,
        Cmp::Ge => 5,
    }
}

fn cmp_from(tag: u8) -> Result<Cmp, ClassFileError> {
    Ok(match tag {
        0 => Cmp::Eq,
        1 => Cmp::Ne,
        2 => Cmp::Lt,
        3 => Cmp::Le,
        4 => Cmp::Gt,
        5 => Cmp::Ge,
        _ => return Err(ClassFileError(format!("bad cmp tag {tag}"))),
    })
}

fn kind_tag(k: AccessKind) -> u8 {
    match k {
        AccessKind::Field => 0,
        AccessKind::Static => 1,
        AccessKind::Array => 2,
    }
}

fn kind_from(tag: u8) -> Result<AccessKind, ClassFileError> {
    Ok(match tag {
        0 => AccessKind::Field,
        1 => AccessKind::Static,
        2 => AccessKind::Array,
        _ => return Err(ClassFileError(format!("bad kind tag {tag}"))),
    })
}

fn write_sig(w: &mut W, s: &Sig) {
    w.str(&s.name);
    w.u8(s.params.len() as u8);
    for p in &s.params {
        w.u8(ty_tag(*p));
    }
    match s.ret {
        Some(t) => w.u8(1 + ty_tag(t)),
        None => w.u8(0),
    }
}

fn read_sig(r: &mut R) -> Result<Sig, ClassFileError> {
    let name = r.str()?;
    let np = r.u8()? as usize;
    let mut params = Vec::with_capacity(np);
    for _ in 0..np {
        params.push(ty_from(r.u8()?)?);
    }
    let ret = match r.u8()? {
        0 => None,
        t => Some(ty_from(t - 1)?),
    };
    Ok(Sig { name, params, ret })
}

#[rustfmt::skip]
fn write_instr(w: &mut W, ins: &Instr) -> Result<(), ClassFileError> {
    use Instr::*;
    match ins {
        Const(Value::I32(v)) => { w.u8(0); w.i32(*v); }
        Const(Value::I64(v)) => { w.u8(1); w.i64(*v); }
        Const(Value::F64(v)) => { w.u8(2); w.f64(*v); }
        Const(Value::Null) => w.u8(3),
        Const(Value::Ref(_)) => return Err(ClassFileError("object constant in code".into())),
        LdcStr(s) => { w.u8(4); w.str(s); }
        Dup => w.u8(5),
        DupX1 => w.u8(6),
        Pop => w.u8(7),
        Swap => w.u8(8),
        Load(n) => { w.u8(9); w.u16(*n); }
        Store(n) => { w.u8(10); w.u16(*n); }
        IInc(n, d) => { w.u8(11); w.u16(*n); w.i32(*d); }
        IAdd => w.u8(12), ISub => w.u8(13), IMul => w.u8(14), IDiv => w.u8(15),
        IRem => w.u8(16), INeg => w.u8(17), IShl => w.u8(18), IShr => w.u8(19),
        IUShr => w.u8(20), IAnd => w.u8(21), IOr => w.u8(22), IXor => w.u8(23),
        LAdd => w.u8(24), LSub => w.u8(25), LMul => w.u8(26), LDiv => w.u8(27),
        LRem => w.u8(28), LNeg => w.u8(29),
        DAdd => w.u8(30), DSub => w.u8(31), DMul => w.u8(32), DDiv => w.u8(33),
        DRem => w.u8(34), DNeg => w.u8(35),
        I2L => w.u8(36), I2D => w.u8(37), L2I => w.u8(38), L2D => w.u8(39),
        D2I => w.u8(40), D2L => w.u8(41), LCmp => w.u8(42), DCmp => w.u8(43),
        Goto(t) => { w.u8(44); w.usz(*t); }
        IfICmp(c, t) => { w.u8(45); w.u8(cmp_tag(*c)); w.usz(*t); }
        IfI(c, t) => { w.u8(46); w.u8(cmp_tag(*c)); w.usz(*t); }
        IfNull(t) => { w.u8(47); w.usz(*t); }
        IfNonNull(t) => { w.u8(48); w.usz(*t); }
        IfACmpEq(t) => { w.u8(49); w.usz(*t); }
        IfACmpNe(t) => { w.u8(50); w.usz(*t); }
        New(c) => { w.u8(51); w.str(c); }
        GetField(c, f) => { w.u8(52); w.str(c); w.str(f); }
        PutField(c, f) => { w.u8(53); w.str(c); w.str(f); }
        GetStatic(c, f) => { w.u8(54); w.str(c); w.str(f); }
        PutStatic(c, f) => { w.u8(55); w.str(c); w.str(f); }
        NewArray(e) => { w.u8(56); w.u8(elem_tag(*e)); }
        ALoad(e) => { w.u8(57); w.u8(elem_tag(*e)); }
        AStore(e) => { w.u8(58); w.u8(elem_tag(*e)); }
        ArrayLen => w.u8(59),
        InvokeStatic(c, s) => { w.u8(60); w.str(c); write_sig(w, s); }
        InvokeVirtual(s) => { w.u8(61); write_sig(w, s); }
        InvokeSpecial(c, s) => { w.u8(62); w.str(c); write_sig(w, s); }
        Return => w.u8(63),
        ReturnVal => w.u8(64),
        MonitorEnter => w.u8(65),
        MonitorExit => w.u8(66),
        Nop => w.u8(67),
        DsmCheckRead { depth, kind } => { w.u8(68); w.u8(*depth); w.u8(kind_tag(*kind)); }
        DsmCheckWrite { depth, kind } => { w.u8(69); w.u8(*depth); w.u8(kind_tag(*kind)); }
        DsmMonitorEnter => w.u8(70),
        DsmMonitorExit => w.u8(71),
        DsmSpawn => w.u8(72),
        DsmVolatileAcquire { depth } => { w.u8(73); w.u8(*depth); }
        DsmVolatileRelease => w.u8(74),
        // Quickened opcodes are a load-time artifact — never serialized
        // (class files travel in symbolic form, like real .class files).
        GetFieldQ { .. } | PutFieldQ { .. } | GetStaticQ { .. } | PutStaticQ { .. }
        | NewQ(_) | InvokeStaticQ(_) | InvokeSpecialQ(_) | InvokeVirtualQ { .. } => {
            return Err(ClassFileError("quickened instruction in class file".into()))
        }
    }
    Ok(())
}

fn read_instr(r: &mut R) -> Result<Instr, ClassFileError> {
    use Instr::*;
    Ok(match r.u8()? {
        0 => Const(Value::I32(r.i32()?)),
        1 => Const(Value::I64(r.i64()?)),
        2 => Const(Value::F64(r.f64()?)),
        3 => Const(Value::Null),
        4 => LdcStr(r.str()?),
        5 => Dup,
        6 => DupX1,
        7 => Pop,
        8 => Swap,
        9 => Load(r.u16()?),
        10 => Store(r.u16()?),
        11 => IInc(r.u16()?, r.i32()?),
        12 => IAdd,
        13 => ISub,
        14 => IMul,
        15 => IDiv,
        16 => IRem,
        17 => INeg,
        18 => IShl,
        19 => IShr,
        20 => IUShr,
        21 => IAnd,
        22 => IOr,
        23 => IXor,
        24 => LAdd,
        25 => LSub,
        26 => LMul,
        27 => LDiv,
        28 => LRem,
        29 => LNeg,
        30 => DAdd,
        31 => DSub,
        32 => DMul,
        33 => DDiv,
        34 => DRem,
        35 => DNeg,
        36 => I2L,
        37 => I2D,
        38 => L2I,
        39 => L2D,
        40 => D2I,
        41 => D2L,
        42 => LCmp,
        43 => DCmp,
        44 => Goto(r.usz()?),
        45 => IfICmp(cmp_from(r.u8()?)?, r.usz()?),
        46 => IfI(cmp_from(r.u8()?)?, r.usz()?),
        47 => IfNull(r.usz()?),
        48 => IfNonNull(r.usz()?),
        49 => IfACmpEq(r.usz()?),
        50 => IfACmpNe(r.usz()?),
        51 => New(r.str()?),
        52 => GetField(r.str()?, r.str()?),
        53 => PutField(r.str()?, r.str()?),
        54 => GetStatic(r.str()?, r.str()?),
        55 => PutStatic(r.str()?, r.str()?),
        56 => NewArray(elem_from(r.u8()?)?),
        57 => ALoad(elem_from(r.u8()?)?),
        58 => AStore(elem_from(r.u8()?)?),
        59 => ArrayLen,
        60 => InvokeStatic(r.str()?, read_sig(r)?),
        61 => InvokeVirtual(read_sig(r)?),
        62 => InvokeSpecial(r.str()?, read_sig(r)?),
        63 => Return,
        64 => ReturnVal,
        65 => MonitorEnter,
        66 => MonitorExit,
        67 => Nop,
        68 => DsmCheckRead { depth: r.u8()?, kind: kind_from(r.u8()?)? },
        69 => DsmCheckWrite { depth: r.u8()?, kind: kind_from(r.u8()?)? },
        70 => DsmMonitorEnter,
        71 => DsmMonitorExit,
        72 => DsmSpawn,
        73 => DsmVolatileAcquire { depth: r.u8()? },
        74 => DsmVolatileRelease,
        op => return Err(ClassFileError(format!("bad opcode {op}"))),
    })
}

/// Serialize a single class.
pub fn encode_class(cf: &ClassFile) -> Vec<u8> {
    let mut w = W { buf: Vec::with_capacity(256) };
    w.str(&cf.name);
    match &cf.super_name {
        Some(s) => {
            w.u8(1);
            w.str(s);
        }
        None => w.u8(0),
    }
    w.u8(cf.is_bootstrap as u8);
    w.usz(cf.fields.len());
    for f in &cf.fields {
        w.str(&f.name);
        w.u8(ty_tag(f.ty));
        w.u8((f.is_static as u8) | ((f.is_volatile as u8) << 1));
    }
    w.usz(cf.methods.len());
    for m in &cf.methods {
        write_sig(&mut w, &m.sig);
        w.u8((m.is_static as u8) | ((m.is_synchronized as u8) << 1) | ((m.is_native as u8) << 2));
        w.u16(m.max_locals);
        w.usz(m.code.len());
        for ins in &m.code {
            write_instr(&mut w, ins).expect("symbolic code only");
        }
    }
    w.buf
}

/// Deserialize a single class.
pub fn decode_class(r: &mut R) -> Result<ClassFile, ClassFileError> {
    let name = r.str()?;
    let super_name = match r.u8()? {
        0 => None,
        _ => Some(r.str()?),
    };
    let is_bootstrap = r.u8()? != 0;
    // Minimum encodings: a field is a name plus two bytes; a method a
    // signature (name, two bytes), flags, max_locals and a code count; an
    // instruction one opcode byte.
    let nf = r.count(4 + 2)?;
    let mut fields = Vec::with_capacity(nf);
    for _ in 0..nf {
        let name = r.str()?;
        let ty = ty_from(r.u8()?)?;
        let flags = r.u8()?;
        fields.push(FieldDef { name, ty, is_static: flags & 1 != 0, is_volatile: flags & 2 != 0 });
    }
    let nm = r.count(4 + 2 + 1 + 2 + 4)?;
    let mut methods = Vec::with_capacity(nm);
    for _ in 0..nm {
        let sig = read_sig(r)?;
        let flags = r.u8()?;
        let max_locals = r.u16()?;
        let nc = r.count(1)?;
        let mut code = Vec::with_capacity(nc);
        for _ in 0..nc {
            code.push(read_instr(r)?);
        }
        methods.push(MethodDef {
            sig,
            is_static: flags & 1 != 0,
            is_synchronized: flags & 2 != 0,
            is_native: flags & 4 != 0,
            max_locals,
            code,
        });
    }
    Ok(ClassFile { name, super_name, fields, methods, is_bootstrap })
}

/// Serialize a whole program (what the runtime ships to each worker).
pub fn encode_program(p: &Program) -> Vec<u8> {
    let mut w = W { buf: Vec::with_capacity(4096) };
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.str(&p.main_class);
    w.usz(p.classes.len());
    for c in &p.classes {
        let bytes = encode_class(c);
        w.usz(bytes.len());
        w.buf.extend_from_slice(&bytes);
    }
    w.buf
}

/// Serialize a whole program in bounded chunks, streaming every filled
/// `chunk`-byte piece to `sink` (the final piece may be shorter). The
/// concatenated pieces are byte-for-byte identical to [`encode_program`],
/// but peak memory is one chunk plus one class instead of the whole
/// program. Returns the total encoded size.
pub fn encode_program_chunked(p: &Program, chunk: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
    assert!(chunk > 0, "chunk size must be positive");
    let mut total = 0usize;
    let mut w = W { buf: Vec::with_capacity(chunk.min(4096)) };
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.str(&p.main_class);
    w.usz(p.classes.len());
    for c in &p.classes {
        let bytes = encode_class(c);
        w.usz(bytes.len());
        w.buf.extend_from_slice(&bytes);
        while w.buf.len() >= chunk {
            sink(&w.buf[..chunk]);
            total += chunk;
            w.buf.drain(..chunk);
        }
    }
    if !w.buf.is_empty() {
        total += w.buf.len();
        sink(&w.buf);
    }
    total
}

/// Deserialize a whole program.
pub fn decode_program(bytes: &[u8]) -> Result<Program, ClassFileError> {
    let mut r = R { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(ClassFileError("bad magic".into()));
    }
    let v = r.u16()?;
    if v != VERSION {
        return Err(ClassFileError(format!("unsupported version {v}")));
    }
    let main_class = r.str()?;
    // Each class is at least its length prefix.
    let nc = r.count(4)?;
    let mut classes = Vec::with_capacity(nc);
    for _ in 0..nc {
        let len = r.usz()?;
        let mut cr = R { buf: r.take(len)?, pos: 0 };
        classes.push(decode_class(&mut cr)?);
    }
    Ok(Program { classes, main_class })
}

// Silence unused-import warnings for id types referenced in doc text.
#[allow(unused)]
fn _ids(_: ClassId, _: MethodId, _: SigId) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::stdlib;

    #[test]
    fn stdlib_round_trips() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        let bytes = encode_program(&p);
        let back = decode_program(&bytes).expect("decode");
        assert_eq!(p.classes, back.classes);
        assert_eq!(p.main_class, back.main_class);
    }

    #[test]
    fn rewritten_program_round_trips() {
        // The actual payload the runtime would ship: a rewritten app with
        // DSM pseudo-instructions, companions and renamed classes.
        let mut pb = ProgramBuilder::new("M");
        pb.class("A", "java.lang.Object", |cb| {
            cb.field("x", crate::instr::Ty::I32);
            cb.static_field("s", crate::instr::Ty::I64);
            cb.volatile_field("v", crate::instr::Ty::I32);
            cb.synchronized_method("m", &[], None, |m| {
                m.load(0).getfield("A", "x").pop_().ret();
            });
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.ldc_str("hé\u{1F600}").println_str().ret();
            });
        });
        // Simulate rewriter output shape with pseudo-ops present.
        let mut p = pb.build_with_stdlib();
        p.classes[0].methods[0].code.insert(0, Instr::DsmCheckRead {
            depth: 0,
            kind: AccessKind::Field,
        });
        let back = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(p.classes, back.classes);
    }

    #[test]
    fn chunked_encoding_matches_whole_buffer() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        let whole = encode_program(&p);
        for chunk in [1usize, 7, 64, 4096, whole.len(), whole.len() * 2] {
            let mut pieces: Vec<Vec<u8>> = Vec::new();
            let total = encode_program_chunked(&p, chunk, &mut |c| pieces.push(c.to_vec()));
            assert_eq!(total, whole.len());
            for (i, piece) in pieces.iter().enumerate() {
                assert!(piece.len() <= chunk, "piece {i} overflows chunk {chunk}");
                // Only the last piece may be short.
                if i + 1 < pieces.len() {
                    assert_eq!(piece.len(), chunk);
                }
            }
            let cat: Vec<u8> = pieces.concat();
            assert_eq!(cat, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn size_is_reasonable() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        let bytes = encode_program(&p);
        let instrs = p.code_size();
        // A few bytes per instruction plus names — sanity band.
        assert!(bytes.len() > instrs, "{} bytes for {instrs} instrs", bytes.len());
        assert!(bytes.len() < instrs * 60, "{} bytes for {instrs} instrs", bytes.len());
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        let mut bytes = encode_program(&p);
        assert!(decode_program(&bytes[..10]).is_err());
        bytes[0] = b'X';
        assert!(decode_program(&bytes).is_err());
        assert!(decode_program(&[]).is_err());
    }

    /// One oversized count per allocation site — classes, fields, methods,
    /// code — must come back as an error, never an allocation of its size.
    #[test]
    fn oversized_counts_are_rejected() {
        let program = |classes: &[Vec<u8>], count: Option<u32>| {
            let mut w = W { buf: MAGIC.to_vec() };
            w.u16(VERSION);
            w.str("M");
            w.u32(count.unwrap_or(classes.len() as u32));
            for c in classes {
                w.usz(c.len());
                w.buf.extend_from_slice(c);
            }
            w.buf
        };
        // Class header: name, no super, not bootstrap.
        let header = || {
            let mut w = W { buf: Vec::new() };
            w.str("A");
            w.u8(0);
            w.u8(0);
            w
        };
        let mut fields = header();
        fields.u32(u32::MAX);
        let mut methods = header();
        methods.usz(0);
        methods.u32(u32::MAX);
        let mut code = header();
        code.usz(0);
        code.usz(1);
        code.str("m");
        code.u8(0);
        code.u8(0);
        code.u8(1);
        code.u16(0);
        code.u32(u32::MAX);
        let cases = [
            ("classes", program(&[], Some(u32::MAX))),
            ("fields", program(&[fields.buf], None)),
            ("methods", program(&[methods.buf], None)),
            ("code", program(&[code.buf], None)),
        ];
        for (site, bytes) in &cases {
            let err = decode_program(bytes).expect_err(site);
            assert!(err.0.contains("exceeds"), "{site}: {err}");
        }
    }

    #[test]
    fn decoded_program_loads_and_runs() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.const_i32(6).const_i32(7).imul().println_i32().ret();
            });
        });
        let p = pb.build_with_stdlib();
        let back = decode_program(&encode_program(&p)).unwrap();
        let r = crate::localvm::run_program(&back);
        assert!(r.errors.is_empty());
        assert_eq!(r.output, vec!["42"]);
    }
}
