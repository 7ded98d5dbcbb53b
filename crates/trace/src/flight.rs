//! Per-node flight recorder: a fixed ring of recent state transitions.
//!
//! When a 16-node run wedges or panics, the question is "what was each node
//! *just* doing" — the last few parks, publishes and decisions — not
//! the full trace. Each node owns a small ring it writes with plain atomic
//! stores (single writer, no locks, no allocation after construction); a
//! reader — the stall watchdog or the panic hook — snapshots the rings
//! best-effort and renders a timeline.
//!
//! Per-entry seqlock: the writer stamps `seq = 0` (torn marker), fills the
//! payload, then stamps the real odd/even-free sequence with `Release`. A
//! reader loads `seq` before and after the payload with `Acquire`; a
//! mismatch or a zero means the entry was mid-write and is skipped. A torn
//! read therefore loses one entry, never misreports one.

use crate::event::NodeId;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// What happened. Payload meaning of `(a, b)` is per-tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTag {
    /// Thread parked waiting for peers. a = safe horizon (ps), b = queue head (ps).
    Park,
    /// Thread resumed. a = safe horizon (ps), b = queue head (ps).
    Unpark,
    /// Epoch-mode slot publish. a = round, b = published next-event (ps).
    EpochPublish,
    /// Termination decision. a = 1 finished / 2 deadlocked / 3 aborted, b = round.
    Decide,
}

impl FlightTag {
    fn from_u32(v: u32) -> Option<FlightTag> {
        Some(match v {
            1 => FlightTag::Park,
            2 => FlightTag::Unpark,
            3 => FlightTag::EpochPublish,
            4 => FlightTag::Decide,
            _ => return None,
        })
    }

    fn as_u32(self) -> u32 {
        match self {
            FlightTag::Park => 1,
            FlightTag::Unpark => 2,
            FlightTag::EpochPublish => 3,
            FlightTag::Decide => 4,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            FlightTag::Park => "park",
            FlightTag::Unpark => "unpark",
            FlightTag::EpochPublish => "epoch_publish",
            FlightTag::Decide => "decide",
        }
    }
}

/// Entries kept per node. Power of two; 64 transitions cover several sync
/// rounds of context around a wedge.
pub const FLIGHT_RING: usize = 64;

struct Cell {
    /// 0 = torn/unwritten; otherwise the 1-based write sequence.
    seq: AtomicU64,
    /// Nanoseconds since the recorder's epoch (its construction).
    t_ns: AtomicU64,
    tag: AtomicU32,
    a: AtomicU64,
    b: AtomicU64,
}

impl Cell {
    fn new() -> Cell {
        Cell {
            seq: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            tag: AtomicU32::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

#[repr(align(128))]
struct NodeRing {
    cells: [Cell; FLIGHT_RING],
    /// Total entries ever written (next sequence = head + 1).
    head: AtomicU64,
}

/// One decoded flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    pub node: NodeId,
    /// Write sequence within the node's ring (1-based, monotone).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub t_ns: u64,
    pub tag: FlightTag,
    pub a: u64,
    pub b: u64,
}

/// The per-run flight recorder: one ring per node plus a wall-clock epoch.
pub struct FlightRecorder {
    rings: Vec<NodeRing>,
    t0: std::time::Instant,
}

impl FlightRecorder {
    pub fn new(n_nodes: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            rings: (0..n_nodes)
                .map(|_| NodeRing {
                    cells: std::array::from_fn(|_| Cell::new()),
                    head: AtomicU64::new(0),
                })
                .collect(),
            t0: std::time::Instant::now(),
        })
    }

    pub fn n_nodes(&self) -> usize {
        self.rings.len()
    }

    /// Record one transition. Single-writer per node: only node `node`'s
    /// thread may call this for `node`.
    pub fn log(&self, node: NodeId, tag: FlightTag, a: u64, b: u64) {
        let ring = &self.rings[node as usize];
        let seq = ring.head.load(Ordering::Relaxed) + 1;
        let cell = &ring.cells[(seq - 1) as usize % FLIGHT_RING];
        // Mark torn, fill, then commit the new seq and head with Release so
        // a reader that sees the seq also sees the payload.
        cell.seq.store(0, Ordering::Release);
        cell.t_ns.store(self.t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        cell.tag.store(tag.as_u32(), Ordering::Relaxed);
        cell.a.store(a, Ordering::Relaxed);
        cell.b.store(b, Ordering::Relaxed);
        cell.seq.store(seq, Ordering::Release);
        ring.head.store(seq, Ordering::Release);
    }

    /// Best-effort snapshot of one node's ring, oldest first. Entries being
    /// overwritten mid-read are skipped, never misreported.
    pub fn dump_node(&self, node: NodeId) -> Vec<FlightEntry> {
        let ring = &self.rings[node as usize];
        let head = ring.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(FLIGHT_RING as u64) + 1;
        let mut out = Vec::new();
        for seq in lo..=head {
            if seq == 0 {
                continue;
            }
            let cell = &ring.cells[(seq - 1) as usize % FLIGHT_RING];
            let s1 = cell.seq.load(Ordering::Acquire);
            if s1 != seq {
                continue;
            }
            let (t_ns, tag, a, b) = (
                cell.t_ns.load(Ordering::Relaxed),
                cell.tag.load(Ordering::Relaxed),
                cell.a.load(Ordering::Relaxed),
                cell.b.load(Ordering::Relaxed),
            );
            let s2 = cell.seq.load(Ordering::Acquire);
            if s2 != seq {
                continue;
            }
            let Some(tag) = FlightTag::from_u32(tag) else { continue };
            out.push(FlightEntry { node, seq, t_ns, tag, a, b });
        }
        out
    }

    /// Snapshot every node's ring.
    pub fn dump(&self) -> Vec<FlightEntry> {
        (0..self.rings.len() as NodeId).flat_map(|n| self.dump_node(n)).collect()
    }

    /// Human-readable timeline of every ring (for the watchdog and the
    /// panic hook). `u64::MAX` payloads render as `inf`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for node in 0..self.rings.len() as NodeId {
            let entries = self.dump_node(node);
            s.push_str(&format!("flight node {node}: {} entries\n", entries.len()));
            for e in entries {
                let fmt = |v: u64| {
                    if v == u64::MAX { "inf".to_string() } else { v.to_string() }
                };
                s.push_str(&format!(
                    "  [{:>10.3}ms] #{:<5} {:<14} a={} b={}\n",
                    e.t_ns as f64 / 1e6,
                    e.seq,
                    e.tag.label(),
                    fmt(e.a),
                    fmt(e.b),
                ));
            }
        }
        s
    }
}

/// Recorders armed for the panic hook. Weak so a finished run's recorder
/// (and its rings) can drop; the hook skips dead entries.
static ARMED: OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
static HOOK_INSTALLED: std::sync::Once = std::sync::Once::new();

/// Register a recorder to be dumped to stderr if any thread panics. The
/// process-wide hook is installed once and chains to the previous hook, so
/// normal panic messages still print. Call [`disarm_panic_dump`] when the
/// run completes normally.
pub fn arm_panic_dump(rec: &Arc<FlightRecorder>) {
    let armed = ARMED.get_or_init(|| Mutex::new(Vec::new()));
    {
        let mut v = armed.lock().unwrap_or_else(|e| e.into_inner());
        v.retain(|w| w.strong_count() > 0);
        v.push(Arc::downgrade(rec));
    }
    HOOK_INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if let Some(armed) = ARMED.get() {
                let recs: Vec<Arc<FlightRecorder>> = {
                    let v = armed.lock().unwrap_or_else(|e| e.into_inner());
                    v.iter().filter_map(Weak::upgrade).collect()
                };
                for rec in recs {
                    eprintln!("--- flight recorder (panic) ---\n{}", rec.render());
                }
            }
        }));
    });
}

/// Drop a recorder from the panic hook's list (normal run completion).
pub fn disarm_panic_dump(rec: &Arc<FlightRecorder>) {
    if let Some(armed) = ARMED.get() {
        let mut v = armed.lock().unwrap_or_else(|e| e.into_inner());
        v.retain(|w| w.strong_count() > 0 && !Weak::ptr_eq(w, &Arc::downgrade(rec)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_dump_roundtrip() {
        let fr = FlightRecorder::new(2);
        fr.log(0, FlightTag::Park, 100, 200);
        fr.log(0, FlightTag::Unpark, 150, u64::MAX);
        fr.log(1, FlightTag::EpochPublish, 300, 100);
        let n0 = fr.dump_node(0);
        assert_eq!(n0.len(), 2);
        assert_eq!(n0[0].tag, FlightTag::Park);
        assert_eq!(n0[0].seq, 1);
        assert_eq!((n0[0].a, n0[0].b), (100, 200));
        assert_eq!(n0[1].tag, FlightTag::Unpark);
        assert!(n0[0].t_ns <= n0[1].t_ns);
        assert_eq!(fr.dump_node(1).len(), 1);
        assert_eq!(fr.dump().len(), 3);
        let txt = fr.render();
        assert!(txt.contains("park"), "{txt}");
        assert!(txt.contains("b=inf"), "{txt}");
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let fr = FlightRecorder::new(1);
        for i in 0..(FLIGHT_RING as u64 + 10) {
            fr.log(0, FlightTag::EpochPublish, i, 0);
        }
        let entries = fr.dump_node(0);
        assert_eq!(entries.len(), FLIGHT_RING);
        assert_eq!(entries.first().unwrap().a, 10);
        assert_eq!(entries.last().unwrap().a, FLIGHT_RING as u64 + 9);
        // Sequences stay monotone across the wrap.
        for w in entries.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn concurrent_reader_never_sees_torn_entries() {
        let fr = FlightRecorder::new(1);
        let writer = {
            let fr = fr.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    // Invariant under test: a == b in every committed entry.
                    fr.log(0, FlightTag::EpochPublish, i, i);
                }
            })
        };
        let mut seen = 0usize;
        while !writer.is_finished() {
            for e in fr.dump_node(0) {
                assert_eq!(e.a, e.b, "torn entry surfaced");
                seen += 1;
            }
        }
        writer.join().unwrap();
        assert_eq!(fr.dump_node(0).len(), FLIGHT_RING);
        let _ = seen;
    }

    #[test]
    fn tag_codes_roundtrip() {
        for tag in [
            FlightTag::Park,
            FlightTag::Unpark,
            FlightTag::EpochPublish,
            FlightTag::Decide,
        ] {
            assert_eq!(FlightTag::from_u32(tag.as_u32()), Some(tag));
            assert!(!tag.label().is_empty());
        }
        assert_eq!(FlightTag::from_u32(0), None);
        assert_eq!(FlightTag::from_u32(99), None);
    }
}
