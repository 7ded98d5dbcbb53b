//! Run reports: everything the benchmarks and tests observe about a run.
//!
//! Every driver ends a run the same way: each node's results become a
//! [`NodeReport`] (the sim builds them from its runtimes, the threads
//! backend from its engines' outcomes, the sockets coordinator decodes them
//! off the wire), and [`RunReport::fold`] turns the list into the run's
//! report. What only some drivers have rides along in [`RunFacts`].

use crate::config::ClusterConfig;
use crate::env::CONSOLE_NODE;
use jsplit_dsm::DsmStats;
use jsplit_mjvm::heap::ThreadUid;
use jsplit_mjvm::interp::VmError;
use jsplit_mjvm::opstats::OpStats;
use jsplit_net::{FrameStats, NetStats};
use jsplit_rewriter::RewriteStats;
use jsplit_trace::{
    Event, LockStat, NodeBreakdown, ObjProfReport, ObjProfile, SpanKind, TelemetrySummary, WallProfile,
};
use std::fmt::Write as _;

/// Everything one node contributes to the [`RunReport`] — the sockets
/// backend carries it home from each worker in the `Report` envelope.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct NodeReport {
    /// Console output (non-empty on the console node only).
    pub console: Vec<String>,
    /// Threads that trapped on this node (the sim records its errors
    /// globally instead, in [`RunFacts::errors`]).
    pub errors: Vec<(ThreadUid, VmError)>,
    /// The cluster-wide end-of-run decision, identical on every node.
    pub deadlocked: bool,
    pub aborted: bool,
    pub ops: u64,
    pub spawned_here: u32,
    pub finish_time: u64,
    /// Final length of this node's event slab (0 under the sim, whose one
    /// global slab is [`RunFacts::event_slab`]).
    pub slab_high_water: u64,
    /// Epoch rounds (identical on every node; 0 under the sim).
    pub windows: u64,
    pub barrier_waits: u64,
    /// Latest class-file arrival this node planned (the console node ships
    /// the classes; 0 elsewhere).
    pub setup_ps: u64,
    pub net: NetStats,
    pub dsm: Option<DsmStats>,
    pub frames: FrameStats,
    /// Rendered flight-recorder tail (sockets workers only; "" elsewhere).
    pub flight: String,
    /// Per-object sharing profile (`None` unless the profiler is on).
    pub objprof: Option<ObjProfile>,
}

/// The inputs to [`RunReport::fold`] that are not per node.
#[derive(Default)]
pub(crate) struct RunFacts {
    pub rewrite: Option<RewriteStats>,
    pub class_bytes: usize,
    pub host_wall_secs: f64,
    pub telemetry: Option<TelemetrySummary>,
    /// The sim's errors, in their global occurrence order (live drivers
    /// report theirs per node).
    pub errors: Vec<(ThreadUid, VmError)>,
    /// The sim's one global event slab (live drivers' slabs are per node).
    pub event_slab: u64,
    /// Every node's recorded events, leftover buffers already flushed at
    /// the global finish time ([`finish_time`]); `None` when untraced.
    pub trace: Option<Vec<Event>>,
    /// The threads backend's wall-clock profile.
    pub wall: Option<WallProfile>,
    /// The sim's merged opcode counters.
    pub opstats: Option<OpStats>,
}

/// Virtual time at which the run's last thread finished.
pub(crate) fn finish_time(nodes: &[NodeReport]) -> u64 {
    nodes.iter().map(|n| n.finish_time).max().unwrap_or(0)
}

/// Synchronization-layer counters from the threads backend (all zero under
/// the sim backend, which has no windows or frames). Deliberately *not*
/// part of [`NetStats`]: message-level accounting must stay identical
/// across backends, while these describe how the parallel execution was
/// orchestrated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Synchronization windows (epoch rounds) the cluster ran.
    pub windows: u64,
    /// Total `Barrier::wait` calls across nodes (one per node per round
    /// under the epoch protocol; the pre-overhaul driver paid two).
    pub barrier_waits: u64,
    /// Frames shipped across all nodes.
    pub frames_sent: u64,
    /// Total frame bytes (headers + payloads) across all nodes.
    pub frame_bytes: u64,
    /// Messages carried inside frames across all nodes.
    pub msgs_framed: u64,
}

impl SyncStats {
    /// Channel crossings saved by coalescing: messages that rode along in
    /// an already-counted frame.
    pub fn msgs_batched(&self) -> u64 {
        self.msgs_framed.saturating_sub(self.frames_sent)
    }

    /// Mean shipped frame size in bytes.
    pub fn bytes_per_frame_avg(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.frame_bytes as f64 / self.frames_sent as f64
        }
    }
}

/// The result of a completed cluster run.
#[derive(Debug)]
pub struct RunReport {
    /// Virtual time at which the last application thread finished.
    pub exec_time_ps: u64,
    /// Console output in arrival order at the console node.
    pub output: Vec<String>,
    /// Threads that died with a trap.
    pub errors: Vec<(ThreadUid, VmError)>,
    /// `true` if the run stalled with live but unrunnable threads.
    pub deadlocked: bool,
    /// `true` if the `max_ops` guard aborted the run.
    pub aborted: bool,
    /// Instructions retired across all nodes.
    pub ops: u64,
    /// Threads created over the run (including main).
    pub threads: u32,
    /// Per-node network statistics.
    pub net_per_node: Vec<NetStats>,
    /// Per-node DSM statistics (empty in baseline mode).
    pub dsm_per_node: Vec<DsmStats>,
    /// Rewriter statistics (JavaSplit mode only).
    pub rewrite: Option<RewriteStats>,
    /// Setup time: distributing the rewritten class files to the initial
    /// pool (paper §2) — excluded from `exec_time_ps`, like the paper's
    /// measurement window.
    pub setup_ps: u64,
    /// Serialized size of the shipped program.
    pub class_bytes: u64,
    /// High-water mark of *simultaneously live* scheduler events: the final
    /// length of the event-payload slab, whose slots are recycled through a
    /// free list. Stays flat as total events processed grows — asserted by
    /// the bounded-memory regression test.
    pub event_slab_high_water: u64,
    /// Instructions retired per node.
    pub ops_per_node: Vec<u64>,
    /// The full structured event stream, sorted by virtual time (`None`
    /// unless the run was configured with [`ClusterConfig::with_trace`]).
    ///
    /// [`ClusterConfig::with_trace`]: crate::config::ClusterConfig::with_trace
    pub trace: Option<Vec<Event>>,
    /// Per-node time breakdown derived from the trace (empty when tracing
    /// is off). With [`jsplit_trace::TraceMode::Full`] each node's buckets
    /// sum exactly to `exec_time_ps × cpus`.
    pub breakdown: Vec<NodeBreakdown>,
    /// Per-lock contention statistics derived from the trace (empty when
    /// tracing is off).
    pub lock_stats: Vec<LockStat>,
    /// Host (real) time the driver spent executing the run. For the sim
    /// backend this measures the simulator itself; for the threads backend
    /// it is the wall-clock time of the parallel execution — the number the
    /// live benchmarks report.
    pub host_wall_secs: f64,
    /// Threads-backend synchronization counters (zero for sim runs).
    pub sync: SyncStats,
    /// Wall-clock span profile from the threads backend (`None` for sim
    /// runs or when profiling is off): per-node stall breakdown summing to
    /// each thread's wall time, plus latency/size histograms.
    pub wall: Option<WallProfile>,
    /// Live-telemetry time series summary (`None` unless the run was
    /// configured with [`ClusterConfig::with_metrics`]): sample count,
    /// peak/mean cluster rates, horizon-lag percentiles, watchdog stalls.
    ///
    /// [`ClusterConfig::with_metrics`]: crate::config::ClusterConfig::with_metrics
    pub telemetry: Option<TelemetrySummary>,
    /// Merged opcode/pair frequency counters (`None` unless the run was
    /// configured with [`ClusterConfig::with_opstats`]; sim backend only).
    ///
    /// [`ClusterConfig::with_opstats`]: crate::config::ClusterConfig::with_opstats
    pub opstats: Option<jsplit_mjvm::opstats::OpStats>,
    /// Per-object DSM sharing report (`None` unless the run was configured
    /// with [`ClusterConfig::with_objprof`]): every profiled object with its
    /// sharing class, per-node event matrix, heat rank and home-migration
    /// advice. Identical across backends for the same program.
    ///
    /// [`ClusterConfig::with_objprof`]: crate::config::ClusterConfig::with_objprof
    pub objprof: Option<ObjProfReport>,
}

impl RunReport {
    /// Fold the per-node reports (in node order) into the run's report —
    /// the one place every driver's results are assembled. Traces are
    /// canonicalized here, so a trace comes out in the same normal form
    /// whichever driver recorded it (DESIGN.md §13.3).
    pub(crate) fn fold(config: &ClusterConfig, mut nodes: Vec<NodeReport>, facts: RunFacts) -> RunReport {
        let finish = finish_time(&nodes);
        let mut errors = facts.errors;
        for n in &mut nodes {
            errors.append(&mut n.errors);
        }
        let trace = facts.trace.map(jsplit_trace::canonicalize);
        let (breakdown, lock_stats) = match &trace {
            Some(evs) => {
                let cpus = vec![config.cpus_per_node as u32; nodes.len()];
                (jsplit_trace::node_breakdown(evs, &cpus, finish), jsplit_trace::lock_contention(evs))
            }
            None => (Vec::new(), Vec::new()),
        };
        let objprof = config.objprof.then(|| {
            let profiles: Vec<ObjProfile> = nodes.iter_mut().map(|n| n.objprof.take().unwrap_or_default()).collect();
            jsplit_trace::build_report(&profiles)
        });
        let output = std::mem::take(&mut nodes[CONSOLE_NODE as usize].console);
        let sum = |f: fn(&NodeReport) -> u64| nodes.iter().map(f).sum::<u64>();
        RunReport {
            exec_time_ps: finish,
            output,
            errors,
            deadlocked: nodes[0].deadlocked,
            aborted: nodes[0].aborted,
            ops: sum(|n| n.ops),
            threads: nodes.iter().map(|n| n.spawned_here).sum(),
            net_per_node: nodes.iter().map(|n| n.net.clone()).collect(),
            dsm_per_node: nodes.iter().filter_map(|n| n.dsm.clone()).collect(),
            rewrite: facts.rewrite,
            setup_ps: nodes.iter().map(|n| n.setup_ps).max().unwrap_or(0),
            class_bytes: facts.class_bytes as u64,
            event_slab_high_water: nodes.iter().map(|n| n.slab_high_water).max().unwrap_or(0).max(facts.event_slab),
            ops_per_node: nodes.iter().map(|n| n.ops).collect(),
            trace,
            breakdown,
            lock_stats,
            host_wall_secs: facts.host_wall_secs,
            sync: SyncStats {
                windows: nodes[0].windows,
                barrier_waits: sum(|n| n.barrier_waits),
                frames_sent: sum(|n| n.frames.frames_sent),
                frame_bytes: sum(|n| n.frames.frame_bytes),
                msgs_framed: sum(|n| n.frames.msgs_framed),
            },
            wall: facts.wall,
            telemetry: facts.telemetry,
            opstats: facts.opstats,
            objprof,
        }
    }

    /// Execution time in (virtual) seconds.
    pub fn exec_time_secs(&self) -> f64 {
        self.exec_time_ps as f64 / jsplit_mjvm::cost::PS_PER_SEC as f64
    }

    /// Cluster-wide network totals.
    pub fn net_total(&self) -> NetStats {
        let mut t = NetStats::default();
        for s in &self.net_per_node {
            t.merge(s);
        }
        t
    }

    /// Cluster-wide DSM totals.
    pub fn dsm_total(&self) -> DsmStats {
        let mut t = DsmStats::default();
        for s in &self.dsm_per_node {
            t.merge(s);
        }
        t
    }

    /// Assert the run completed cleanly (test helper).
    pub fn expect_clean(&self) -> &Self {
        assert!(!self.deadlocked, "run deadlocked");
        assert!(!self.aborted, "run aborted by max_ops");
        assert!(self.errors.is_empty(), "thread traps: {:?}", self.errors);
        self
    }

    /// A human-readable per-node summary table, plus — when the run was
    /// traced — the stall breakdown and the most contended locks.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "exec {:.6} s  ({} ops, {} threads{}{})",
            self.exec_time_secs(),
            self.ops,
            self.threads,
            if self.deadlocked { ", DEADLOCKED" } else { "" },
            if self.aborted { ", ABORTED" } else { "" },
        );
        let _ = writeln!(
            s,
            "{:>4} {:>14} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8} {:>8}",
            "node", "ops", "snd msgs", "snd bytes", "rcv msgs", "rcv bytes", "fetches", "diffs", "grants"
        );
        for (i, ops) in self.ops_per_node.iter().enumerate() {
            let net = self.net_per_node.get(i);
            let dsm = self.dsm_per_node.get(i);
            let _ = writeln!(
                s,
                "{:>4} {:>14} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8} {:>8}",
                i,
                ops,
                net.map_or(0, |n| n.msgs_sent),
                net.map_or(0, |n| n.bytes_sent),
                net.map_or(0, |n| n.msgs_recv),
                net.map_or(0, |n| n.bytes_recv),
                dsm.map_or(0, |d| d.fetches),
                dsm.map_or(0, |d| d.diffs_sent),
                dsm.map_or(0, |d| d.grants_sent),
            );
        }
        let net = self.net_total();
        let dsm = self.dsm_total();
        let _ = writeln!(
            s,
            "{:>4} {:>14} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8} {:>8}",
            "all",
            self.ops,
            net.msgs_sent,
            net.bytes_sent,
            net.msgs_recv,
            net.bytes_recv,
            dsm.fetches,
            dsm.diffs_sent,
            dsm.grants_sent,
        );
        let mut cluster = format!(
            "cluster: {:.0} ops/sec host, {} bytes on the wire",
            self.ops as f64 / self.host_wall_secs.max(1e-9),
            net.bytes_sent,
        );
        if let Some((kind, ns)) = self.wall.as_ref().and_then(|w| w.dominant_stall()) {
            let wall_total: u64 =
                self.wall.as_ref().map_or(0, |w| w.nodes.iter().map(|n| n.accounted_ns()).sum());
            let _ = write!(
                cluster,
                ", dominant stall {} {:.1}%",
                kind.label(),
                100.0 * ns as f64 / wall_total.max(1) as f64
            );
        }
        let _ = writeln!(s, "{cluster}");
        if !self.breakdown.is_empty() {
            let _ = writeln!(
                s,
                "{:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "node", "compute%", "lock%", "fetch%", "ack%", "idle%"
            );
            for b in &self.breakdown {
                let tot = b.total_ps().max(1) as f64;
                let pct = |v: u64| 100.0 * v as f64 / tot;
                let _ = writeln!(
                    s,
                    "{:>4} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                    b.node,
                    pct(b.compute_ps),
                    pct(b.lock_wait_ps),
                    pct(b.fetch_stall_ps),
                    pct(b.ack_wait_ps),
                    pct(b.idle_ps),
                );
            }
        }
        if self.sync.windows > 0 {
            let _ = writeln!(
                s,
                "sync: {} windows, {} barrier waits, {} frames ({} msgs framed, {} batched, {:.1} B/frame avg)",
                self.sync.windows,
                self.sync.barrier_waits,
                self.sync.frames_sent,
                self.sync.msgs_framed,
                self.sync.msgs_batched(),
                self.sync.bytes_per_frame_avg(),
            );
        }
        if let Some(wall) = &self.wall {
            let _ = writeln!(
                s,
                "{:>4} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}",
                "node",
                "wall ms",
                "exec%",
                "barr%",
                "spin%",
                "cv%",
                "inbox%",
                "flush%",
                "decide%",
                "wait p50",
                "wait p90",
                "wait p99"
            );
            for n in &wall.nodes {
                let tot = n.accounted_ns().max(1) as f64;
                let pct = |k: SpanKind| 100.0 * n.stats_of(k).total_ns as f64 / tot;
                let wait = n.stats_of(SpanKind::BarrierWait);
                let us = |ns: u64| format!("{:.1}us", ns as f64 / 1_000.0);
                let _ = writeln!(
                    s,
                    "{:>4} {:>9.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9} {:>9} {:>9}",
                    n.node,
                    n.wall_ns as f64 / 1e6,
                    pct(SpanKind::Execute),
                    pct(SpanKind::BarrierWait),
                    pct(SpanKind::SlotSpin),
                    pct(SpanKind::CondvarWait),
                    pct(SpanKind::InboxDrain),
                    pct(SpanKind::FrameFlush),
                    pct(SpanKind::Decide),
                    us(wait.hist.percentile(0.50)),
                    us(wait.hist.percentile(0.90)),
                    us(wait.hist.percentile(0.99)),
                );
            }
            if let Some((kind, ns)) = wall.dominant_stall() {
                let wall_total: u64 = wall.nodes.iter().map(|n| n.accounted_ns()).sum();
                let _ = writeln!(
                    s,
                    "dominant stall: {} ({:.1}% of cluster wall time; window p50 {:.3} us virtual)",
                    kind.label(),
                    100.0 * ns as f64 / wall_total.max(1) as f64,
                    wall.nodes.first().map_or(0.0, |n| n.window_ps.percentile(0.50) as f64 / 1e6),
                );
            }
        }
        if let Some(t) = &self.telemetry {
            let (p50, p90, p99) = crate::telemetry::lag_percentiles(t);
            let _ = writeln!(
                s,
                "telemetry: {} samples; ops/sec peak {:.0} mean {:.0}; bytes/sec peak {:.0} mean {:.0}; horizon lag p50/p90/p99 {}/{}/{} ps",
                t.samples,
                t.peak_ops_per_sec,
                t.mean_ops_per_sec,
                t.peak_bytes_per_sec,
                t.mean_bytes_per_sec,
                p50,
                p90,
                p99,
            );
            for stall in &t.stalls {
                let _ = writeln!(s, "{}", crate::telemetry::render_stall(stall));
            }
        }
        if let Some(op) = &self.objprof {
            let _ = writeln!(
                s,
                "{:>14} {:>5} {:>17} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
                "object gid", "home", "class", "heat", "fetches", "diffs", "invals", "acq rem", "grants"
            );
            use jsplit_trace::ObjEvent as OE;
            for o in op.objects.iter().take(10) {
                let _ = writeln!(
                    s,
                    "{:>14} {:>5} {:>17} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
                    o.gid,
                    o.home,
                    o.class.name(),
                    o.heat,
                    o.total[OE::Fetch.index()],
                    o.total[OE::DiffSent.index()],
                    o.total[OE::Invalidated.index()],
                    o.total[OE::AcquireRemote.index()],
                    o.total[OE::Grant.index()],
                );
            }
            if op.objects.len() > 10 {
                let _ = writeln!(s, "... {} more profiled objects", op.objects.len() - 10);
            }
            for &i in op.candidates.iter().take(5) {
                let o = &op.objects[i];
                let _ = writeln!(
                    s,
                    "migrate gid {} home {} -> node {} (saves ~{} coherence msgs, {})",
                    o.gid,
                    o.home,
                    o.advice.dominant,
                    o.advice.score,
                    o.class.name(),
                );
            }
        }
        if !self.lock_stats.is_empty() {
            let mut hot: Vec<_> = self.lock_stats.iter().collect();
            hot.sort_by_key(|l| std::cmp::Reverse(l.total_wait_ps));
            let _ = writeln!(
                s,
                "{:>12} {:>9} {:>9} {:>7} {:>14} {:>14}",
                "lock gid", "acquires", "transfers", "max q", "total wait ps", "mean wait ps"
            );
            for l in hot.iter().take(10) {
                let _ = writeln!(
                    s,
                    "{:>12} {:>9} {:>9} {:>7} {:>14} {:>14}",
                    l.gid, l.acquires, l.transfers, l.max_queue, l.total_wait_ps, l.mean_wait_ps()
                );
            }
        }
        s
    }
}
