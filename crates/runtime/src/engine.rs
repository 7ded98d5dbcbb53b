//! The backend-agnostic conservative synchronization engine.
//!
//! One [`SyncEngine`] is a node's event loop: drain inbound records →
//! derive a safe virtual-time horizon → execute local events below it →
//! publish progress — the conservative PDES core shared by every parallel
//! backend. There is one protocol, epoch rounds (DESIGN.md §12; §14 says
//! why there is no second one). What *varies* per backend is how progress
//! crosses node boundaries, and that seam is one small trait,
//! [`EpochPeers`]: the protocol's four primitives — round barrier, slot
//! publish, publish wait, slot read. The threads backend implements them
//! over shared-memory atomics and a `std::sync::Barrier`; the sockets
//! backend over `Barrier`/`BarrierAck`/`Slot`/`Slots` envelopes relayed by
//! the coordinator.
//!
//! # Conservative virtual-time windows
//!
//! Virtual time is the semantic clock (instruction costs, link latencies);
//! only the *execution* is parallel. Every cross-node message carries at
//! least the sender's per-message base latency, so a node can safely
//! process local events up to a horizon no in-flight or future message can
//! undercut.
//!
//! ## Lookahead
//!
//! Every horizon comes from one rule, [`Horizons::horizon`], over the
//! per-node promises published each round (null-message style): node `j`
//! advances to
//!
//! ```text
//! h_j = min( min_{i≠j} (next_i + base_i),          direct influence
//!            next_j + base_j + min_{i≠j} base_i )  self-echo via a peer
//! ```
//!
//! The first term bounds any chain of causality *starting at a peer*: all
//! of `i`'s sends this round happen at virtual times ≥ `next_i` (it drains
//! only at round boundaries, and every effect of an event at `t` is
//! stamped ≥ `t`), so anything reaching `j` — directly or through other
//! nodes, which only add nonnegative hops — arrives ≥ `next_i + base_i`.
//! The second term bounds chains starting at `j` itself: `j`'s earliest
//! send leaves at ≥ `next_j`, needs `base_j` to reach any peer and at
//! least the cheapest peer base to come back. Without it a two-hop echo
//! through an idle peer (`next_i = ∞`) could arrive inside an unbounded
//! window. Idle peers otherwise cost nothing — `∞ + base` never binds —
//! which is what lets lightly-coupled topologies run long windows.
//!
//! Each term adds some `base_i ≥ min(base)` to some `next_i ≥ min(next)`,
//! so `h_j ≥ min(next) + min(base)`: a single cluster-wide window of the
//! cheapest base latency is never longer than this rule's.
//!
//! Within a window nodes run concurrently on real CPUs (the wall-clock
//! speedup), yet each node's virtual-time execution is identical to what
//! the sequential simulator would do — program output and protocol
//! counters match the sim backend under every backend (asserted by the
//! cross-backend differential tests). The residual
//! freedom is tie-ordering of *distinct nodes'* events at exactly equal
//! virtual times, which the deterministic key resolves run-to-run
//! reproducibly.

use crate::balance::{BalancerState, LoadBalancer};
use crate::config::{ClusterConfig, Mode};
use crate::driver::{link_params, LiveNode};
use crate::env::CONSOLE_NODE;
use crate::node::{Effect, LocalEv, NodeRuntime};
use crate::queue::EventQueue;
use crate::report::NodeReport;
use jsplit_dsm::Msg;
use jsplit_mjvm::heap::ThreadUid;
use jsplit_mjvm::interp::{Frame, VmError};
use jsplit_mjvm::loader::MethodId;
use jsplit_mjvm::Value;
use jsplit_net::{ChannelEndpoint, NodeId, Reader};
use jsplit_trace::{
    Event, FlightRecorder, FlightTag, Metric, MetricsRegistry, NodeWallProfile, RingRecorder,
    SpanKind, SpanRecorder, TraceEvent, TraceMode, TraceSink, VecRecorder,
};
use std::sync::Arc;
use std::time::Instant;

/// Per-node sink construction (the `Send` bound lets it ride to the node's
/// OS thread; the sim's global `make_sink` doesn't need one).
fn make_node_sink(mode: TraceMode) -> Box<dyn TraceSink + Send> {
    match mode {
        TraceMode::Full => Box::new(VecRecorder::new()),
        TraceMode::Ring(cap) => Box::new(RingRecorder::new(cap)),
    }
}

/// The lookahead tables every horizon decision reads — backend-independent
/// cluster constants, owned (small vectors) by each node's engine.
#[derive(Debug, Clone)]
pub(crate) struct Horizons {
    /// Per-sender zero-byte latency (ps): the lookahead each node's
    /// promise is extended by.
    pub base_ps: Vec<u64>,
    pub max_ops: u64,
}

impl Horizons {
    /// The cluster's lookahead tables from its configuration. Every
    /// horizon adds base latencies, so the loopback bound — which
    /// `loopback_ps` clamps below the base — must sit below each of them.
    pub fn new(config: &ClusterConfig) -> Horizons {
        let base_ps = config
            .nodes
            .iter()
            .map(|s| {
                let l = link_params(*s);
                assert!(l.loopback_ps() <= l.base_ps(), "loopback bound {} ps above link base {} ps", l.loopback_ps(), l.base_ps());
                l.base_ps()
            })
            .collect();
        Horizons { base_ps, max_ops: config.max_ops }
    }

    /// The safe horizon of node `me` given every node's published `next`
    /// (module docs give the rule and its argument). Saturating: idle
    /// peers (`next = ∞`) never bind, and a single node — no peer, so an
    /// infinite return hop — gets one unbounded window.
    pub fn horizon(&self, me: usize, nexts: &[u64]) -> u64 {
        let mut direct = u64::MAX;
        let mut echo_hop = u64::MAX;
        for (i, (nx, &base)) in nexts.iter().zip(&self.base_ps).enumerate() {
            if i != me {
                direct = direct.min(nx.saturating_add(base));
                echo_hop = echo_hop.min(base);
            }
        }
        direct.min(nexts[me].saturating_add(self.base_ps[me]).saturating_add(echo_hop))
    }
}

/// One node's per-round aggregates under epoch sync: the values every node
/// publishes after its drain and reads from every peer before deciding.
/// The quintuple is what crosses backends — shared-memory atomics in the
/// threads backend, an explicit `Slot` wire record in the sockets backend.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochSlot {
    /// Earliest local event time after this round's drain — a lower bound
    /// on the virtual time of *any* future send by this node (`u64::MAX`
    /// if idle). Non-decreasing across rounds.
    pub next_event: u64,
    pub live: u64,
    /// Cumulative `SpawnThread` messages sent / installed (their difference
    /// is the cluster-wide in-flight count — the sim's `in_flight` sum).
    pub spawns_sent: u64,
    pub spawns_recv: u64,
    pub ops: u64,
}

/// The epoch protocol's synchronization seam. Contract per round `r`
/// (DESIGN.md §16.2):
///
/// 1. [`EpochPeers::barrier`] returns only after every node has entered it
///    for round `r`, and everything a peer flushed before entering is in
///    this node's inbound channel when it returns;
/// 2. [`EpochPeers::publish`] makes this node's round-`r` slot readable by
///    every peer (a Release-equivalent: peers that observe the publish
///    observe the slot values);
/// 3. [`EpochPeers::wait`] returns once all `n` round-`r` slots are
///    readable (the matching Acquire), reporting whether it parked;
/// 4. [`EpochPeers::read`] yields all `n` slots for round `r` — the same
///    values on every node, so every node derives the same decision.
pub(crate) trait EpochPeers {
    fn barrier(&mut self);
    fn publish(&mut self, me: NodeId, round: u64, slot: &EpochSlot);
    /// `before_park` runs once, after any spin budget and before the
    /// blocking path — the engine hangs profiling marks and the parked
    /// gauge there. Returns whether the wait blocked.
    fn wait(&mut self, round: u64, before_park: &mut dyn FnMut()) -> bool;
    fn read(&mut self, round: u64, out: &mut [EpochSlot]);
}

/// What one node's engine hands back when the run is over.
pub(crate) struct NodeOutcome {
    pub report: NodeReport,
    /// The node's trace, still open (`None` when tracing is off).
    pub trace: Option<TraceTail>,
    /// Wall-clock span profile (`None` unless profiling was on).
    pub profile: Option<NodeWallProfile>,
}

/// A node's private trace sink plus the buffers not yet recorded into it:
/// the DSM's unstamped events, stamped at the *global* finish time that no
/// single node knows, and the endpoint's pre-stamped sends.
pub(crate) struct TraceTail {
    sink: Box<dyn TraceSink + Send>,
    dsm: Vec<TraceEvent>,
    net: Vec<Event>,
}

impl TraceTail {
    /// Flush the leftovers at `finish` — in the order the sim's final
    /// drain records them — and close the sink.
    pub fn close(mut self, finish: u64) -> Vec<Event> {
        for ev in self.dsm {
            self.sink.record(Event { t: finish, ev });
        }
        for e in self.net {
            self.sink.record(e);
        }
        self.sink.into_events()
    }
}

/// A node-local scheduled event (the per-node analogue of the sim driver's
/// global queue entry).
enum NodeEv {
    Local(LocalEv),
    Deliver { src: NodeId, msg: Msg },
}

/// One node's conservative event loop, generic over how progress crosses
/// node boundaries (see the module docs). The threads backend runs one per
/// OS thread; the sockets backend one per worker process.
pub(crate) struct SyncEngine {
    node: NodeRuntime,
    endpoint: ChannelEndpoint,
    hz: Horizons,
    mode: Mode,
    thread_main: MethodId,
    n_nodes: usize,
    /// Strided uid allocation: `id + k·n` — disjoint from every other node
    /// without global coordination. uids are fixed-width on the wire, so
    /// message sizes (and byte counters) match the sim's dense allocation.
    next_uid: ThreadUid,
    lb: BalancerState,
    /// `SpawnThread`s this node shipped per destination (the origin-local
    /// load estimate: remote loads are what we shipped there).
    shipped_to: Vec<u64>,
    /// Self-shipped spawns not yet installed (counted into our own load).
    self_inflight: u64,
    spawns_sent: u64,
    spawns_recv: u64,
    /// Local event queue, deterministically ordered by
    /// `(time, step, lane, seq)`: `step` is the virtual time of the event
    /// that produced the entry, `lane` the producing node, `seq` the
    /// queue's push counter.
    events: EventQueue<(u64, u64, NodeId), NodeEv>,
    /// Latest class-file arrival this node planned at setup.
    setup_ps: u64,
    errors: Vec<(ThreadUid, VmError)>,
    fx: Vec<Effect>,
    /// Reused drain staging buffer (sorted per round, never reallocated in
    /// the steady state).
    drain_scratch: Vec<(u64, u64, NodeId, u64, Msg)>,
    windows: u64,
    barrier_waits: u64,
    /// This node's private trace sink (`None` = tracing off). Never shared:
    /// recording is a plain method call on thread-local state.
    recorder: Option<Box<dyn TraceSink + Send>>,
    /// Wall-clock span profiler (`None` = profiling off: one branch/site).
    pub profiler: Option<SpanRecorder>,
    /// Live-metrics registry (`None` = metrics off: one branch per publish
    /// site). Values go out as single relaxed stores of counters this loop
    /// already maintains — the sampler thread does all derived work.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Flight recorder for recent state transitions (`None` = off).
    flight: Option<Arc<FlightRecorder>>,
    /// Watchdog fault injection: sleep this many wall-clock ms before the
    /// first epoch round, leaving every peer parked at its barrier.
    stall_inject_ms: Option<u64>,
    /// Cross-process telemetry pump (`None` outside the sockets backend):
    /// ships this node's registry row toward the coordinator as a
    /// `Metrics` envelope. Invoked from the engine thread only — so the
    /// envelope never interleaves with the frame/control stream — at the
    /// same points the registry is published. Rate limiting lives in the
    /// closure, not here; `true` bypasses it (the end-of-run sample must
    /// reach the coordinator so whole-run rates come out right).
    pub metrics_pump: Option<Box<dyn FnMut(bool) + Send>>,
    /// Thread start instant, set by the node thread itself; `wall_ns` is
    /// measured from it independently of the span accounting.
    pub t0: Instant,
}

impl SyncEngine {
    /// Boot one live node's engine — the one bootstrap of the threads and
    /// sockets backends: the lookahead tables, the instruments the
    /// configuration asks for (`metrics` and `flight` are the backend's
    /// shared registry and flight recorder), the guest `main` thread on
    /// worker 0 (§2) before the first round so the first published snapshot
    /// counts it, and the setup-phase trace (statics bootstrap, class
    /// shipping) stamped at t = 0 like the sim's. The profiler and metrics
    /// pump are backend-specific and armed by the caller.
    pub fn boot(
        live: LiveNode,
        config: &ClusterConfig,
        thread_main: MethodId,
        metrics: Option<Arc<MetricsRegistry>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> SyncEngine {
        let LiveNode { node, endpoint, setup_ps } = live;
        let n_nodes = endpoint.nodes();
        let me = endpoint.id;
        let mut eng = SyncEngine {
            next_uid: node.id as ThreadUid,
            node,
            endpoint,
            hz: Horizons::new(config),
            mode: config.mode,
            thread_main,
            n_nodes,
            lb: BalancerState::new(config.balancer),
            shipped_to: vec![0; n_nodes],
            self_inflight: 0,
            spawns_sent: 0,
            spawns_recv: 0,
            events: EventQueue::new(),
            setup_ps,
            errors: Vec::new(),
            fx: Vec::new(),
            drain_scratch: Vec::new(),
            windows: 0,
            barrier_waits: 0,
            recorder: config.trace.map(make_node_sink),
            profiler: None,
            metrics,
            flight,
            stall_inject_ms: config
                .metrics
                .as_ref()
                .and_then(|c| c.stall_inject)
                .filter(|&(node, _)| node == me)
                .map(|(_, ms)| ms),
            metrics_pump: None,
            t0: Instant::now(),
        };
        if me == CONSOLE_NODE {
            let uid = eng.alloc_uid();
            let main = eng.node.image().main_method;
            let frame = Frame::new(main, eng.node.image().method(main).max_locals, vec![], false);
            let mut fx = std::mem::take(&mut eng.fx);
            eng.node.add_thread(uid, frame, None, 0, &mut fx);
            eng.fx = fx;
            eng.apply_effects(0);
        }
        eng.drain_trace(0);
        eng
    }

    fn alloc_uid(&mut self) -> ThreadUid {
        let uid = self.next_uid;
        self.next_uid += self.n_nodes as ThreadUid;
        uid
    }

    /// Record one trace event at virtual time `t` (no-op when disabled).
    #[inline]
    fn record(&mut self, t: u64, ev: TraceEvent) {
        if let Some(r) = &mut self.recorder {
            r.record(Event { t, ev });
        }
    }

    /// Log one flight-recorder transition (no-op when disabled).
    #[inline]
    fn fly(&self, tag: FlightTag, a: u64, b: u64) {
        if let Some(f) = &self.flight {
            f.log(self.endpoint.id, tag, a, b);
        }
    }

    /// Publish this node's registry cells: one relaxed store per value, of
    /// counters the loop already maintains. Called once per round, on
    /// entry to the round barrier, and at the end of the run; with metrics
    /// off the whole thing is one untaken branch.
    fn publish_metrics(&self, horizon: u64, next: u64) {
        let Some(reg) = &self.metrics else {
            return;
        };
        let me = self.endpoint.id;
        self.node.publish_metrics(reg, &self.endpoint.stats);
        reg.set(me, Metric::Windows, self.windows);
        reg.set(me, Metric::BarrierWaits, self.barrier_waits);
        reg.set(me, Metric::HorizonPs, horizon);
        reg.set(me, Metric::NextEventPs, next);
        reg.set(me, Metric::FramesSent, self.endpoint.frame_stats.frames_sent);
    }

    /// Raise or clear the parked gauge and log the matching flight mark,
    /// around the round's blocking waits (barrier and slot wait).
    fn note_park(&self, parked: bool, a: u64, b: u64) {
        if let Some(reg) = &self.metrics {
            reg.set(self.endpoint.id, Metric::Parked, u64::from(parked));
        }
        self.fly(if parked { FlightTag::Park } else { FlightTag::Unpark }, a, b);
    }

    /// Ship the registry row cross-process (no-op when no pump is armed).
    #[inline]
    fn pump_metrics(&mut self, force: bool) {
        if let Some(f) = &mut self.metrics_pump {
            f(force);
        }
    }

    /// Stamp and flush this node's clock-free DSM trace buffer at `now`,
    /// then the endpoint's pre-stamped send events — the same order (and
    /// the same call sites, via `FlushTrace`) as the sim driver's
    /// `drain_trace_buffers`, so the per-node recorded sequence matches.
    pub fn drain_trace(&mut self, now: u64) {
        let Some(r) = &mut self.recorder else {
            return;
        };
        for ev in self.node.take_dsm_trace() {
            r.record(Event { t: now, ev });
        }
        if let Some(buf) = &mut self.endpoint.trace {
            for e in buf.drain(..) {
                r.record(e);
            }
        }
    }

    /// Execute a node's effect stream at processing step `step` (the
    /// virtual time of the event being processed).
    fn apply_effects(&mut self, step: u64) {
        let mut fx = std::mem::take(&mut self.fx);
        for f in fx.drain(..) {
            match f {
                Effect::Local { time, ev } => {
                    let lane = self.endpoint.id;
                    self.events.push((time, step, lane), NodeEv::Local(ev));
                }
                Effect::Send { at, dst, msg } => self.transmit(at, step, dst, msg),
                Effect::Spawn { now, thread_obj, priority } => {
                    self.dispatch_spawn(now, step, thread_obj, priority);
                }
                Effect::Trace { t, ev } => self.record(t, ev),
                Effect::FlushTrace { now } => self.drain_trace(now),
            }
        }
        self.fx = fx;
    }

    /// Encode, account and ship one protocol message at virtual `at`:
    /// remote messages into the destination's pending frame, self-sends
    /// straight back into the local queue.
    fn transmit(&mut self, at: u64, step: u64, dst: NodeId, msg: Msg) {
        if matches!(msg, Msg::SpawnThread { .. }) {
            self.spawns_sent += 1;
        }
        let kind = msg.kind();
        let (deliver, local) = self.endpoint.transmit(at, step, dst, kind, &mut |w| msg.encode_into(w));
        if let Some(wire) = local {
            // Loopback: delivered below any window horizon, so it never
            // crosses the mesh — it goes straight into our queue. The
            // bound is profile-derived (`LinkParams::loopback_ps`, clamped
            // to the base latency); strictly-future delivery keeps the
            // in-window processing order intact. Round-trip the codec
            // anyway: the wire sees what a peer would.
            debug_assert!(
                deliver >= at + self.endpoint.link().loopback_ps(),
                "loopback delivered before its profile bound"
            );
            self.endpoint.record_recv(wire.payload.len(), wire.kind);
            let msg = Msg::decode_from(&mut Reader::new(&wire.payload[..])).expect("loopback codec round-trip");
            self.endpoint.recycle(wire.payload);
            let lane = self.endpoint.id;
            self.events.push((deliver, step, lane), NodeEv::Deliver { src: lane, msg });
        }
    }

    /// Place a newly started thread (§2's load-balancing plug-in, with an
    /// origin-local load estimate: own load = live + own in-flight, remote
    /// load = spawns shipped there. Identical to the sim's global view as
    /// long as remote threads neither exit nor spawn before placement
    /// finishes — true for the fork-join apps; load gossip is the future
    /// refinement for long-lived remote threads).
    fn dispatch_spawn(&mut self, now: u64, step: u64, thread_obj: jsplit_mjvm::heap::ObjRef, priority: i32) {
        let me = self.endpoint.id;
        match self.mode {
            Mode::Baseline => {
                let uid = self.alloc_uid();
                let image = self.node.image().clone();
                let m = image.method(self.thread_main);
                let frame = Frame::new(self.thread_main, m.max_locals, vec![Value::Ref(thread_obj)], false);
                let mut fx = std::mem::take(&mut self.fx);
                self.node.add_thread(uid, frame, Some(thread_obj), now, &mut fx);
                self.fx = fx;
                self.apply_effects(step);
            }
            Mode::JavaSplit => {
                let loads: Vec<usize> = (0..self.n_nodes)
                    .map(|i| {
                        if i == me as usize {
                            self.node.live() + self.self_inflight as usize
                        } else {
                            self.shipped_to[i] as usize
                        }
                    })
                    .collect();
                let dst = self.lb.pick(&loads, me);
                self.shipped_to[dst as usize] += 1;
                if dst == me {
                    self.self_inflight += 1;
                }
                let msg = self.node.prepare_spawn(thread_obj, priority);
                if let Msg::SpawnThread { thread_gid, .. } = &msg {
                    self.record(now, jsplit_trace::TraceEvent::ThreadShip { from: me, to: dst, thread_gid: thread_gid.0 });
                }
                self.transmit(now, step, dst, msg);
            }
        }
    }

    /// Deliver one protocol message at virtual `time`.
    fn deliver(&mut self, time: u64, src: NodeId, msg: Msg) {
        match msg {
            Msg::Println { line, .. } => self.node.push_console(line),
            Msg::SpawnThread { thread_gid, class, state, priority } => {
                self.spawns_recv += 1;
                if src == self.endpoint.id {
                    self.self_inflight = self.self_inflight.saturating_sub(1);
                }
                let uid = self.alloc_uid();
                let mut fx = std::mem::take(&mut self.fx);
                self.node
                    .install_spawned_thread(uid, thread_gid, class, &state, priority, self.thread_main, time, &mut fx);
                self.fx = fx;
                self.apply_effects(time);
            }
            other => {
                let mut fx = std::mem::take(&mut self.fx);
                self.node.handle_dsm(time, other, &mut fx);
                self.fx = fx;
                self.apply_effects(time);
            }
        }
    }

    /// Pop-side of the event loop: execute one scheduled event at `time`.
    fn process_one(&mut self, time: u64, ev: NodeEv) {
        match ev {
            NodeEv::Local(LocalEv::Slice { cpu, thread }) => {
                let mut fx = std::mem::take(&mut self.fx);
                let r = self.node.run_slice(time, cpu, thread, &mut fx);
                self.fx = fx;
                if let Some(e) = r.error {
                    self.errors.push((thread, e));
                }
                self.apply_effects(time);
            }
            NodeEv::Local(LocalEv::Wake { thread }) => {
                let mut fx = std::mem::take(&mut self.fx);
                self.node.make_ready(thread, time, &mut fx);
                self.fx = fx;
                self.apply_effects(time);
            }
            NodeEv::Deliver { src, msg } => self.deliver(time, src, msg),
        }
    }

    /// The one sync loop: rounds of flush → barrier → drain → publish →
    /// wait → identical decision → process-window, until the cluster-wide
    /// decision says stop. Backend-independent: every synchronization
    /// primitive goes through `peers`.
    pub fn run_epoch(mut self, peers: &mut dyn EpochPeers) -> NodeOutcome {
        let me = self.endpoint.id as usize;
        let n = self.n_nodes;
        let mut deadlocked = false;
        let mut aborted = false;
        let mut round: u64 = 0;
        let mut horizon: u64 = 0;
        let mut slots = vec![EpochSlot::default(); n];
        let mut nexts: Vec<u64> = Vec::with_capacity(n);
        // Watchdog fault injection: sleep before entering round 1, so every
        // peer parks at the round-1 barrier on us. Wall-clock only;
        // virtual-time results are unchanged.
        if let Some(ms) = self.stall_inject_ms.take() {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        loop {
            round += 1;
            // Span accounting (when on) is boundary-chained: each `mark`
            // closes the segment since the previous boundary, so the seven
            // categories tile this thread's wall time with no gaps. The
            // mark here attributes everything since the last horizon
            // decision — window processing, plus bootstrap on round 1 — to
            // Execute.
            if let Some(p) = &mut self.profiler {
                p.mark(SpanKind::Execute);
            }
            // Everything this node sent in the previous window (and during
            // bootstrap) ships now; the barrier then guarantees every
            // peer's sends are in our channel before we drain. Draining
            // *after* the barrier is load-bearing: a message missed here
            // could fall inside a later (wider) horizon.
            self.endpoint.flush();
            if let Some(p) = &mut self.profiler {
                p.mark(SpanKind::FrameFlush);
            }
            // Entering round `round`: the registry row (barrier count =
            // round) goes out before we park, so the watchdog can tell a
            // peer that never reached the round from one waiting in it.
            self.barrier_waits += 1;
            let next = self.queue_head();
            self.publish_metrics(horizon, next);
            self.pump_metrics(false);
            self.note_park(true, horizon, next);
            peers.barrier();
            self.note_park(false, horizon, next);
            if let Some(p) = &mut self.profiler {
                p.mark(SpanKind::BarrierWait);
            }
            self.drain_inbox();
            if let Some(p) = &mut self.profiler {
                p.mark(SpanKind::InboxDrain);
            }
            // Publish this round's aggregates (in the threads backend:
            // plain field stores, then the epoch release-store that makes
            // them readable; on the wire: an explicit Slot record).
            let next = self.queue_head();
            let slot = EpochSlot {
                next_event: next,
                live: self.node.live() as u64,
                spawns_sent: self.spawns_sent,
                spawns_recv: self.spawns_recv,
                ops: self.node.ops,
            };
            peers.publish(me as NodeId, round, &slot);
            self.fly(FlightTag::EpochPublish, round, next);
            if let Some(p) = &mut self.profiler {
                p.mark(SpanKind::Decide);
            }
            // Wait until every peer has published this round; each node
            // then derives the same global decision from the same values.
            // Attribution splits at the first park: time up to it is
            // SlotSpin, the remainder CondvarWait.
            let mut profiler = self.profiler.take();
            let parked = peers.wait(round, &mut || {
                if let Some(p) = &mut profiler {
                    p.mark(SpanKind::SlotSpin);
                }
                // The parked gauge + flight mark ride the same hook: it
                // runs once, right before the blocking path parks us.
                self.note_park(true, horizon, next);
            });
            self.profiler = profiler;
            if parked {
                self.note_park(false, horizon, next);
            }
            if let Some(p) = &mut self.profiler {
                p.mark(if parked { SpanKind::CondvarWait } else { SpanKind::SlotSpin });
            }
            peers.read(round, &mut slots);
            let mut live = 0u64;
            let mut sent = 0u64;
            let mut recv = 0u64;
            let mut ops = 0u64;
            let mut min_next = u64::MAX;
            for s in &slots {
                live += s.live;
                sent += s.spawns_sent;
                recv += s.spawns_recv;
                ops += s.ops;
                min_next = min_next.min(s.next_event);
            }
            // Spawned-but-undelivered threads count as live: a main that
            // exits immediately after `start()` must not end the run.
            if live == 0 && sent == recv {
                break;
            }
            if ops > self.hz.max_ops {
                aborted = true;
                break;
            }
            if min_next == u64::MAX {
                // Live threads, no scheduled events anywhere, empty
                // channels (anything sent last round was flushed before
                // the barrier and just drained): nothing can ever run
                // again.
                deadlocked = true;
                break;
            }
            self.windows += 1;
            // The safe horizon: no message can be delivered to this node
            // below it (module docs give the argument).
            nexts.clear();
            nexts.extend(slots.iter().map(|s| s.next_event));
            horizon = self.hz.horizon(me, &nexts);
            if let Some(p) = &mut self.profiler {
                p.mark(SpanKind::Decide);
                if horizon != u64::MAX && min_next != u64::MAX {
                    p.window_ps.record(horizon - min_next);
                }
            }
            while self.queue_head() < horizon {
                let ((time, ..), ev) = self.events.pop().expect("queue head");
                self.process_one(time, ev);
            }
        }
        self.fly(FlightTag::Decide, if deadlocked { 2 } else if aborted { 3 } else { 1 }, round);
        self.finish_outcome(deadlocked, aborted)
    }

    /// Close the final profiling segment (the decision that broke the
    /// loop), reconcile against the independently measured thread wall
    /// time, and package the outcome.
    fn finish_outcome(mut self, deadlocked: bool, aborted: bool) -> NodeOutcome {
        // Final publish so the sampler's closing sample carries end-of-run
        // counters and whole-run mean rates come out right (the horizon
        // gauge goes to ∞: the run is over, nothing lags anything). Forced
        // past the pump's rate limit.
        self.publish_metrics(u64::MAX, self.queue_head());
        self.pump_metrics(true);
        let profile = self.profiler.take().map(|mut rec| {
            rec.mark(SpanKind::Decide);
            let wall_ns = u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut p = rec.finish(self.endpoint.id, wall_ns);
            if let Some(h) = self.endpoint.frame_hist.take() {
                p.frame_bytes = h;
            }
            p
        });
        let trace = self.recorder.take().map(|sink| TraceTail {
            sink,
            dsm: self.node.take_dsm_trace(),
            net: self.endpoint.trace.take().unwrap_or_default(),
        });
        let report = NodeReport {
            errors: self.errors,
            deadlocked,
            aborted,
            slab_high_water: self.events.high_water(),
            windows: self.windows,
            barrier_waits: self.barrier_waits,
            setup_ps: self.setup_ps,
            frames: self.endpoint.frame_stats,
            ..self.node.report(self.endpoint.stats.clone())
        };
        NodeOutcome { report, trace, profile }
    }

    /// Earliest queued event (`u64::MAX` if idle) — the node's published
    /// `next`.
    fn queue_head(&self) -> u64 {
        self.events.peek().map_or(u64::MAX, |(t, ..)| t)
    }

    /// Drain inbound frames into the local queue, deterministically:
    /// arrival interleaving across senders is scheduler noise, so sort by
    /// the virtual-time key before assigning local sequence numbers.
    /// Records decode in place from the frame buffers (which return to
    /// their senders' pools).
    fn drain_inbox(&mut self) {
        let mut batch = std::mem::take(&mut self.drain_scratch);
        self.endpoint.drain_frames(&mut |src, _kind, deliver_ps, step_ps, seq, payload| {
            let msg = Msg::decode_from(&mut Reader::new(payload)).expect("wire codec round-trip");
            batch.push((deliver_ps, step_ps, src, seq, msg));
        });
        batch.sort_unstable_by_key(|&(deliver, step, src, seq, _)| (deliver, step, src, seq));
        for (deliver, step, src, _, msg) in batch.drain(..) {
            self.events.push((deliver, step, src), NodeEv::Deliver { src, msg });
        }
        self.drain_scratch = batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const IDLE: u64 = u64::MAX;

    #[test]
    fn idle_peers_never_bind() {
        let hz = Horizons { base_ps: vec![10, 20, 30], max_ops: u64::MAX };
        // Peer 2 binds through its direct term (50 + 30); idle peer 1's
        // `∞ + 20` saturates and drops out of the minimum.
        assert_eq!(hz.horizon(0, &[100, IDLE, 50]), 80);
        assert_eq!(hz.horizon(0, &[100, IDLE, 50]), hz.horizon(0, &[100, 1_000_000, 50]));
    }

    #[test]
    fn self_echo_binds_when_every_peer_is_idle() {
        let hz = Horizons { base_ps: vec![10, 20, 30], max_ops: u64::MAX };
        // Our own send (≥ 100) reaches a peer after 10 and returns after
        // at least the cheapest peer base, 20.
        assert_eq!(hz.horizon(0, &[100, IDLE, IDLE]), 130);
        assert_eq!(hz.horizon(2, &[IDLE, IDLE, 100]), 140);
        assert_eq!(hz.horizon(0, &[IDLE, IDLE, IDLE]), IDLE);
    }

    #[test]
    fn single_node_window_is_unbounded() {
        let hz = Horizons { base_ps: vec![10], max_ops: u64::MAX };
        assert_eq!(hz.horizon(0, &[0]), IDLE);
        assert_eq!(hz.horizon(0, &[12_345]), IDLE);
    }

    proptest! {
        /// The dominance argument: every term adds some `base_i ≥
        /// min(base)` to some `next_i ≥ min(next)`, so no node's horizon
        /// falls below the single cluster-wide window `min(next) +
        /// min(base)`.
        #[test]
        fn horizon_dominates_the_global_window(
            nodes in proptest::collection::vec((1u64..1_000_000, any::<bool>(), 0u64..1_000_000_000), 1..10),
            pick in any::<u16>(),
        ) {
            let base: Vec<u64> = nodes.iter().map(|&(b, _, _)| b).collect();
            let nexts: Vec<u64> = nodes.iter().map(|&(_, idle, t)| if idle { IDLE } else { t }).collect();
            let me = pick as usize % nodes.len();
            let global = nexts.iter().min().unwrap().saturating_add(*base.iter().min().unwrap());
            let hz = Horizons { base_ps: base, max_ops: u64::MAX };
            prop_assert!(hz.horizon(me, &nexts) >= global);
        }
    }
}
