//! The driver layer: what owns time and message delivery.
//!
//! A driver takes the prepared program, builds one [`NodeRuntime`] per
//! worker, and executes the [`Effect`](crate::node::Effect) streams the
//! nodes emit. Three drivers exist, each with an inherent `new`/`run` pair
//! that [`run_cluster`](crate::exec::run_cluster) dispatches on:
//!
//! * [`Cluster`](crate::exec::Cluster) — the discrete-event virtual-time
//!   simulator over [`jsplit_net::Network`]: one global event queue, fully
//!   deterministic, the *reference semantics* of the reproduction.
//! * [`ThreadsDriver`](crate::threads::ThreadsDriver) — each node on its
//!   own OS thread over [`ChannelEndpoint`]s, encoded bytes crossing the
//!   channels, virtual time advanced in epoch rounds.
//! * [`SocketsDriver`](crate::sockets::SocketsDriver) — each node in its
//!   own OS process over localhost TCP, the same epoch rounds; its `run`
//!   returns a `Result` because a worker can fail.
//!
//! The drivers differ only in how events are ordered and bytes move. What
//! surrounds that is shared: this module holds the preparation (program
//! rewrite and image load, the live backends' configuration checks, the
//! `C_static` singleton bootstrap of §4.2) and [`live_node`], the one
//! construction of a live node; [`SyncEngine::boot`](crate::engine) starts
//! a live node's engine the same way on threads and sockets; and every
//! driver ends its run in [`RunReport::fold`](crate::report::RunReport).

use crate::config::{ClusterConfig, Mode, NodeSpec};
use crate::env::CONSOLE_NODE;
use crate::node::NodeRuntime;
use jsplit_mjvm::class::{Program, Sig};
use jsplit_mjvm::heap::Gid;
use jsplit_mjvm::loader::{ClassId, Image, LoadError, MethodId};
use jsplit_mjvm::{stdlib, Value};
use jsplit_net::{ChannelEndpoint, LinkParams, MsgKind, NodeId};
use jsplit_rewriter::{RewriteError, RewriteStats};
use std::sync::Arc;

/// Errors preparing a cluster run.
#[derive(Debug)]
pub enum ClusterError {
    Rewrite(RewriteError),
    Load(LoadError),
    Config(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            ClusterError::Load(e) => write!(f, "load failed: {e}"),
            ClusterError::Config(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Reject the configuration surface only the sim driver honours, for a
/// live backend named `backend`: mid-run joins, and the opstats profiler
/// (whose per-node counters have no berth in the live drivers' reports).
pub fn check_live(config: &ClusterConfig, backend: &str) -> Result<(), ClusterError> {
    if !config.joins.is_empty() {
        return Err(ClusterError::Config(format!(
            "the {backend} backend does not support mid-run joins; use the sim backend"
        )));
    }
    if config.opstats {
        return Err(ClusterError::Config(format!(
            "the {backend} backend does not support opstats counting; use the sim backend"
        )));
    }
    Ok(())
}

/// Everything both drivers derive from the program before any node exists.
pub struct Prepared {
    pub image: Arc<Image>,
    pub rewrite: Option<RewriteStats>,
    /// Serialized size of the rewritten program (class distribution cost).
    pub class_bytes: usize,
    pub thread_class: ClassId,
    pub thread_main: MethodId,
}

/// Rewrite (JavaSplit mode), load, resolve the runtime entry points.
pub fn prepare(config: &ClusterConfig, program: &Program) -> Result<Prepared, ClusterError> {
    if config.nodes.is_empty() {
        return Err(ClusterError::Config("at least one node required".into()));
    }
    if config.mode == Mode::Baseline && config.nodes.len() != 1 {
        return Err(ClusterError::Config("baseline mode runs on exactly one node".into()));
    }
    let (image, rewrite, class_bytes) = match config.mode {
        Mode::Baseline => {
            let image = Image::load(program).map_err(ClusterError::Load)?;
            (image, None, 0usize)
        }
        Mode::JavaSplit => {
            let rw = jsplit_rewriter::rewrite_program(program).map_err(ClusterError::Rewrite)?;
            let image = Image::load(&rw.program).map_err(ClusterError::Load)?;
            // §2: "the resulting rewritten classes are sent to one of
            // the worker nodes" — class distribution is real traffic. Size
            // it by streaming the encoding in wire-frame-sized chunks: the
            // serialized program never materializes as one giant buffer.
            let bytes = jsplit_mjvm::classfile_io::encode_program_chunked(
                &rw.program,
                jsplit_net::FRAME_CHUNK,
                &mut |_| {},
            );
            (image, Some(rw.stats), bytes)
        }
    };
    let image = Arc::new(image);
    let thread_class = image.class_id_any(stdlib::THREAD).expect("Thread class");
    let thread_main = image
        .resolve_method(
            image.class_id_any(stdlib::JSRUNTIME).expect("JSRuntime"),
            &Sig::new("threadMain", &[jsplit_mjvm::Ty::Ref], None),
        )
        .expect("threadMain");
    Ok(Prepared { image, rewrite, class_bytes, thread_class, thread_main })
}

/// A node's link parameters, from its JVM-brand cost model (Table 3: the
/// socket-stack overhead differs by brand).
pub fn link_params(spec: NodeSpec) -> LinkParams {
    let m = spec.profile.cost_model();
    LinkParams { base_ns: m.net_base_ns, per_byte_ns: m.net_per_byte_ns }
}

/// Account the class broadcast on one live endpoint (§2: class
/// distribution is real traffic on the same links, counted in the
/// statistics): the console node plans a send to every other node at t = 0,
/// and each receiver records its own receive. Returns the setup time — the
/// latest arrival — on the console node, 0 elsewhere.
fn ship_classes(endpoint: &mut ChannelEndpoint, class_bytes: usize) -> u64 {
    (1..endpoint.nodes())
        .map(|dst| endpoint.setup_send(0, CONSOLE_NODE, dst as NodeId, class_bytes, MsgKind::Control))
        .max()
        .unwrap_or(0)
}

/// A live node ready for its engine: the runtime, its endpoint with the
/// class broadcast accounted, and its setup time.
pub(crate) struct LiveNode {
    pub node: NodeRuntime,
    pub endpoint: ChannelEndpoint,
    pub setup_ps: u64,
}

/// Build one live node (threads and sockets alike) around its endpoint:
/// the runtime, the endpoint's trace and frame-size buffers armed before
/// any setup traffic so it is captured, class shipping, and the statics
/// bootstrap.
pub(crate) fn live_node(config: &ClusterConfig, prepared: &Prepared, mut endpoint: ChannelEndpoint) -> LiveNode {
    let id = endpoint.id;
    let mut node =
        NodeRuntime::new(id, config.nodes[id as usize], config, prepared.image.clone(), prepared.thread_class);
    if config.trace.is_some() {
        endpoint.trace = Some(Vec::new());
    }
    if config.profile || config.trace.is_some() {
        endpoint.frame_hist = Some(jsplit_trace::LogHist::new());
    }
    let mut setup_ps = 0;
    if config.mode == Mode::JavaSplit {
        setup_ps = ship_classes(&mut endpoint, prepared.class_bytes);
        bootstrap_statics(&mut node, &prepared.image);
    }
    LiveNode { node, endpoint, setup_ps }
}

/// One `C_static` singleton: (class, static slot, gid, companion class).
type SingletonSpec = (ClassId, u16, Gid, ClassId);

/// The `C_static` singleton set, from the image alone: the console node
/// shares the masters first thing, in [`Image::statics_holders`] order, and
/// its DSM mints gid counters from 1 — so every node (a sockets worker, a
/// mid-run joiner) knows the gids without asking node 0.
fn singleton_specs(image: &Image) -> Vec<SingletonSpec> {
    image
        .statics_holders()
        .enumerate()
        .map(|(k, (class, slot, comp))| (class, slot, Gid::new(CONSOLE_NODE, k as u64 + 1), comp))
        .collect()
}

/// Set up the `C_static` singletons on one node (§4.2): the console node
/// creates and shares the masters, every other node caches a placeholder
/// copy of each and points its holder slot at it.
pub(crate) fn bootstrap_statics(w: &mut NodeRuntime, image: &Arc<Image>) {
    for (class, slot, gid, comp) in singleton_specs(image) {
        let local = if w.id == CONSOLE_NODE {
            let zeros = image.class(comp).zeroed_fields();
            let master = w.heap.alloc_object(comp, zeros.len(), zeros);
            let shared = w.env.js().dsm.share_object(&mut w.heap, master);
            debug_assert_eq!(shared, gid, "statics master minted an unexpected gid");
            master
        } else {
            w.env.js().dsm.ensure_cached(&mut w.heap, image, gid, comp)
        };
        w.heap.set_static(class, slot, Value::Ref(local));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_apps::{raytracer, series, tsp};
    use jsplit_mjvm::cost::JvmProfile;

    /// The precomputed singleton set is exactly what the console node's
    /// bootstrap shares, and every other node's holder slots point at
    /// cached copies of those gids. (Only the raytracer declares statics —
    /// one class, so one singleton; for the other two both sides are
    /// empty.)
    #[test]
    fn singleton_specs_match_bootstrapped_gids() {
        let apps = [
            ("tsp", tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })),
            ("series", series::program(series::SeriesParams { n: 16, intervals: 40, threads: 8 })),
            ("raytracer", raytracer::program(raytracer::RayParams { size: 16, grid: 2, threads: 8 })),
        ];
        let mut shared = 0;
        for (app, program) in &apps {
            let config = ClusterConfig::javasplit(JvmProfile::SunSim, 2);
            let prepared = prepare(&config, program).expect("prepare");
            let specs = singleton_specs(&prepared.image);
            shared += specs.len();
            for id in 0..2 {
                let mut node =
                    NodeRuntime::new(id, config.nodes[0], &config, prepared.image.clone(), prepared.thread_class);
                bootstrap_statics(&mut node, &prepared.image);
                let assigned: Vec<SingletonSpec> = prepared
                    .image
                    .statics_holders()
                    .map(|(class, slot, comp)| {
                        let Value::Ref(obj) = node.heap.get_static(class, slot) else {
                            panic!("{app}: node {id} holder slot is not a reference");
                        };
                        (class, slot, node.heap.get(obj).dsm.gid.expect("shared singleton"), comp)
                    })
                    .collect();
                assert_eq!(assigned, specs, "{app}: node {id}");
            }
        }
        assert!(shared > 0, "the raytracer's statics class must be covered");
    }
}
