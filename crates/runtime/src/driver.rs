//! The driver layer: what owns time and message delivery.
//!
//! A driver takes the prepared program, builds one [`NodeRuntime`] per
//! worker, and executes the [`Effect`](crate::node::Effect) streams the
//! nodes emit against a [`Transport`]. Three drivers exist, each with an
//! inherent `new`/`run` pair that [`run_cluster`](crate::exec::run_cluster)
//! dispatches on:
//!
//! * [`Cluster`](crate::exec::Cluster) — the discrete-event virtual-time
//!   simulator over [`jsplit_net::Network`]: one global event queue, fully
//!   deterministic, the *reference semantics* of the reproduction.
//! * [`ThreadsDriver`](crate::threads::ThreadsDriver) — each node on its
//!   own OS thread over [`jsplit_net::ChannelEndpoint`]s, encoded bytes
//!   crossing the channels, virtual time advanced in epoch rounds.
//! * [`SocketsDriver`](crate::sockets::SocketsDriver) — each node in its
//!   own OS process over localhost TCP, the same epoch rounds; its `run`
//!   returns a `Result` because a worker can fail.
//!
//! This module holds the preparation steps all three share: program
//! rewrite and image load, the configuration checks of the two live
//! backends, the class-file broadcast (the one helper behind every
//! bootstrap path), and the `C_static` singleton bootstrap of §4.2.

use crate::config::{ClusterConfig, Mode, NodeSpec};
use crate::env::CONSOLE_NODE;
use crate::node::NodeRuntime;
use jsplit_mjvm::class::{Program, Sig};
use jsplit_mjvm::heap::Gid;
use jsplit_mjvm::loader::{ClassId, Image, LoadError, MethodId};
use jsplit_mjvm::{stdlib, Value};
use jsplit_net::{LinkParams, MsgKind, NodeId, Transport};
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

/// Ship the rewritten class files from the console node to `dst` at `now`
/// (§2: class distribution is real traffic on the same links, counted in
/// the statistics). Returns the virtual arrival time. Every bootstrap path
/// — initial pool, mid-run joiner, threads backend — goes through here.
pub fn ship_classes(net: &mut dyn Transport, now: u64, dst: NodeId, class_bytes: usize) -> u64 {
    net.send(now, CONSOLE_NODE, dst, class_bytes, MsgKind::Control)
}

/// One `C_static` singleton: (class, static slot, gid, companion class).
pub type SingletonSpec = (ClassId, u16, Gid, ClassId);

/// Create the shared `C_static` singletons on node 0 and fill every node's
/// constant holder slot with a (placeholder) local copy (§4.2).
pub fn bootstrap_statics(nodes: &mut [NodeRuntime], image: &Arc<Image>) {
    let mut singletons: Vec<SingletonSpec> = Vec::new();
    for (class, slot, comp) in image.statics_holders() {
        // Master on worker 0.
        let w0 = &mut nodes[0];
        let zeros = image.class(comp).zeroed_fields();
        let master = w0.heap.alloc_object(comp, zeros.len(), zeros);
        let gid = w0.env.js().dsm.share_object(&mut w0.heap, master);
        w0.heap.set_static(class, slot, Value::Ref(master));
        singletons.push((class, slot, gid, comp));
    }
    for w in nodes.iter_mut().skip(1) {
        install_singletons(w, image, &singletons);
    }
}

/// Read the already-bootstrapped singleton set back off node 0's heap (a
/// mid-run joiner needs the same installs the initial pool got).
pub fn singleton_specs(node0: &mut NodeRuntime, image: &Arc<Image>) -> Vec<SingletonSpec> {
    image
        .statics_holders()
        .filter_map(|(class, slot, comp)| {
            let Value::Ref(master) = node0.heap.get_static(class, slot) else {
                return None;
            };
            Some((class, slot, node0.heap.get(master).dsm.gid?, comp))
        })
        .collect()
}

/// Cache the singleton set on one node and point its holder slots at the
/// local copies.
pub fn install_singletons(w: &mut NodeRuntime, image: &Arc<Image>, singletons: &[SingletonSpec]) {
    for (class, slot, gid, comp) in singletons {
        let local = w.env.js().dsm.ensure_cached(&mut w.heap, image, *gid, *comp);
        w.heap.set_static(*class, *slot, Value::Ref(local));
    }
}
