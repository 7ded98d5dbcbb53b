//! # jsplit-rewriter — the JavaSplit bytecode rewriter
//!
//! The in-Rust counterpart of the paper's BCEL-based instrumentation engine
//! (paper §4). [`pipeline::rewrite_program`] takes an *original* MJVM program
//! and produces the distributed application of Figure 1: every class is
//! individually transformed and placed into a parallel `javasplit.*`
//! hierarchy, with
//!
//! 1. thread-creation sites substituted by a handler that ships the new
//!    thread to a node chosen by the load-balancing function
//!    ([`threads`]);
//! 2. synchronization operations (`monitorenter`/`monitorexit` and
//!    `synchronized` methods) substituted by the DSM synchronization
//!    handlers ([`sync`]);
//! 3. access checks inserted before every object-field, static-field and
//!    array-element access (Figure 3), with volatile accesses additionally
//!    bracketed by acquire/release ([`checks`]);
//! 4. static fields hoisted into per-class `C_static` companion objects
//!    managed by the ordinary coherency machinery ([`statics`]);
//! 5. per-class serialization/deserialization/diff descriptors generated
//!    from the field layout — the `DSM_serialize`/`DSM_deserialize`/
//!    `DSM_diff` utility methods of Figure 2 ([`serial`]);
//! 6. every class renamed into the `javasplit` package with all references
//!    updated ([`rename`]).
//!
//! Deviations from the paper, both consequences of the MJVM substrate and
//! recorded in DESIGN.md: arrays natively carry a DSM header here, so the
//! wrapper classes of §4.3 are unnecessary (array accesses are checked
//! directly); and the injected `__javasplit__*` fields exist as a native
//! header on every heap object rather than as synthesized fields.

pub mod checks;
pub mod pipeline;
pub mod rename;
pub mod serial;
pub mod splice;
pub mod statics;
pub mod sync;
pub mod threads;

pub use pipeline::{rewrite_program, RewriteError, RewriteStats, Rewritten};
pub use serial::{ClassSerializer, SerializerRegistry};

/// Package prefix for rewritten classes (paper §4: `javasplit.mypackage.MyClass`).
pub const JS_PREFIX: &str = "javasplit.";

pub use jsplit_mjvm::stdlib::{STATICS_HOLDER, STATIC_SUFFIX};
