//! # c3-memsys — host memory system components
//!
//! The cluster-level memory system of the C³ reproduction (*C³: CXL
//! Coherence Controllers for Heterogeneous Architectures*, HPCA 2026):
//!
//! * [`cache`] — set-associative LRU cache arrays (L1s, C³'s CXL cache);
//! * [`l1`] — private cache controllers with explicit transient states,
//!   configurable as MESI / MESIF / MOESI / RCC;
//! * [`direngine`] — the host-domain directory engine: the "local directory
//!   controller" half of C³ (Fig. 5), with the Rule-I backend-delegation
//!   and Rule-II recall/nesting hooks;
//! * [`global_dir`] — the baseline hierarchical MESI top-level directory;
//! * [`seqcore`] — a sequentially consistent reference core for tests.

#![warn(missing_docs)]

pub mod cache;
pub mod direngine;
pub mod global_dir;
pub mod l1;
pub mod seqcore;

pub use cache::CacheArray;
pub use direngine::{BackendPerms, DirEffect, DirEngine, Holders, HostClass, RecallKind};
pub use global_dir::GlobalMesiDir;
pub use l1::{AccessKind, L1Config, L1Controller};
pub use seqcore::SeqCore;
