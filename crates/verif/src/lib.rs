//! # c3-verif — formal verification of the C³ design
//!
//! The reproduction of §VI-A "Formal Verification": explicit-state model
//! checking in the style of the paper's Murphi methodology.
//!
//! * [`fsm_checks`] — static closure/completeness/forbidden-state checks
//!   on the FSMs produced by `c3::generator`.
//! * [`static_checks`] — table-driven static analysis of the concrete
//!   controllers' declarative transition tables: completeness,
//!   reachability, forbidden states, Rule-II discipline and
//!   cross-controller static deadlock detection (the `protocheck` CLI in
//!   `c3-bench` drives it).
//! * [`resilient`] — the exhaustive checker of the abstract C³ system:
//!   clusters (optionally with private L1s, for Rule-II nesting) behind
//!   a blocking DCOH, lossy/duplicating links as nondeterministic fault
//!   transitions, retry/replay/poison steps explicit, checking SWMR,
//!   inclusion, staleness, divergence, poison stickiness and deadlock
//!   freedom. Explored with canonical-form symmetry reduction
//!   ([`symmetry`]) over a hashed visited set ([`frontier`]) so
//!   3-host × 2-address configs are exhaustible in CI. Each design rule
//!   can be dropped by an [`Injection`] to show the checker finds the
//!   Fig. 4 and Fig. 2 races.

#![deny(missing_docs)]

pub mod frontier;
pub mod fsm_checks;
pub mod resilient;
pub mod static_checks;
pub mod symmetry;

pub use fsm_checks::{check_fsm, FsmDefect};
pub use resilient::{
    check_resilient, ConfigError, Counterexample, Injection, RViolation, ResilientConfig,
    ResilientResult,
};
pub use static_checks::{
    check_all, check_message_graph, check_model_conformance, check_quiescence, check_table,
    StaticDefect,
};
pub use symmetry::{CanonStats, Symmetric, SymmetryGroup};
