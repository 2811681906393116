//! # c3 — CXL Coherence Controllers for Heterogeneous Architectures
//!
//! The primary contribution of the paper (*C³*, HPCA 2026): a generic
//! coherence controller bridging arbitrary host cache-coherence protocols
//! with CXL.mem 3.0 multi-host coherent memory, built from two design
//! rules — **Flow Delegation** and **Atomicity** — derived from compound
//! memory models.
//!
//! * [`generator`] — the synthesis pipeline: stable-state protocol specs
//!   in, compound FSM + translation tables (Table II) out;
//! * [`bridge`] — the runtime controller interpreting the generated
//!   tables: local directory + CXL cache + conflict handshake;
//! * [`system`] — a builder assembling full heterogeneous two-cluster
//!   systems (Fig. 1 / Table III).
//!
//! # Examples
//!
//! ```
//! use c3::generator::bridge_fsm;
//! use c3_protocol::states::ProtocolFamily;
//!
//! let fsm = bridge_fsm(ProtocolFamily::Moesi);
//! println!("{}", fsm.dump_table());
//! assert!(!fsm.states.is_empty());
//! ```

#![warn(missing_docs)]

pub mod bridge;
pub mod generator;
pub mod system;

pub use bridge::{BridgeConfig, C3Bridge, GlobalSide};
pub use c3_sim::fault::ResilienceConfig;
pub use generator::{baseline_fsm, bridge_fsm, CompoundFsm, Generator};
pub use system::{ClusterSpec, GlobalProtocol, SystemBuilder, SystemHandles};
