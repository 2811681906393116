//! The executable message vocabulary of the simulated system.
//!
//! Three message families flow through the fabric:
//!
//! * [`CoreReq`]/[`CoreResp`] — a core and its private cache;
//! * [`HostMsg`] — intra-cluster directory coherence (MESI/MESIF/MOESI/RCC
//!   native flows);
//! * [`CxlMsg`] — the CXL.mem 3.0 messages of Table I plus the
//!   BIConflict handshake of Fig. 2.
//!
//! [`SysMsg`] is the union delivered by the kernel.

use c3_sim::component::{ComponentId, Message};

use crate::ops::{Addr, Instr};
use crate::states::StableState;

/// Approximate wire size of a message carrying a 64 B cache line.
pub const DATA_MSG_BYTES: u32 = 80;
/// Approximate wire size of a control (dataless) message.
pub const CTRL_MSG_BYTES: u32 = 16;

/// Request from a core to its private cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreReq {
    /// Core-chosen tag echoed in the response.
    pub tag: u64,
    /// The memory instruction (Load/Store/Rmw) — or a `Fence` that the
    /// cache must participate in (RCC acquire/release flushes).
    pub instr: Instr,
}

/// Response from a private cache to its core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreResp {
    /// Tag from the matching [`CoreReq`].
    pub tag: u64,
    /// Loaded value (old value for RMWs, 0 for stores/fences).
    pub value: u64,
}

/// The state a host-domain data grant confers on the requestor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Grant {
    /// Shared, read-only.
    S,
    /// Exclusive clean (may silently upgrade).
    E,
    /// Modified (write permission).
    M,
    /// Forward (MESIF: clean + designated responder).
    F,
}

impl Grant {
    /// The stable state the requester enters.
    pub fn state(self) -> StableState {
        match self {
            Grant::S => StableState::S,
            Grant::E => StableState::E,
            Grant::M => StableState::M,
            Grant::F => StableState::F,
        }
    }
}

/// Intra-cluster (host-domain) coherence messages — the native flows of the
/// MESI-family directory protocols plus RCC's write-through traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostMsg {
    // ---- cache -> directory requests ----
    /// Read request (load miss).
    GetS {
        /// Requested line.
        addr: Addr,
    },
    /// Write/ownership request (store miss or upgrade).
    GetM {
        /// Requested line.
        addr: Addr,
    },
    /// Clean shared eviction notice.
    PutS {
        /// Evicted line.
        addr: Addr,
    },
    /// Clean exclusive eviction notice.
    PutE {
        /// Evicted line.
        addr: Addr,
    },
    /// Dirty eviction with data.
    PutM {
        /// Evicted line.
        addr: Addr,
        /// Line contents.
        data: u64,
        /// Contents are known-corrupt; the mark must travel with the data.
        poisoned: bool,
    },
    /// Owned-state eviction with data (MOESI).
    PutO {
        /// Evicted line.
        addr: Addr,
        /// Line contents.
        data: u64,
        /// Contents are known-corrupt; the mark must travel with the data.
        poisoned: bool,
    },
    /// RCC release-time write-through of a dirty line.
    WriteThrough {
        /// Written line.
        addr: Addr,
        /// Line contents.
        data: u64,
    },
    /// Remote atomic fetch-and-add, executed at the directory/C³ (RCC
    /// clusters perform atomics at the shared level, GPU-style).
    AtomicRmw {
        /// Line updated.
        addr: Addr,
        /// Addend.
        add: u64,
    },

    // ---- directory -> cache forwards ----
    /// Forward a read: supply data to `requestor`, downgrade per protocol.
    FwdGetS {
        /// Line concerned.
        addr: Addr,
        /// Component the data must be sent to (a cache, or the directory
        /// itself for recalls).
        requestor: ComponentId,
        /// State the supplied data confers on the requestor (policy-chosen
        /// by the directory: S, or F under MESIF).
        grant: Grant,
    },
    /// Forward a write: supply data to `requestor`, invalidate.
    FwdGetM {
        /// Line concerned.
        addr: Addr,
        /// Component the data must be sent to.
        requestor: ComponentId,
        /// Invalidation acks the new owner must collect (sharers being
        /// invalidated in parallel).
        acks: u32,
    },
    /// Invalidate a shared copy; ack to `requestor`.
    Inv {
        /// Line concerned.
        addr: Addr,
        /// Component the ack must be sent to.
        requestor: ComponentId,
    },
    /// Ack for Put* eviction notices.
    PutAck {
        /// Line concerned.
        addr: Addr,
    },
    /// Ack for RCC write-throughs.
    WtAck {
        /// Line concerned.
        addr: Addr,
    },
    /// Result of a remote [`HostMsg::AtomicRmw`].
    AtomicResp {
        /// Line updated.
        addr: Addr,
        /// Value before the update.
        old: u64,
    },

    // ---- data and acknowledgements ----
    /// Data grant to a requestor (from directory or from the previous
    /// owner), with the number of invalidation acks to collect.
    Data {
        /// Line concerned.
        addr: Addr,
        /// Line contents.
        data: u64,
        /// State conferred on the requestor.
        grant: Grant,
        /// Invalidation acks the requestor must await before using the line.
        acks: u32,
        /// Whether the supplier's copy was dirty with respect to the
        /// directory (drives writeback decisions on recalls).
        dirty: bool,
        /// Whether the payload is poisoned (CXL-style error containment:
        /// the value is unusable, but the protocol completes normally and
        /// the consumer records the error instead of aborting).
        poisoned: bool,
    },
    /// Data sent from a downgrading owner back to the directory.
    DataToDir {
        /// Line concerned.
        addr: Addr,
        /// Line contents.
        data: u64,
        /// Whether the copy was dirty (directory must treat as writeback).
        dirty: bool,
        /// Contents are known-corrupt; the mark must travel with the data.
        poisoned: bool,
    },
    /// Invalidation acknowledgement (sharer -> requestor / directory).
    InvAck {
        /// Line concerned.
        addr: Addr,
    },
    /// Transaction-complete notice (requestor -> directory); carries the
    /// stable state the requestor settled in.
    Unblock {
        /// Line concerned.
        addr: Addr,
        /// Final requestor state.
        to_state: StableState,
    },
}

impl HostMsg {
    /// Address the message concerns.
    pub fn addr(&self) -> Addr {
        match *self {
            HostMsg::GetS { addr }
            | HostMsg::GetM { addr }
            | HostMsg::PutS { addr }
            | HostMsg::PutE { addr }
            | HostMsg::PutM { addr, .. }
            | HostMsg::PutO { addr, .. }
            | HostMsg::WriteThrough { addr, .. }
            | HostMsg::AtomicRmw { addr, .. }
            | HostMsg::FwdGetS { addr, .. }
            | HostMsg::FwdGetM { addr, .. }
            | HostMsg::Inv { addr, .. }
            | HostMsg::PutAck { addr }
            | HostMsg::WtAck { addr }
            | HostMsg::AtomicResp { addr, .. }
            | HostMsg::Data { addr, .. }
            | HostMsg::DataToDir { addr, .. }
            | HostMsg::InvAck { addr }
            | HostMsg::Unblock { addr, .. } => addr,
        }
    }

    /// The variant name: the message's event name in transition tables
    /// and protocol-violation reports.
    pub fn name(&self) -> &'static str {
        match self {
            HostMsg::GetS { .. } => "GetS",
            HostMsg::GetM { .. } => "GetM",
            HostMsg::PutS { .. } => "PutS",
            HostMsg::PutE { .. } => "PutE",
            HostMsg::PutM { .. } => "PutM",
            HostMsg::PutO { .. } => "PutO",
            HostMsg::WriteThrough { .. } => "WriteThrough",
            HostMsg::AtomicRmw { .. } => "AtomicRmw",
            HostMsg::FwdGetS { .. } => "FwdGetS",
            HostMsg::FwdGetM { .. } => "FwdGetM",
            HostMsg::Inv { .. } => "Inv",
            HostMsg::PutAck { .. } => "PutAck",
            HostMsg::WtAck { .. } => "WtAck",
            HostMsg::AtomicResp { .. } => "AtomicResp",
            HostMsg::Data { .. } => "Data",
            HostMsg::DataToDir { .. } => "DataToDir",
            HostMsg::InvAck { .. } => "InvAck",
            HostMsg::Unblock { .. } => "Unblock",
        }
    }

    /// Whether the message carries a cache line.
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            HostMsg::PutM { .. }
                | HostMsg::PutO { .. }
                | HostMsg::WriteThrough { .. }
                | HostMsg::Data { .. }
                | HostMsg::DataToDir { .. }
        )
    }
}

/// The state a CXL.mem data completion confers on the host (DCOH grant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CxlGrant {
    /// Cmp-S: shared.
    S,
    /// Cmp-E: exclusive clean.
    E,
    /// Cmp-M: modified (exclusive ownership for writing).
    M,
}

impl CxlGrant {
    /// The stable state the host-side (C³ CXL cache) enters.
    pub fn state(self) -> StableState {
        match self {
            CxlGrant::S => StableState::S,
            CxlGrant::E => StableState::E,
            CxlGrant::M => StableState::M,
        }
    }
}

/// CXL.mem 3.0 messages (Table I of the paper) plus the back-invalidation
/// conflict handshake (Fig. 2).
///
/// Direction M2S is C³ (host) → DCOH (device); S2M is DCOH → C³.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CxlMsg {
    // ---- M2S (host -> device) ----
    /// `MemRd, A`: read and acquire exclusive ownership (MESI `GetM`).
    MemRdA {
        /// Line concerned.
        addr: Addr,
    },
    /// `MemRd, S`: read and acquire a sharable copy (MESI `GetS`).
    MemRdS {
        /// Line concerned.
        addr: Addr,
    },
    /// `MemWr, I`: write back, do not retain a copy (MESI `WB+PutX`).
    MemWrI {
        /// Line concerned.
        addr: Addr,
        /// Line contents.
        data: u64,
        /// CXL.mem M2S RwD poison: the payload is known-corrupt and the
        /// device must remember that when it later serves the line.
        poisoned: bool,
    },
    /// `MemWr, S`: write back, retain the copy in S (MESI `WB`).
    MemWrS {
        /// Line concerned.
        addr: Addr,
        /// Line contents.
        data: u64,
        /// CXL.mem M2S RwD poison (see [`CxlMsg::MemWrI`]).
        poisoned: bool,
    },
    /// Clean response to `BISnpInv`: host no longer holds the line.
    BiRspI {
        /// Line concerned.
        addr: Addr,
    },
    /// Clean response to `BISnpData`: host downgraded to S; memory's copy
    /// is current.
    BiRspS {
        /// Line concerned.
        addr: Addr,
    },
    /// Conflict-resolution request: the host observed a `BISnp*` while a
    /// request of its own was outstanding (Fig. 2, middle/right).
    BiConflict {
        /// Line concerned.
        addr: Addr,
    },

    // ---- S2M (device -> host) ----
    /// Data completion for `MemRd*` (DRS + NDR `Cmp-S/E/M`).
    MemData {
        /// Line concerned.
        addr: Addr,
        /// Line contents.
        data: u64,
        /// Ownership conferred.
        grant: CxlGrant,
        /// Whether the payload is poisoned (CXL.mem poison semantics: the
        /// completion succeeds but the data is marked unusable).
        poisoned: bool,
    },
    /// Completion for `MemWr*`.
    Cmp {
        /// Line concerned.
        addr: Addr,
    },
    /// `BISnpInv`: device requests exclusive/invalidation (MESI
    /// `Fwd-GetM`), triggered by another host's activity.
    BiSnpInv {
        /// Line concerned.
        addr: Addr,
    },
    /// `BISnpData`: device requests a sharable copy (MESI `Fwd-GetS`).
    BiSnpData {
        /// Line concerned.
        addr: Addr,
    },
    /// Reply to `BIConflict`. `request_was_serialized` tells the host
    /// whether its own outstanding request had already been serialized by
    /// the directory when the conflict was processed — this is how the
    /// ack's "cannot be reordered with the completion" guarantee is
    /// modelled on an unordered fabric.
    BiConflictAck {
        /// Line concerned.
        addr: Addr,
        /// `true`: complete own request first, then honour the snoop
        /// (Fig. 2 middle). `false`: honour the snoop first (Fig. 2 right).
        request_was_serialized: bool,
    },
}

impl CxlMsg {
    /// Address the message concerns.
    pub fn addr(&self) -> Addr {
        match *self {
            CxlMsg::MemRdA { addr }
            | CxlMsg::MemRdS { addr }
            | CxlMsg::MemWrI { addr, .. }
            | CxlMsg::MemWrS { addr, .. }
            | CxlMsg::BiRspI { addr }
            | CxlMsg::BiRspS { addr }
            | CxlMsg::BiConflict { addr }
            | CxlMsg::MemData { addr, .. }
            | CxlMsg::Cmp { addr }
            | CxlMsg::BiSnpInv { addr }
            | CxlMsg::BiSnpData { addr }
            | CxlMsg::BiConflictAck { addr, .. } => addr,
        }
    }

    /// The variant name: the message's event name in transition tables.
    pub fn name(&self) -> &'static str {
        match self {
            CxlMsg::MemRdA { .. } => "MemRdA",
            CxlMsg::MemRdS { .. } => "MemRdS",
            CxlMsg::MemWrI { .. } => "MemWrI",
            CxlMsg::MemWrS { .. } => "MemWrS",
            CxlMsg::BiRspI { .. } => "BiRspI",
            CxlMsg::BiRspS { .. } => "BiRspS",
            CxlMsg::BiConflict { .. } => "BiConflict",
            CxlMsg::MemData { .. } => "MemData",
            CxlMsg::Cmp { .. } => "Cmp",
            CxlMsg::BiSnpInv { .. } => "BiSnpInv",
            CxlMsg::BiSnpData { .. } => "BiSnpData",
            CxlMsg::BiConflictAck { .. } => "BiConflictAck",
        }
    }

    /// Whether the message travels host → device (M2S: requests,
    /// writebacks, snoop responses); the rest travel device → host (S2M).
    pub fn is_m2s(&self) -> bool {
        matches!(
            self,
            CxlMsg::MemRdA { .. }
                | CxlMsg::MemRdS { .. }
                | CxlMsg::MemWrI { .. }
                | CxlMsg::MemWrS { .. }
                | CxlMsg::BiRspI { .. }
                | CxlMsg::BiRspS { .. }
                | CxlMsg::BiConflict { .. }
        )
    }

    /// Whether the message carries a cache line.
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            CxlMsg::MemWrI { .. } | CxlMsg::MemWrS { .. } | CxlMsg::MemData { .. }
        )
    }
}

/// CXL.mem opcode names for Table I reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CxlOpcode {
    /// `MemRd, A` (M2S).
    MemRdA,
    /// `MemRd, S` (M2S).
    MemRdS,
    /// `MemWr, I` (M2S).
    MemWrI,
    /// `MemWr, S` (M2S).
    MemWrS,
    /// `BISnpData` (S2M).
    BiSnpData,
    /// `BISnpInv` (S2M).
    BiSnpInv,
}

/// Table I: the MESI-protocol equivalent of each CXL.mem coherence message.
pub fn mesi_equivalent(op: CxlOpcode) -> &'static str {
    match op {
        CxlOpcode::MemRdA => "GetM",
        CxlOpcode::MemRdS => "GetS",
        CxlOpcode::MemWrI => "WB+PutX",
        CxlOpcode::MemWrS => "WB",
        CxlOpcode::BiSnpData => "Fwd-GetS",
        CxlOpcode::BiSnpInv => "Fwd-GetM",
    }
}

/// Message flow direction (Table I).
pub fn direction(op: CxlOpcode) -> &'static str {
    match op {
        CxlOpcode::MemRdA | CxlOpcode::MemRdS | CxlOpcode::MemWrI | CxlOpcode::MemWrS => "M2S",
        CxlOpcode::BiSnpData | CxlOpcode::BiSnpInv => "S2M",
    }
}

/// Union of all messages delivered by the simulation kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysMsg {
    /// Core → private cache.
    CoreReq(CoreReq),
    /// Private cache → core.
    CoreResp(CoreResp),
    /// Private cache → core: a line was invalidated or lost — TSO cores
    /// use this to squash speculatively completed loads (the O3 pipeline's
    /// memory-order violation replay).
    InvHint {
        /// The invalidated line.
        addr: Addr,
    },
    /// Intra-cluster coherence.
    Host(HostMsg),
    /// Cross-cluster CXL.mem.
    Cxl(CxlMsg),
}

/// Telemetry vnet lane names for [`SysMsg`], indexed by
/// [`Message::vnet_lane`]: core↔L1 port traffic, intra-cluster host
/// coherence, CXL.mem M2S (host→device), and CXL.mem S2M (device→host).
pub const SYS_VNET_LANES: [&str; 4] = ["core", "host", "cxl.m2s", "cxl.s2m"];

impl Message for SysMsg {
    fn size_bytes(&self) -> u32 {
        match self {
            SysMsg::CoreReq(_) | SysMsg::CoreResp(_) | SysMsg::InvHint { .. } => CTRL_MSG_BYTES,
            SysMsg::Host(m) => {
                if m.carries_data() {
                    DATA_MSG_BYTES
                } else {
                    CTRL_MSG_BYTES
                }
            }
            SysMsg::Cxl(m) => {
                if m.carries_data() {
                    DATA_MSG_BYTES
                } else {
                    CTRL_MSG_BYTES
                }
            }
        }
    }

    /// Poison faults apply to the data-carrying messages — fills in one
    /// direction, writebacks in the other (CXL.mem defines poison on both
    /// S2M DRS and M2S RwD). Control messages refuse the poison.
    fn poison(&mut self) -> bool {
        match self {
            SysMsg::Host(HostMsg::Data { poisoned, .. })
            | SysMsg::Host(HostMsg::DataToDir { poisoned, .. })
            | SysMsg::Host(HostMsg::PutM { poisoned, .. })
            | SysMsg::Host(HostMsg::PutO { poisoned, .. })
            | SysMsg::Cxl(CxlMsg::MemData { poisoned, .. })
            | SysMsg::Cxl(CxlMsg::MemWrI { poisoned, .. })
            | SysMsg::Cxl(CxlMsg::MemWrS { poisoned, .. }) => {
                *poisoned = true;
                true
            }
            _ => false,
        }
    }

    /// Feed the telemetry hot-address sketch from the coherence-protocol
    /// traffic (host + CXL messages name the line they concern; core-port
    /// traffic would double-count the same accesses and opts out).
    fn addr_hint(&self) -> Option<u64> {
        match self {
            SysMsg::CoreReq(_) | SysMsg::CoreResp(_) => None,
            SysMsg::InvHint { addr } => Some(addr.0),
            SysMsg::Host(m) => Some(m.addr().0),
            SysMsg::Cxl(m) => Some(m.addr().0),
        }
    }

    /// Lane index into [`SYS_VNET_LANES`].
    fn vnet_lane(&self) -> usize {
        match self {
            SysMsg::CoreReq(_) | SysMsg::CoreResp(_) | SysMsg::InvHint { .. } => 0,
            SysMsg::Host(_) => 1,
            SysMsg::Cxl(m) if m.is_m2s() => 2,
            SysMsg::Cxl(_) => 3,
        }
    }
}

impl From<HostMsg> for SysMsg {
    fn from(m: HostMsg) -> Self {
        SysMsg::Host(m)
    }
}

impl From<CxlMsg> for SysMsg {
    fn from(m: CxlMsg) -> Self {
        SysMsg::Cxl(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AccessOrder, Reg};

    #[test]
    fn table1_equivalences() {
        assert_eq!(mesi_equivalent(CxlOpcode::MemRdA), "GetM");
        assert_eq!(mesi_equivalent(CxlOpcode::MemRdS), "GetS");
        assert_eq!(mesi_equivalent(CxlOpcode::MemWrI), "WB+PutX");
        assert_eq!(mesi_equivalent(CxlOpcode::MemWrS), "WB");
        assert_eq!(mesi_equivalent(CxlOpcode::BiSnpData), "Fwd-GetS");
        assert_eq!(mesi_equivalent(CxlOpcode::BiSnpInv), "Fwd-GetM");
    }

    #[test]
    fn table1_directions() {
        assert_eq!(direction(CxlOpcode::MemRdA), "M2S");
        assert_eq!(direction(CxlOpcode::MemWrS), "M2S");
        assert_eq!(direction(CxlOpcode::BiSnpInv), "S2M");
        assert_eq!(direction(CxlOpcode::BiSnpData), "S2M");
    }

    #[test]
    fn message_sizes() {
        let data = SysMsg::Host(HostMsg::Data {
            addr: Addr(0),
            data: 1,
            grant: Grant::S,
            acks: 0,
            dirty: false,
            poisoned: false,
        });
        let ctrl = SysMsg::Host(HostMsg::GetS { addr: Addr(0) });
        assert_eq!(data.size_bytes(), DATA_MSG_BYTES);
        assert_eq!(ctrl.size_bytes(), CTRL_MSG_BYTES);
        let cxl_data = SysMsg::Cxl(CxlMsg::MemWrI {
            addr: Addr(0),
            data: 9,
            poisoned: false,
        });
        assert_eq!(cxl_data.size_bytes(), DATA_MSG_BYTES);
        let req = SysMsg::CoreReq(CoreReq {
            tag: 0,
            instr: Instr::Load {
                addr: Addr(0),
                reg: Reg(0),
                order: AccessOrder::Relaxed,
            },
        });
        assert_eq!(req.size_bytes(), CTRL_MSG_BYTES);
    }

    #[test]
    fn addr_extraction() {
        assert_eq!(HostMsg::GetS { addr: Addr(5) }.addr(), Addr(5));
        assert_eq!(
            CxlMsg::BiConflictAck {
                addr: Addr(6),
                request_was_serialized: true
            }
            .addr(),
            Addr(6)
        );
    }

    #[test]
    fn grants_map_to_states() {
        assert_eq!(Grant::S.state(), StableState::S);
        assert_eq!(Grant::E.state(), StableState::E);
        assert_eq!(Grant::M.state(), StableState::M);
        assert_eq!(Grant::F.state(), StableState::F);
        assert_eq!(CxlGrant::M.state(), StableState::M);
        assert_eq!(CxlGrant::S.state(), StableState::S);
        assert_eq!(CxlGrant::E.state(), StableState::E);
    }

    #[test]
    fn conversions_into_sysmsg() {
        let h: SysMsg = HostMsg::InvAck { addr: Addr(1) }.into();
        assert!(matches!(h, SysMsg::Host(_)));
        let c: SysMsg = CxlMsg::Cmp { addr: Addr(1) }.into();
        assert!(matches!(c, SysMsg::Cxl(_)));
    }
}
