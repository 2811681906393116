//! The C³ generator: compound state machine synthesis (§IV-B, §V).
//!
//! Mirrors the paper's Progen-based tool: it takes two machine-readable
//! **stable state protocol** specs — the host protocol and CXL.mem — and
//! produces the [`CompoundFsm`]:
//!
//! 1. forms the Cartesian product of host-side holder classes and CXL
//!    cache states,
//! 2. prunes combinations forbidden by Rule I (inclusion: the CXL cache
//!    must cover every host copy, so `(S, I)`, `(M, I)`, `(M, S)`, … are
//!    unreachable for SWMR hosts),
//! 3. derives a **translation table** (Table II): for each incoming
//!    message and compound state, the conceptual cross-domain access
//!    ("X-Access"), the native flow used to realize it, and the resulting
//!    compound transient/stable states,
//! 4. exposes the decision procedures the runtime bridge interprets
//!    ([`CompoundFsm::snoop_plan`], [`CompoundFsm::delegation`],
//!    [`CompoundFsm::snoop_response`]).
//!
//! Every decision is *derived from the input specs* — the generator never
//! hardcodes per-protocol behaviour beyond the spec tables, which is what
//! makes C³ generic over host protocols.

use std::fmt;

use c3_protocol::ssp::{SspAction, SspEvent, SspSpec};
use c3_protocol::states::{ProtocolFamily, StableState};

pub use c3_memsys::direngine::HostClass;
use c3_memsys::direngine::{DirRequest, DirSteps, Role};

/// A stable compound state `(host, cxl)` — §IV-B "state compounding".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CompoundState {
    /// Host-side holder class.
    pub host: HostClass,
    /// CXL-cache stable state.
    pub cxl: StableState,
}

impl CompoundState {
    /// Whether the line may be dirty with respect to CXL memory: the CXL
    /// cache holds it modified, or a host cache may hold dirty data.
    pub fn maybe_dirty(self) -> bool {
        self.cxl == StableState::M || self.host.maybe_dirty()
    }
}

impl fmt::Display for CompoundState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.host.representative(), self.cxl)
    }
}

/// The conceptual cross-domain access of Table II ("X-Access").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum XAccess {
    /// Conceptual load into the other domain.
    Load,
    /// Conceptual store into the other domain.
    Store,
}

impl fmt::Display for XAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XAccess::Load => write!(f, "Load"),
            XAccess::Store => write!(f, "Store"),
        }
    }
}

/// Incoming message classes the translation table covers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Incoming {
    /// CXL directory back-invalidation (`BISnpInv`).
    BiSnpInv,
    /// CXL directory data snoop (`BISnpData`).
    BiSnpData,
    /// Host-side read request (`GetS`).
    HostRead,
    /// Host-side write request (`GetM` / write-through / atomic).
    HostWrite,
    /// CXL-cache capacity eviction (Fig. 7).
    CxlEvict,
}

impl fmt::Display for Incoming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Incoming::BiSnpInv => "BISnpInv",
            Incoming::BiSnpData => "BISnpData",
            Incoming::HostRead => "GetS",
            Incoming::HostWrite => "GetM",
            Incoming::CxlEvict => "Evict",
        };
        f.write_str(s)
    }
}

/// CXL.mem response kind for a resolved snoop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SnoopResponse {
    /// `MemWr,I` — dirty writeback, relinquish.
    MemWrI,
    /// `MemWr,S` — dirty writeback, retain shared.
    MemWrS,
    /// `BIRspI` — clean, line relinquished.
    BiRspI,
    /// `BIRspS` — clean, line retained shared.
    BiRspS,
}

impl fmt::Display for SnoopResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnoopResponse::MemWrI => "MemWr,I",
            SnoopResponse::MemWrS => "MemWr,S",
            SnoopResponse::BiRspI => "BIRspI",
            SnoopResponse::BiRspS => "BIRspS",
        };
        f.write_str(s)
    }
}

/// One row of the generated translation table (Table II of the paper).
#[derive(Clone, Debug)]
pub struct TranslationRow {
    /// Triggering message.
    pub incoming: Incoming,
    /// Compound state the message finds.
    pub state: CompoundState,
    /// Conceptual cross-domain access (Rule I delegation), if any.
    pub x_access: Option<XAccess>,
    /// Human-readable native-flow action.
    pub action: String,
    /// Transient compound state entered while nested flows run
    /// (Rule II), e.g. `MI^A,MI^A`; `-` when the transition is immediate.
    pub transient: String,
    /// Resulting stable compound state.
    pub next: CompoundState,
}

/// Errors from [`Generator::new`].
#[derive(Debug)]
pub enum GenError {
    /// The host spec failed validation.
    HostSpec(Vec<c3_protocol::ssp::SspError>),
    /// The global spec failed validation.
    GlobalSpec(Vec<c3_protocol::ssp::SspError>),
    /// The global protocol does not enforce SWMR — C³ requires a
    /// coherent global domain (CXL.mem or a MESI-family protocol).
    GlobalNotCoherent,
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::HostSpec(e) => write!(f, "host spec invalid: {e:?}"),
            GenError::GlobalSpec(e) => write!(f, "global spec invalid: {e:?}"),
            GenError::GlobalNotCoherent => write!(f, "global protocol must enforce SWMR"),
        }
    }
}

impl std::error::Error for GenError {}

/// The generator: validates inputs and synthesizes the compound FSM.
#[derive(Debug)]
pub struct Generator {
    host: SspSpec,
    global: SspSpec,
}

impl Generator {
    /// Create a generator for `host` bridged to `global` (usually
    /// [`SspSpec::cxl_mem`]).
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] if either spec is malformed or the global
    /// protocol cannot serve as a coherence root.
    pub fn new(host: SspSpec, global: SspSpec) -> Result<Self, GenError> {
        host.validate().map_err(GenError::HostSpec)?;
        global.validate().map_err(GenError::GlobalSpec)?;
        if !global.family.enforces_swmr() {
            return Err(GenError::GlobalNotCoherent);
        }
        Ok(Generator { host, global })
    }

    /// Synthesize the compound FSM.
    pub fn generate(&self) -> CompoundFsm {
        let mut fsm = CompoundFsm {
            host_family: self.host.family,
            global_family: self.global.family,
            host: self.host.clone(),
            global: self.global.clone(),
            states: Vec::new(),
            rows: Vec::new(),
        };
        // 1–2. Cartesian product, pruned by the Rule-I inclusion invariant.
        let host_classes = [
            HostClass::None,
            HostClass::Shared,
            HostClass::Exclusive,
            HostClass::Owned,
        ];
        for h in host_classes {
            if h == HostClass::Owned && !self.host.family.has_state(StableState::O) {
                continue;
            }
            for &g in self.global.family.states() {
                let s = CompoundState { host: h, cxl: g };
                if fsm.is_consistent(h, g) {
                    fsm.states.push(s);
                }
            }
        }
        // 3. Translation rows.
        let steps = DirSteps::compile(&self.host);
        for &s in &fsm.states.clone() {
            fsm.push_snoop_rows(s);
            fsm.push_host_rows(s, &steps);
            fsm.push_evict_row(s);
        }
        fsm
    }
}

/// The synthesized compound state machine — C³-logic's decision tables.
#[derive(Clone, Debug)]
pub struct CompoundFsm {
    /// Host protocol family.
    pub host_family: ProtocolFamily,
    /// Global protocol family.
    pub global_family: ProtocolFamily,
    host: SspSpec,
    global: SspSpec,
    /// Consistent stable compound states.
    pub states: Vec<CompoundState>,
    /// The generated translation table.
    pub rows: Vec<TranslationRow>,
}

/// The plan for handling a global snoop in a given compound state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnoopPlan {
    /// Rule-I delegation into the host domain, if host copies require it.
    pub x_access: Option<XAccess>,
    /// CXL state after the snoop resolves.
    pub next_cxl: StableState,
}

impl CompoundFsm {
    /// Whether a compound state satisfies the Rule-I invariants.
    ///
    /// For SWMR host protocols the CXL cache is inclusive: a host copy
    /// requires at least global read permission, and a host-writable copy
    /// requires global write permission. `(Owned, S)` is additionally
    /// allowed because a `BISnpData` recall leaves a MOESI owner in O with
    /// the bridge's data already synchronized to memory (§IV, Fig. 3
    /// discussion). Self-invalidation hosts (RCC) track no holders, so
    /// only `host == None` combinations arise.
    pub fn is_consistent(&self, host: HostClass, cxl: StableState) -> bool {
        if !self.host_family.enforces_swmr() {
            return host == HostClass::None;
        }
        match host {
            HostClass::None => true,
            HostClass::Shared => cxl.can_read(),
            HostClass::Exclusive => cxl.can_write(),
            HostClass::Owned => cxl.can_write() || cxl == StableState::S,
        }
    }

    /// Decide how to handle a global snoop (Rule I: delegate to the host
    /// domain when host copies are affected; Rule II is enforced by the
    /// runtime, which nests the recall before responding).
    pub fn snoop_plan(&self, snoop: Incoming, host: HostClass, cxl: StableState) -> SnoopPlan {
        debug_assert!(matches!(snoop, Incoming::BiSnpInv | Incoming::BiSnpData));
        let exclusive = snoop == Incoming::BiSnpInv;
        let x_access = if !self.host_family.enforces_swmr() {
            // RCC hosts self-invalidate; C³ answers directly (§IV-D2).
            None
        } else if exclusive && host.any() {
            Some(XAccess::Store)
        } else if !exclusive && host.maybe_dirty() {
            Some(XAccess::Load)
        } else {
            None
        };
        // The resulting CXL state comes from the global spec's native
        // transition for the equivalent event.
        let event = if exclusive {
            SspEvent::FwdGetM
        } else {
            SspEvent::FwdGetS
        };
        let next_cxl = self
            .global
            .transition(cxl, event)
            .or_else(|| self.global.transition(cxl, SspEvent::Inv))
            .map(|t| match t.to {
                c3_protocol::ssp::SspNext::Fixed(s) => s,
                c3_protocol::ssp::SspNext::FromGrant => StableState::I,
            })
            .unwrap_or(StableState::I);
        SnoopPlan { x_access, next_cxl }
    }

    /// The CXL.mem response message for a resolved snoop, given whether
    /// dirty data must be returned. Derived from the global spec's
    /// actions for the equivalent event.
    pub fn snoop_response(&self, snoop: Incoming, dirty: bool) -> SnoopResponse {
        let exclusive = snoop == Incoming::BiSnpInv;
        if dirty {
            // Global spec: M + FwdGetM -> WritebackDirty; M + FwdGetS ->
            // WritebackRetain.
            let ev = if exclusive {
                SspEvent::FwdGetM
            } else {
                SspEvent::FwdGetS
            };
            let tr = self
                .global
                .transition(StableState::M, ev)
                .expect("global spec handles dirty snoops");
            if tr.actions.contains(&SspAction::WritebackRetain) {
                SnoopResponse::MemWrS
            } else {
                SnoopResponse::MemWrI
            }
        } else if exclusive {
            SnoopResponse::BiRspI
        } else {
            SnoopResponse::BiRspS
        }
    }

    /// Rule-I delegation decision for a host-side request class: `None`
    /// when the CXL cache state already satisfies it locally, otherwise
    /// the conceptual global access to perform first.
    pub fn delegation(&self, write: bool, cxl: StableState) -> Option<XAccess> {
        if write {
            if cxl.can_write() {
                None
            } else {
                Some(XAccess::Store)
            }
        } else if cxl.can_read() {
            None
        } else {
            Some(XAccess::Load)
        }
    }

    fn push_snoop_rows(&mut self, s: CompoundState) {
        for snoop in [Incoming::BiSnpInv, Incoming::BiSnpData] {
            if s.cxl == StableState::I {
                continue; // the directory never snoops a non-holder
            }
            if snoop == Incoming::BiSnpData && s.cxl == StableState::S {
                continue; // data snoops only target exclusive holders
            }
            let plan = self.snoop_plan(snoop, s.host, s.cxl);
            let dirty = s.maybe_dirty();
            let resp = self.snoop_response(snoop, dirty);
            let next_host = match (snoop, s.host) {
                (Incoming::BiSnpInv, _) => HostClass::None,
                (Incoming::BiSnpData, HostClass::Exclusive) => {
                    if self.host.owner_stays_on_fwd_gets() {
                        HostClass::Owned
                    } else {
                        HostClass::Shared
                    }
                }
                (_, h) => h,
            };
            let action = match plan.x_access {
                Some(XAccess::Store) => format!("Fwd-GetM to Host $; then {resp}"),
                Some(XAccess::Load) => format!("Fwd-GetS to Host $; then {resp}"),
                None => format!("{resp} to CXL Dir"),
            };
            let transient = match plan.x_access {
                Some(XAccess::Store) => "MI^A, MI^A".to_string(),
                Some(XAccess::Load) => "MS^AD, MS^AD".to_string(),
                None => "-".to_string(),
            };
            self.rows.push(TranslationRow {
                incoming: snoop,
                state: s,
                x_access: plan.x_access,
                action,
                transient,
                next: CompoundState {
                    host: next_host,
                    cxl: plan.next_cxl,
                },
            });
        }
    }

    fn push_host_rows(&mut self, s: CompoundState, steps: &DirSteps) {
        for (incoming, write) in [(Incoming::HostRead, false), (Incoming::HostWrite, true)] {
            let x = self.delegation(write, s.cxl);
            let (action, transient, next_cxl) = match x {
                Some(XAccess::Load) => (
                    "MemRd,S to CXL Dir".to_string(),
                    "IS^D, IS^D".to_string(),
                    StableState::S,
                ),
                Some(XAccess::Store) => (
                    "MemRd,A to CXL Dir".to_string(),
                    "IM^AD, IM^AD".to_string(),
                    StableState::M,
                ),
                None => ("serve locally".to_string(), "-".to_string(), s.cxl),
            };
            // The host half is the directory's own step for a request
            // from a non-holder, under the CXL permission the row ends
            // with. Where the directory has no such step (a
            // self-invalidating host sends no GetM) it tracks no holders.
            let req = if write {
                DirRequest::GetM
            } else {
                DirRequest::GetS
            };
            let next_host = steps
                .get(s.host, Role::None, req)
                .map_or(HostClass::None, |step| {
                    step.under(next_cxl.can_write()).next()
                });
            self.rows.push(TranslationRow {
                incoming,
                state: s,
                x_access: x,
                action,
                transient,
                next: CompoundState {
                    host: next_host,
                    cxl: next_cxl,
                },
            });
        }
    }

    fn push_evict_row(&mut self, s: CompoundState) {
        if s.cxl == StableState::I {
            return;
        }
        // Fig. 7: reclaim host copies (conceptual store), then write back
        // through the native CXL eviction flow.
        let x = if s.host.any() && self.host_family.enforces_swmr() {
            Some(XAccess::Store)
        } else {
            None
        };
        let dirty = s.maybe_dirty();
        let action = match (x, dirty) {
            (Some(_), true) => "Fwd-GetM to Host $; then MemWr,I".to_string(),
            (Some(_), false) => "Fwd-GetM to Host $; then silent drop".to_string(),
            (None, true) => "MemWr,I to CXL Dir".to_string(),
            (None, false) => "silent drop".to_string(),
        };
        self.rows.push(TranslationRow {
            incoming: Incoming::CxlEvict,
            state: s,
            x_access: x,
            action,
            transient: if x.is_some() || dirty {
                "MI^A, MI^A".to_string()
            } else {
                "-".to_string()
            },
            next: CompoundState {
                host: HostClass::None,
                cxl: StableState::I,
            },
        });
    }

    /// Render the translation table in the paper's Table-II format.
    pub fn dump_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "C3 translation table: host={} global={}\n",
            self.host_family, self.global_family
        ));
        out.push_str(
            "Message     | S        | X-Access | Action                          | S_next\n",
        );
        out.push_str(
            "------------+----------+----------+---------------------------------+---------\n",
        );
        for r in &self.rows {
            let x = r
                .x_access
                .map(|x| x.to_string())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<11} | {:<8} | {:<8} | {:<31} | {}\n",
                r.incoming.to_string(),
                r.state.to_string(),
                x,
                r.action,
                r.next
            ));
        }
        out
    }

    /// Find a translation row.
    pub fn row(
        &self,
        incoming: Incoming,
        host: HostClass,
        cxl: StableState,
    ) -> Option<&TranslationRow> {
        self.rows
            .iter()
            .find(|r| r.incoming == incoming && r.state.host == host && r.state.cxl == cxl)
    }
}

/// Convenience: generate the compound FSM for `host` over CXL.mem.
///
/// # Panics
///
/// Panics if the built-in specs fail validation (a library bug).
pub fn bridge_fsm(host: ProtocolFamily) -> CompoundFsm {
    Generator::new(SspSpec::for_family(host), SspSpec::cxl_mem())
        .expect("built-in specs are valid")
        .generate()
}

/// Convenience: generate the compound FSM for `host` over a hierarchical
/// host-protocol global level (the paper's MESI-MESI-MESI baseline).
///
/// # Panics
///
/// Panics if the built-in specs fail validation (a library bug).
pub fn baseline_fsm(host: ProtocolFamily, global: ProtocolFamily) -> CompoundFsm {
    Generator::new(SspSpec::for_family(host), SspSpec::for_family(global))
        .expect("built-in specs are valid")
        .generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_for_all_host_families() {
        for fam in [
            ProtocolFamily::Mesi,
            ProtocolFamily::Mesif,
            ProtocolFamily::Moesi,
            ProtocolFamily::Rcc,
        ] {
            let fsm = bridge_fsm(fam);
            assert!(!fsm.states.is_empty(), "{fam}");
            assert!(!fsm.rows.is_empty(), "{fam}");
        }
    }

    #[test]
    fn rcc_as_global_is_rejected() {
        let err = Generator::new(SspSpec::mesi(), SspSpec::rcc()).unwrap_err();
        assert!(matches!(err, GenError::GlobalNotCoherent));
    }

    #[test]
    fn forbidden_states_are_pruned() {
        let fsm = bridge_fsm(ProtocolFamily::Mesi);
        // Inclusion: no host copy without a CXL-cache copy.
        assert!(!fsm
            .states
            .iter()
            .any(|s| s.host.any() && s.cxl == StableState::I));
        // Host write permission requires global write permission.
        assert!(!fsm
            .states
            .iter()
            .any(|s| s.host == HostClass::Exclusive && !s.cxl.can_write()));
        // (I, I) and (I, S) exist.
        assert!(fsm.states.contains(&CompoundState {
            host: HostClass::None,
            cxl: StableState::I
        }));
        assert!(fsm.states.contains(&CompoundState {
            host: HostClass::None,
            cxl: StableState::S
        }));
    }

    #[test]
    fn table2_fragment_matches_paper() {
        // Table II of the paper (MOESI host): BISnpInv in (M, M) delegates
        // a conceptual Store (Fwd-GetM to host caches); in (I, M) it is
        // answered directly.
        let fsm = bridge_fsm(ProtocolFamily::Moesi);
        let r = fsm
            .row(Incoming::BiSnpInv, HostClass::Exclusive, StableState::M)
            .expect("row exists");
        assert_eq!(r.x_access, Some(XAccess::Store));
        assert!(r.action.contains("Fwd-GetM"));
        assert_eq!(r.transient, "MI^A, MI^A");
        assert_eq!(r.next.host, HostClass::None);
        assert_eq!(r.next.cxl, StableState::I);

        let r = fsm
            .row(Incoming::BiSnpInv, HostClass::None, StableState::M)
            .expect("row exists");
        assert_eq!(r.x_access, None);
        assert!(r.action.contains("MemWr"));

        let r = fsm
            .row(Incoming::BiSnpData, HostClass::Exclusive, StableState::M)
            .expect("row exists");
        assert_eq!(r.x_access, Some(XAccess::Load));
        assert_eq!(r.transient, "MS^AD, MS^AD");
    }

    #[test]
    fn snoop_responses_derive_from_cxl_spec() {
        let fsm = bridge_fsm(ProtocolFamily::Mesi);
        assert_eq!(
            fsm.snoop_response(Incoming::BiSnpInv, true),
            SnoopResponse::MemWrI
        );
        assert_eq!(
            fsm.snoop_response(Incoming::BiSnpData, true),
            SnoopResponse::MemWrS
        );
        assert_eq!(
            fsm.snoop_response(Incoming::BiSnpInv, false),
            SnoopResponse::BiRspI
        );
        assert_eq!(
            fsm.snoop_response(Incoming::BiSnpData, false),
            SnoopResponse::BiRspS
        );
    }

    #[test]
    fn delegation_follows_rule_one() {
        let fsm = bridge_fsm(ProtocolFamily::Mesi);
        assert_eq!(fsm.delegation(false, StableState::I), Some(XAccess::Load));
        assert_eq!(fsm.delegation(false, StableState::S), None);
        assert_eq!(fsm.delegation(true, StableState::S), Some(XAccess::Store));
        assert_eq!(fsm.delegation(true, StableState::M), None);
        assert_eq!(fsm.delegation(true, StableState::E), None);
    }

    #[test]
    fn rcc_snoops_never_delegate() {
        let fsm = bridge_fsm(ProtocolFamily::Rcc);
        let plan = fsm.snoop_plan(Incoming::BiSnpInv, HostClass::None, StableState::M);
        assert_eq!(plan.x_access, None);
        assert_eq!(plan.next_cxl, StableState::I);
    }

    #[test]
    fn moesi_data_snoop_keeps_owner() {
        let fsm = bridge_fsm(ProtocolFamily::Moesi);
        let r = fsm
            .row(Incoming::BiSnpData, HostClass::Exclusive, StableState::M)
            .expect("row");
        assert_eq!(r.next.host, HostClass::Owned);
        assert_eq!(r.next.cxl, StableState::S);
        // (Owned, S) is a consistent synced state for MOESI hosts.
        assert!(fsm.is_consistent(HostClass::Owned, StableState::S));
        // But it is forbidden for MESI hosts (no O state at all).
        let mesi = bridge_fsm(ProtocolFamily::Mesi);
        assert!(!mesi.states.iter().any(|s| s.host == HostClass::Owned));
    }

    #[test]
    fn eviction_rows_cover_fig7() {
        let fsm = bridge_fsm(ProtocolFamily::Mesi);
        let r = fsm
            .row(Incoming::CxlEvict, HostClass::Exclusive, StableState::M)
            .expect("row");
        assert_eq!(r.x_access, Some(XAccess::Store));
        assert!(r.action.contains("MemWr,I"));
        let r = fsm
            .row(Incoming::CxlEvict, HostClass::None, StableState::S)
            .expect("row");
        assert_eq!(r.x_access, None);
        assert!(r.action.contains("silent"));
    }

    #[test]
    fn dump_table_renders() {
        let fsm = bridge_fsm(ProtocolFamily::Moesi);
        let table = fsm.dump_table();
        assert!(table.contains("BISnpInv"));
        assert!(table.contains("(M, M)"));
        assert!(table.contains("Fwd-GetM to Host $"));
    }

    /// The host half of every `GetS`/`GetM` row is where the directory the
    /// bridge runs moves the holders on that request from a non-holder,
    /// under the CXL permission the row ends with. A local read of an
    /// exclusively held line demotes the owner to S, or keeps it owner as
    /// O where the family does (MOESI).
    #[test]
    fn host_request_rows_agree_with_the_directory_steps() {
        use ProtocolFamily::{Mesi, Mesif, Moesi, Rcc};
        for fam in [Mesi, Mesif, Moesi, Rcc] {
            for fsm in [bridge_fsm(fam), baseline_fsm(fam, Mesi)] {
                let steps = DirSteps::compile(&SspSpec::for_family(fam));
                for r in &fsm.rows {
                    let req = match r.incoming {
                        Incoming::HostRead => DirRequest::GetS,
                        Incoming::HostWrite => DirRequest::GetM,
                        _ => continue,
                    };
                    let dir = steps
                        .get(r.state.host, Role::None, req)
                        .map_or(HostClass::None, |st| {
                            st.under(r.next.cxl.can_write()).next()
                        });
                    assert_eq!(r.next.host, dir, "{fam}: {} in {}", r.incoming, r.state);
                }
            }
            let read = bridge_fsm(fam)
                .row(Incoming::HostRead, HostClass::Exclusive, StableState::M)
                .map(|r| r.next.host);
            let demoted = match fam {
                Moesi => Some(HostClass::Owned),
                Rcc => None, // no exclusive holders to read from
                _ => Some(HostClass::Shared),
            };
            assert_eq!(read, demoted, "{fam}");
        }
    }

    #[test]
    fn baseline_fsm_generates() {
        let fsm = baseline_fsm(ProtocolFamily::Mesi, ProtocolFamily::Mesi);
        assert_eq!(fsm.global_family, ProtocolFamily::Mesi);
        assert!(!fsm.states.is_empty());
    }
}
