//! Machine-readable **stable state protocol** (SSP) specifications.
//!
//! The paper's generator tool (§V, based on Progen) takes SSP specs — the
//! atomic-transaction view of a protocol, with transient states omitted —
//! for both the host protocol and CXL, and synthesizes the C³ compound FSM.
//! This module is our equivalent input format: each protocol family is
//! described as a table of `(stable state, event) → (actions, next state)`.
//! The spec has no directory-side settings: what the directory grants and
//! records follows from the rows and the family ([`SspSpec::read_grants`],
//! [`SspSpec::owner_stays_on_fwd_gets`]). `c3::generator` consumes two of
//! these and `c3-verif` checks them.

use crate::msg::Grant;
use crate::states::{ProtocolFamily, StableState};

/// An event a cache-side SSP state machine reacts to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SspEvent {
    /// Core load.
    Load,
    /// Core store.
    Store,
    /// Capacity eviction of the line.
    Evict,
    /// Incoming forwarded read (MESI `Fwd-GetS` / CXL `BISnpData`).
    FwdGetS,
    /// Incoming forwarded write (MESI `Fwd-GetM` / CXL `BISnpInv`).
    FwdGetM,
    /// Incoming invalidation of a shared copy.
    Inv,
    /// RCC acquire synchronization (self-invalidation point).
    Acquire,
    /// RCC release synchronization (write-through point).
    Release,
}

impl SspEvent {
    /// Every event.
    pub const ALL: [SspEvent; 8] = [
        SspEvent::Load,
        SspEvent::Store,
        SspEvent::Evict,
        SspEvent::FwdGetS,
        SspEvent::FwdGetM,
        SspEvent::Inv,
        SspEvent::Acquire,
        SspEvent::Release,
    ];

    /// The event's name in SSP text.
    pub fn name(self) -> &'static str {
        match self {
            SspEvent::Load => "Load",
            SspEvent::Store => "Store",
            SspEvent::Evict => "Evict",
            SspEvent::FwdGetS => "FwdGetS",
            SspEvent::FwdGetM => "FwdGetM",
            SspEvent::Inv => "Inv",
            SspEvent::Acquire => "Acquire",
            SspEvent::Release => "Release",
        }
    }
}

/// An abstract action taken during an SSP transition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SspAction {
    /// Issue a read request to the directory (`GetS` / `MemRd,S`).
    IssueGetS,
    /// Issue an ownership request to the directory (`GetM` / `MemRd,A`).
    IssueGetM,
    /// Issue a clean eviction notice (`PutS`/`PutE`).
    IssuePutClean,
    /// Write dirty data back (`PutM`/`PutO` / CXL `MemWr,I`).
    WritebackDirty,
    /// Write dirty data back but retain a shared copy (CXL `MemWr,S`).
    WritebackRetain,
    /// Send data to the requestor named in the forward.
    SendDataToReq,
    /// Send (clean or dirty) data back to the directory.
    SendDataToDir,
    /// Acknowledge an invalidation.
    SendInvAck,
    /// Write the line locally without any coherence request (RCC stores).
    LocalWrite,
}

/// The next state of an SSP transition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SspNext {
    /// A fixed stable state.
    Fixed(StableState),
    /// Determined by the directory's data grant (e.g. `I --Load--> S or E`).
    FromGrant,
}

/// One row of an SSP table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SspTransition {
    /// Current stable state.
    pub from: StableState,
    /// Triggering event.
    pub event: SspEvent,
    /// Actions performed.
    pub actions: Vec<SspAction>,
    /// Resulting state.
    pub to: SspNext,
}

/// A complete stable-state protocol specification.
#[derive(Clone, Debug)]
pub struct SspSpec {
    /// Protocol family described.
    pub family: ProtocolFamily,
    /// Cache-side transitions.
    pub transitions: Vec<SspTransition>,
}

/// Errors produced by [`SspSpec::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SspError {
    /// Two transitions share the same `(state, event)` key.
    Ambiguous(StableState, SspEvent),
    /// A transition names a state the family does not use.
    ForeignState(StableState),
    /// A state lacks a `Load` or `Store` transition.
    IncompleteCore(StableState, SspEvent),
    /// A transition grants write permission without requesting ownership
    /// in an eager-invalidation (SWMR) protocol.
    SilentOwnership(StableState),
    /// The `E × FwdGetS` and `M × FwdGetS` rows disagree on whether the
    /// supplier stays owner. The directory cannot tell E from a silently
    /// upgraded M, so it needs one answer for both.
    SupplierDisagrees,
}

impl std::fmt::Display for SspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SspError::Ambiguous(s, e) => write!(f, "ambiguous transition from {s} on {e:?}"),
            SspError::ForeignState(s) => write!(f, "state {s} not in family"),
            SspError::IncompleteCore(s, e) => {
                write!(f, "state {s} has no transition for core event {e:?}")
            }
            SspError::SilentOwnership(s) => {
                write!(f, "state {s} gains write permission without GetM")
            }
            SspError::SupplierDisagrees => write!(
                f,
                "E and M disagree on whether a FwdGetS supplier stays owner"
            ),
        }
    }
}

impl std::error::Error for SspError {}

impl SspSpec {
    /// Look up the transition for `(state, event)`, if defined.
    pub fn transition(&self, from: StableState, event: SspEvent) -> Option<&SspTransition> {
        self.transitions
            .iter()
            .find(|t| t.from == from && t.event == event)
    }

    /// Stable states of the family.
    pub fn states(&self) -> &'static [StableState] {
        self.family.states()
    }

    /// Check well-formedness of the table.
    ///
    /// # Errors
    ///
    /// Returns every violation found: ambiguous rows, states outside the
    /// family, missing Load/Store rows, silent ownership acquisition in
    /// SWMR protocols, or E and M suppliers that disagree on keeping
    /// ownership across a `FwdGetS`.
    pub fn validate(&self) -> Result<(), Vec<SspError>> {
        let mut errs = Vec::new();
        let states = self.states();
        // Ambiguity + foreign states.
        for (i, t) in self.transitions.iter().enumerate() {
            if !states.contains(&t.from) {
                errs.push(SspError::ForeignState(t.from));
            }
            if let SspNext::Fixed(s) = t.to {
                if !states.contains(&s) {
                    errs.push(SspError::ForeignState(s));
                }
            }
            for u in &self.transitions[i + 1..] {
                if u.from == t.from && u.event == t.event {
                    errs.push(SspError::Ambiguous(t.from, t.event));
                }
            }
        }
        // Core completeness: Load and Store must be handled everywhere.
        for &s in states {
            for e in [SspEvent::Load, SspEvent::Store] {
                if self.transition(s, e).is_none() {
                    errs.push(SspError::IncompleteCore(s, e));
                }
            }
        }
        // SWMR: entering a writable state from a non-writable one requires
        // IssueGetM (eager invalidation families only).
        if self.family.enforces_swmr() {
            for t in &self.transitions {
                if t.event == SspEvent::Store && !t.from.can_write() {
                    let gains_write = matches!(t.to, SspNext::Fixed(s) if s.can_write());
                    let asks = t.actions.contains(&SspAction::IssueGetM);
                    if gains_write && !asks {
                        errs.push(SspError::SilentOwnership(t.from));
                    }
                }
            }
        }
        let stays = |from| {
            self.transition(from, SspEvent::FwdGetS)
                .map(|t| t.to == SspNext::Fixed(StableState::O))
        };
        if let (Some(e), Some(m)) = (stays(StableState::E), stays(StableState::M)) {
            if e != m {
                errs.push(SspError::SupplierDisagrees);
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Whether a `GetS` to an unshared line may be granted E: the spec
    /// leaves `I × Load`'s next state to the grant and the family has E.
    pub fn exclusive_read_grant(&self) -> bool {
        self.family.has_state(StableState::E)
            && self
                .transition(StableState::I, SspEvent::Load)
                .is_some_and(|t| t.to == SspNext::FromGrant)
    }

    /// The grant a `GetS` gets once the line has sharers: F where the
    /// family has the Forward state (the newest reader becomes the
    /// forwarder), else S.
    pub fn shared_read_grant(&self) -> Grant {
        if self.family.has_state(StableState::F) {
            Grant::F
        } else {
            Grant::S
        }
    }

    /// Whether the owner that supplies a `FwdGetS` stays owner, as MOESI's
    /// `M × FwdGetS → O` does, instead of dropping to a sharer.
    pub fn owner_stays_on_fwd_gets(&self) -> bool {
        self.transition(StableState::M, SspEvent::FwdGetS)
            .is_some_and(|t| t.to == SspNext::Fixed(StableState::O))
    }

    /// Every state the directory may grant a `GetS`: S, E where
    /// [`SspSpec::exclusive_read_grant`] holds, and F for MESIF.
    pub fn read_grants(&self) -> Vec<StableState> {
        let mut grants = vec![StableState::S];
        grants.extend(self.exclusive_read_grant().then_some(StableState::E));
        grants.extend((self.shared_read_grant() == Grant::F).then_some(StableState::F));
        grants
    }

    /// The MESI host protocol (the paper's default cluster protocol).
    pub fn mesi() -> SspSpec {
        use SspAction::*;
        use SspEvent::*;
        use SspNext::*;
        use StableState::*;
        SspSpec {
            family: ProtocolFamily::Mesi,
            transitions: vec![
                t(I, Load, vec![IssueGetS], FromGrant),
                t(I, Store, vec![IssueGetM], Fixed(M)),
                t(I, Evict, vec![], Fixed(I)),
                t(S, Load, vec![], Fixed(S)),
                t(S, Store, vec![IssueGetM], Fixed(M)),
                t(S, Evict, vec![IssuePutClean], Fixed(I)),
                t(S, Inv, vec![SendInvAck], Fixed(I)),
                t(E, Load, vec![], Fixed(E)),
                t(E, Store, vec![], Fixed(M)),
                t(E, Evict, vec![IssuePutClean], Fixed(I)),
                // A clean supplier leaves the directory's copy current.
                t(E, FwdGetS, vec![SendDataToReq], Fixed(S)),
                t(E, FwdGetM, vec![SendDataToReq], Fixed(I)),
                t(M, Load, vec![], Fixed(M)),
                t(M, Store, vec![], Fixed(M)),
                t(M, Evict, vec![WritebackDirty], Fixed(I)),
                t(M, FwdGetS, vec![SendDataToReq, SendDataToDir], Fixed(S)),
                t(M, FwdGetM, vec![SendDataToReq], Fixed(I)),
            ],
        }
    }

    /// MESIF (Intel x86): MESI plus the Forward state.
    pub fn mesif() -> SspSpec {
        use SspAction::*;
        use SspEvent::*;
        use SspNext::*;
        use StableState::*;
        let mut spec = SspSpec::mesi();
        spec.family = ProtocolFamily::Mesif;
        spec.transitions.extend([
            t(F, Load, vec![], Fixed(F)),
            t(F, Store, vec![IssueGetM], Fixed(M)),
            t(F, Evict, vec![IssuePutClean], Fixed(I)),
            // F supplies data and passes forwarder duty to the requester.
            t(F, FwdGetS, vec![SendDataToReq], Fixed(S)),
            t(F, FwdGetM, vec![SendDataToReq], Fixed(I)),
            t(F, Inv, vec![SendInvAck], Fixed(I)),
        ]);
        spec
    }

    /// MOESI (AMD / Arm-CHI style): MESI plus the Owned state.
    pub fn moesi() -> SspSpec {
        use SspAction::*;
        use SspEvent::*;
        use SspNext::*;
        use StableState::*;
        let mut spec = SspSpec::mesi();
        spec.family = ProtocolFamily::Moesi;
        // Every supplier becomes the owner on Fwd-GetS instead of writing
        // back — clean E included: the directory cannot tell E from a
        // silently upgraded M, so it keeps treating the supplier as owner.
        spec.transitions
            .retain(|tr| !(matches!(tr.from, E | M) && tr.event == FwdGetS));
        spec.transitions.extend([
            t(E, FwdGetS, vec![SendDataToReq], Fixed(O)),
            t(M, FwdGetS, vec![SendDataToReq], Fixed(O)),
            t(O, Load, vec![], Fixed(O)),
            t(O, Store, vec![IssueGetM], Fixed(M)),
            t(O, Evict, vec![WritebackDirty], Fixed(I)),
            t(O, FwdGetS, vec![SendDataToReq], Fixed(O)),
            t(O, FwdGetM, vec![SendDataToReq], Fixed(I)),
        ]);
        spec
    }

    /// RCC — GPU-style release-consistency coherence (§II-C, §IV-D2):
    /// stores complete locally without ownership; dirty lines write through
    /// at release points; clean lines self-invalidate at acquire points.
    /// The directory never invalidates RCC caches eagerly.
    pub fn rcc() -> SspSpec {
        use SspAction::*;
        use SspEvent::*;
        use SspNext::*;
        use StableState::*;
        SspSpec {
            family: ProtocolFamily::Rcc,
            transitions: vec![
                t(I, Load, vec![IssueGetS], Fixed(S)),
                t(I, Store, vec![LocalWrite], Fixed(M)),
                t(I, Evict, vec![], Fixed(I)),
                t(I, Acquire, vec![], Fixed(I)),
                t(I, Release, vec![], Fixed(I)),
                t(S, Load, vec![], Fixed(S)),
                t(S, Store, vec![LocalWrite], Fixed(M)),
                t(S, Evict, vec![], Fixed(I)),   // silent clean drop
                t(S, Acquire, vec![], Fixed(I)), // self-invalidate
                t(S, Release, vec![], Fixed(S)),
                t(M, Load, vec![], Fixed(M)),
                t(M, Store, vec![LocalWrite], Fixed(M)),
                t(M, Evict, vec![WritebackDirty], Fixed(I)),
                t(M, Acquire, vec![], Fixed(M)), // dirty data survives acquire
                t(M, Release, vec![WritebackRetain], Fixed(S)),
            ],
        }
    }

    /// CXL.mem 3.0 as seen by a host (HDM-DB, Table I): MESI-like stable
    /// states with explicit writeback flows and BISnp downgrades.
    pub fn cxl_mem() -> SspSpec {
        use SspAction::*;
        use SspEvent::*;
        use SspNext::*;
        use StableState::*;
        SspSpec {
            family: ProtocolFamily::CxlMem,
            transitions: vec![
                t(I, Load, vec![IssueGetS], FromGrant), // MemRd,S
                t(I, Store, vec![IssueGetM], Fixed(M)), // MemRd,A
                t(I, Evict, vec![], Fixed(I)),
                t(S, Load, vec![], Fixed(S)),
                t(S, Store, vec![IssueGetM], Fixed(M)),
                t(S, Evict, vec![IssuePutClean], Fixed(I)),
                t(S, Inv, vec![SendInvAck], Fixed(I)), // BISnpInv on clean copy
                t(E, Load, vec![], Fixed(E)),
                t(E, Store, vec![], Fixed(M)),
                t(E, Evict, vec![IssuePutClean], Fixed(I)),
                t(E, FwdGetS, vec![SendInvAck], Fixed(S)), // BISnpData, clean: BIRspS
                t(E, FwdGetM, vec![SendInvAck], Fixed(I)), // BISnpInv, clean: BIRspI
                t(E, Inv, vec![SendInvAck], Fixed(I)),
                t(M, Load, vec![], Fixed(M)),
                t(M, Store, vec![], Fixed(M)),
                t(M, Evict, vec![WritebackDirty], Fixed(I)), // MemWr,I
                t(M, FwdGetS, vec![WritebackRetain], Fixed(S)), // BISnpData: MemWr,S
                t(M, FwdGetM, vec![WritebackDirty], Fixed(I)), // BISnpInv: MemWr,I
            ],
        }
    }

    /// Look up a spec by family.
    pub fn for_family(family: ProtocolFamily) -> SspSpec {
        match family {
            ProtocolFamily::Mesi => SspSpec::mesi(),
            ProtocolFamily::Mesif => SspSpec::mesif(),
            ProtocolFamily::Moesi => SspSpec::moesi(),
            ProtocolFamily::Rcc => SspSpec::rcc(),
            ProtocolFamily::CxlMem => SspSpec::cxl_mem(),
        }
    }
}

fn t(from: StableState, event: SspEvent, actions: Vec<SspAction>, to: SspNext) -> SspTransition {
    SspTransition {
        from,
        event,
        actions,
        to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use StableState::*;

    #[test]
    fn all_builtin_specs_validate() {
        for fam in [
            ProtocolFamily::Mesi,
            ProtocolFamily::Mesif,
            ProtocolFamily::Moesi,
            ProtocolFamily::Rcc,
            ProtocolFamily::CxlMem,
        ] {
            let spec = SspSpec::for_family(fam);
            assert_eq!(spec.family, fam);
            if let Err(errs) = spec.validate() {
                panic!("{fam} spec invalid: {errs:?}");
            }
        }
    }

    #[test]
    fn mesi_store_in_s_requests_ownership() {
        let spec = SspSpec::mesi();
        let tr = spec.transition(S, SspEvent::Store).unwrap();
        assert!(tr.actions.contains(&SspAction::IssueGetM));
        assert_eq!(tr.to, SspNext::Fixed(M));
    }

    #[test]
    fn mesi_owner_writes_back_on_fwd_gets_but_moesi_does_not() {
        let mesi = SspSpec::mesi();
        let moesi = SspSpec::moesi();
        let mesi_tr = mesi.transition(M, SspEvent::FwdGetS).unwrap();
        let moesi_tr = moesi.transition(M, SspEvent::FwdGetS).unwrap();
        assert!(mesi_tr.actions.contains(&SspAction::SendDataToDir));
        assert_eq!(mesi_tr.to, SspNext::Fixed(S));
        assert!(!moesi_tr.actions.contains(&SspAction::SendDataToDir));
        assert_eq!(moesi_tr.to, SspNext::Fixed(O));
    }

    #[test]
    fn clean_exclusive_supplier_sends_no_data_to_dir() {
        for spec in [SspSpec::mesi(), SspSpec::mesif()] {
            let tr = spec.transition(E, SspEvent::FwdGetS).unwrap();
            assert_eq!(tr.actions, vec![SspAction::SendDataToReq]);
            assert_eq!(tr.to, SspNext::Fixed(S));
        }
    }

    #[test]
    fn moesi_clean_exclusive_supplier_becomes_owner() {
        let spec = SspSpec::moesi();
        let tr = spec.transition(E, SspEvent::FwdGetS).unwrap();
        assert_eq!(tr.actions, vec![SspAction::SendDataToReq]);
        assert_eq!(tr.to, SspNext::Fixed(O));
    }

    #[test]
    fn exclusive_holders_are_never_invalidated() {
        // The directory forwards to an exclusive holder; it sends `Inv`
        // only to sharers.
        for fam in [
            ProtocolFamily::Mesi,
            ProtocolFamily::Mesif,
            ProtocolFamily::Moesi,
        ] {
            assert!(SspSpec::for_family(fam)
                .transition(E, SspEvent::Inv)
                .is_none());
        }
    }

    #[test]
    fn read_grants_follow_the_rows_and_family() {
        assert_eq!(SspSpec::mesi().read_grants(), vec![S, E]);
        assert_eq!(SspSpec::mesif().read_grants(), vec![S, E, F]);
        assert_eq!(SspSpec::moesi().read_grants(), vec![S, E]);
        assert_eq!(SspSpec::rcc().read_grants(), vec![S]);
        assert_eq!(SspSpec::cxl_mem().read_grants(), vec![S, E]);
    }

    #[test]
    fn only_moesi_suppliers_stay_owner() {
        for fam in [
            ProtocolFamily::Mesi,
            ProtocolFamily::Mesif,
            ProtocolFamily::Moesi,
            ProtocolFamily::Rcc,
            ProtocolFamily::CxlMem,
        ] {
            let stays = SspSpec::for_family(fam).owner_stays_on_fwd_gets();
            assert_eq!(stays, fam == ProtocolFamily::Moesi, "{fam}");
        }
    }

    #[test]
    fn validation_detects_e_and_m_suppliers_disagreeing() {
        // MOESI with only `E x FwdGetS` flipped to S: the directory could
        // not know whether a forwarded E/M line keeps an owner.
        let mut spec = SspSpec::moesi();
        for tr in &mut spec.transitions {
            if (tr.from, tr.event) == (E, SspEvent::FwdGetS) {
                tr.to = SspNext::Fixed(S);
            }
        }
        let errs = spec.validate().unwrap_err();
        assert_eq!(errs, vec![SspError::SupplierDisagrees]);
        // Flipping M as well makes the two agree again.
        for tr in &mut spec.transitions {
            if (tr.from, tr.event) == (M, SspEvent::FwdGetS) {
                tr.to = SspNext::Fixed(S);
            }
        }
        assert_eq!(spec.validate(), Ok(()));
        assert!(!spec.owner_stays_on_fwd_gets());
    }

    #[test]
    fn mesif_grants_f_to_new_readers() {
        let spec = SspSpec::mesif();
        assert_eq!(spec.shared_read_grant(), Grant::F);
        let tr = spec.transition(F, SspEvent::FwdGetS).unwrap();
        assert_eq!(tr.to, SspNext::Fixed(S));
    }

    #[test]
    fn rcc_stores_locally_without_ownership() {
        let spec = SspSpec::rcc();
        let tr = spec.transition(S, SspEvent::Store).unwrap();
        assert!(tr.actions.contains(&SspAction::LocalWrite));
        assert!(!tr.actions.contains(&SspAction::IssueGetM));
        assert!(!spec.family.enforces_swmr());
    }

    #[test]
    fn rcc_sync_points() {
        let spec = SspSpec::rcc();
        // acquire self-invalidates clean lines but keeps dirty ones
        assert_eq!(
            spec.transition(S, SspEvent::Acquire).unwrap().to,
            SspNext::Fixed(I)
        );
        assert_eq!(
            spec.transition(M, SspEvent::Acquire).unwrap().to,
            SspNext::Fixed(M)
        );
        // release writes dirty lines through
        let rel = spec.transition(M, SspEvent::Release).unwrap();
        assert!(rel.actions.contains(&SspAction::WritebackRetain));
        assert_eq!(rel.to, SspNext::Fixed(S));
    }

    #[test]
    fn cxl_dirty_snoop_flows_are_writebacks() {
        // Fig. 2 / Fig. 3: CXL expects a CXL WB from a dirty host, unlike
        // MOESI's in-place downgrade — the semantic gap C³ bridges.
        let spec = SspSpec::cxl_mem();
        let snoop_data = spec.transition(M, SspEvent::FwdGetS).unwrap();
        assert!(snoop_data.actions.contains(&SspAction::WritebackRetain));
        let snoop_inv = spec.transition(M, SspEvent::FwdGetM).unwrap();
        assert!(snoop_inv.actions.contains(&SspAction::WritebackDirty));
    }

    #[test]
    fn validation_detects_ambiguity() {
        let mut spec = SspSpec::mesi();
        let dup = spec.transitions[0].clone();
        spec.transitions.push(dup);
        let errs = spec.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, SspError::Ambiguous(_, _))));
    }

    #[test]
    fn validation_detects_foreign_state() {
        let mut spec = SspSpec::mesi();
        spec.transitions.push(SspTransition {
            from: O, // not a MESI state
            event: SspEvent::Load,
            actions: vec![],
            to: SspNext::Fixed(O),
        });
        let errs = spec.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, SspError::ForeignState(O))));
    }

    #[test]
    fn validation_detects_silent_ownership() {
        let mut spec = SspSpec::mesi();
        // Make S --Store--> M silent (drop the GetM).
        for tr in &mut spec.transitions {
            if tr.from == S && tr.event == SspEvent::Store {
                tr.actions.clear();
            }
        }
        let errs = spec.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SspError::SilentOwnership(S))));
    }

    #[test]
    fn validation_detects_missing_core_rows() {
        let mut spec = SspSpec::mesi();
        spec.transitions
            .retain(|tr| !(tr.from == E && tr.event == SspEvent::Load));
        let errs = spec.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, SspError::IncompleteCore(E, SspEvent::Load))));
    }

    #[test]
    fn error_display() {
        let e = SspError::Ambiguous(S, SspEvent::Load);
        assert!(e.to_string().contains("ambiguous"));
    }
}
