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
//! 4. indexes the rows by `(incoming, host class, CXL state)`, so the
//!    runtime bridge reads every stable-state decision — the recall to
//!    make, the snoop answer, the next CXL state — from one lookup
//!    ([`CompoundFsm::row`]).
//!
//! Every decision is *derived from the input specs* — the generator never
//! hardcodes per-protocol behaviour beyond the spec tables, which is what
//! makes C³ generic over host protocols.

use std::fmt;

use c3_protocol::ssp::{SspAction, SspEvent, SspNext, SspSpec};
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

/// How a snoop row answers the global directory once the line's data is
/// known: after a nested host recall the returned data, not the compound
/// state, decides which half applies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SnoopAnswer {
    /// Clean data: `BIRspI` or `BIRspS`, naming the state the line keeps.
    /// A dirty answer sends it too, once its writeback completes.
    pub clean: SnoopResponse,
    /// Dirty data: the `MemWr` the global spec writes a modified line
    /// back with for the equivalent event.
    pub dirty: SnoopResponse,
}

impl SnoopAnswer {
    /// The response for clean or dirty data.
    pub fn get(self, dirty: bool) -> SnoopResponse {
        if dirty {
            self.dirty
        } else {
            self.clean
        }
    }
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
    /// Snoop rows: the answer to the global directory.
    pub answer: Option<SnoopAnswer>,
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
            index: [None; ROW_KEYS],
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
        fsm.reindex();
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
    rows: Vec<TranslationRow>,
    /// Position in `rows` of each `(incoming, host, cxl)` row.
    index: [Option<u16>; ROW_KEYS],
}

/// Row keys: 5 incoming classes × 4 host classes × 6 stable states.
const ROW_KEYS: usize = 5 * 4 * StableState::ALL.len();

fn row_key(incoming: Incoming, host: HostClass, cxl: StableState) -> usize {
    (incoming as usize * 4 + host as usize) * StableState::ALL.len() + cxl as usize
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

    /// The two snoop rows of `s`. Rule I delegates a snoop into the host
    /// domain when host copies are affected; Rule II is the runtime's,
    /// which nests the recall before it answers.
    fn push_snoop_rows(&mut self, s: CompoundState) {
        for snoop in [Incoming::BiSnpInv, Incoming::BiSnpData] {
            let exclusive = snoop == Incoming::BiSnpInv;
            let x_access = if !self.host_family.enforces_swmr() {
                // RCC hosts self-invalidate; C³ answers directly (§IV-D2).
                None
            } else if exclusive && s.host.any() {
                Some(XAccess::Store)
            } else if !exclusive && s.host.maybe_dirty() {
                Some(XAccess::Load)
            } else {
                None
            };
            // The CXL state follows the global spec's native transition
            // for the equivalent event. A line the spec does not move — a
            // non-holder, or a sharer under a data snoop — keeps its state
            // and answers clean.
            let event = if exclusive {
                SspEvent::FwdGetM
            } else {
                SspEvent::FwdGetS
            };
            let tr = self.global.transition(s.cxl, event).or_else(|| {
                exclusive
                    .then(|| self.global.transition(s.cxl, SspEvent::Inv))
                    .flatten()
            });
            let next_cxl = tr.map_or(s.cxl, |t| match t.to {
                SspNext::Fixed(to) => to,
                SspNext::FromGrant => StableState::I,
            });
            let retains = self
                .global
                .transition(StableState::M, event)
                .expect("global spec handles dirty snoops")
                .actions
                .contains(&SspAction::WritebackRetain);
            let answer = SnoopAnswer {
                clean: if next_cxl == StableState::I {
                    SnoopResponse::BiRspI
                } else {
                    SnoopResponse::BiRspS
                },
                dirty: if retains {
                    SnoopResponse::MemWrS
                } else {
                    SnoopResponse::MemWrI
                },
            };
            let resp = answer.get(s.maybe_dirty());
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
            let action = match x_access {
                Some(XAccess::Store) => format!("Fwd-GetM to Host $; then {resp}"),
                Some(XAccess::Load) => format!("Fwd-GetS to Host $; then {resp}"),
                None => format!("{resp} to CXL Dir"),
            };
            let transient = match x_access {
                Some(XAccess::Store) => "MI^A, MI^A".to_string(),
                Some(XAccess::Load) => "MS^AD, MS^AD".to_string(),
                None => "-".to_string(),
            };
            self.rows.push(TranslationRow {
                incoming: snoop,
                state: s,
                x_access,
                action,
                transient,
                next: CompoundState {
                    host: next_host,
                    cxl: next_cxl,
                },
                answer: Some(answer),
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
                answer: None,
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
            answer: None,
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

    /// The translation row for `incoming` in the compound state
    /// `(host, cxl)`, if that state is consistent.
    pub fn row(
        &self,
        incoming: Incoming,
        host: HostClass,
        cxl: StableState,
    ) -> Option<&TranslationRow> {
        let i = self.index[row_key(incoming, host, cxl)]?;
        Some(&self.rows[usize::from(i)])
    }

    /// The generated translation table, in generation order.
    pub fn rows(&self) -> &[TranslationRow] {
        &self.rows
    }

    /// Edit the translation table in place (the checker's tests seed
    /// defects this way); the row index is rebuilt afterwards.
    pub fn edit_rows(&mut self, edit: impl FnOnce(&mut Vec<TranslationRow>)) {
        edit(&mut self.rows);
        self.reindex();
    }

    fn reindex(&mut self) {
        self.index = [None; ROW_KEYS];
        for (i, r) in self.rows.iter().enumerate() {
            let key = row_key(r.incoming, r.state.host, r.state.cxl);
            let i = u16::try_from(i).expect("row count fits u16");
            self.index[key].get_or_insert(i);
        }
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
            assert!(!fsm.rows().is_empty(), "{fam}");
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
    fn snoop_answers_derive_from_cxl_spec() {
        use SnoopResponse::{BiRspI, BiRspS, MemWrI, MemWrS};
        let fsm = bridge_fsm(ProtocolFamily::Mesi);
        let answer = |snoop, cxl| {
            let r = fsm.row(snoop, HostClass::None, cxl).expect("row exists");
            (r.answer.expect("snoop rows answer"), r.next.cxl)
        };
        let (inv, data) = (Incoming::BiSnpInv, Incoming::BiSnpData);
        let answers = [
            (inv, StableState::M, BiRspI, MemWrI, StableState::I),
            (data, StableState::M, BiRspS, MemWrS, StableState::S),
            (inv, StableState::S, BiRspI, MemWrI, StableState::I),
            // A data snoop leaves a sharer shared, and a snoop miss on an
            // invalid line answers BIRspI whatever it asked for.
            (data, StableState::S, BiRspS, MemWrS, StableState::S),
            (inv, StableState::I, BiRspI, MemWrI, StableState::I),
            (data, StableState::I, BiRspI, MemWrS, StableState::I),
        ];
        for (snoop, cxl, clean, dirty, next) in answers {
            let want = (SnoopAnswer { clean, dirty }, next);
            assert_eq!(answer(snoop, cxl), want, "{snoop} in {cxl}");
        }
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
        for snoop in [Incoming::BiSnpInv, Incoming::BiSnpData] {
            for r in fsm.rows().iter().filter(|r| r.incoming == snoop) {
                assert_eq!(r.x_access, None, "{snoop} in {}", r.state);
            }
        }
        let r = fsm
            .row(Incoming::BiSnpInv, HostClass::None, StableState::M)
            .expect("row");
        assert_eq!(r.next.cxl, StableState::I);
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
                for r in fsm.rows() {
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
