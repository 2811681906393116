//! Coherence stable states and protocol families.
//!
//! All the protocols the paper combines — MESI, MESIF, MOESI (hosts),
//! RCC (GPU-style release-consistency coherence) and CXL.mem — share the
//! MOESIF stable-state alphabet; each family uses a subset (§II-C).

use std::fmt;

/// A stable coherence state (MOESIF alphabet).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StableState {
    /// Invalid — no copy.
    I,
    /// Shared — read-only copy, clean.
    S,
    /// Exclusive — only copy, clean; may silently upgrade to M.
    E,
    /// Owned — dirty copy, other sharers may exist; owner supplies data.
    O,
    /// Forward — clean copy designated to respond to requests (MESIF).
    F,
    /// Modified — only copy, dirty.
    M,
}

impl StableState {
    /// All states, in increasing order of privilege.
    pub const ALL: [StableState; 6] = [
        StableState::I,
        StableState::S,
        StableState::E,
        StableState::O,
        StableState::F,
        StableState::M,
    ];

    /// Read permission?
    pub fn can_read(self) -> bool {
        self != StableState::I
    }

    /// Write permission? (E may silently transition to M.)
    pub fn can_write(self) -> bool {
        matches!(self, StableState::M | StableState::E)
    }

    /// Does this state hold data that memory does not (must write back)?
    pub fn is_dirty(self) -> bool {
        matches!(self, StableState::M | StableState::O)
    }

    /// Is this state responsible for supplying data to requestors?
    pub fn supplies_data(self) -> bool {
        matches!(
            self,
            StableState::M | StableState::O | StableState::E | StableState::F
        )
    }

    /// One-letter name, as a string (the state's name in SSP text and
    /// transition tables).
    pub fn name(self) -> &'static str {
        match self {
            StableState::I => "I",
            StableState::S => "S",
            StableState::E => "E",
            StableState::O => "O",
            StableState::F => "F",
            StableState::M => "M",
        }
    }
}

impl fmt::Display for StableState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The coherence protocol families the paper evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolFamily {
    /// Plain MESI (Intel-style without F; the paper's default host protocol).
    Mesi,
    /// MESIF — MESI plus the Forward state (Intel x86 CPUs).
    Mesif,
    /// MOESI — MESI plus the Owned state (AMD / Arm CHI-style CPUs).
    Moesi,
    /// Release Consistency Coherence — GPU-style self-invalidation
    /// protocol; no sharer invalidation on writes (§II-C, §IV-D2).
    Rcc,
    /// The CXL.mem 3.0 host-state protocol tracked by the device coherency
    /// engine (MESI-like stable states, Table I).
    CxlMem,
}

impl ProtocolFamily {
    /// The stable states this family uses.
    pub fn states(self) -> &'static [StableState] {
        use StableState::*;
        match self {
            ProtocolFamily::Mesi | ProtocolFamily::CxlMem => &[I, S, E, M],
            ProtocolFamily::Mesif => &[I, S, E, F, M],
            ProtocolFamily::Moesi => &[I, S, E, O, M],
            // RCC caches are either invalid, valid-clean (S) or valid-dirty
            // (M); there is no exclusivity because writers do not
            // invalidate sharers.
            ProtocolFamily::Rcc => &[I, S, M],
        }
    }

    /// Whether this family enforces the Single-Writer-Multiple-Reader
    /// invariant through eager sharer invalidation (all MESI descendants
    /// do; RCC relies on self-invalidation instead — §II-C).
    pub fn enforces_swmr(self) -> bool {
        !matches!(self, ProtocolFamily::Rcc)
    }

    /// Name as it appears in the paper's protocol-combination labels.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolFamily::Mesi => "MESI",
            ProtocolFamily::Mesif => "MESIF",
            ProtocolFamily::Moesi => "MOESI",
            ProtocolFamily::Rcc => "RCC",
            ProtocolFamily::CxlMem => "CXL",
        }
    }

    /// Does this family include the given stable state?
    pub fn has_state(self, s: StableState) -> bool {
        self.states().contains(&s)
    }
}

impl fmt::Display for ProtocolFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use StableState::*;

    #[test]
    fn permissions() {
        assert!(!I.can_read());
        assert!(S.can_read() && !S.can_write());
        assert!(E.can_read() && E.can_write() && !E.is_dirty());
        assert!(M.can_write() && M.is_dirty());
        assert!(O.can_read() && !O.can_write() && O.is_dirty());
        assert!(F.can_read() && !F.can_write() && !F.is_dirty());
    }

    #[test]
    fn suppliers() {
        assert!(M.supplies_data() && O.supplies_data() && F.supplies_data() && E.supplies_data());
        assert!(!S.supplies_data() && !I.supplies_data());
    }

    #[test]
    fn family_state_sets() {
        assert!(ProtocolFamily::Mesi.has_state(E));
        assert!(!ProtocolFamily::Mesi.has_state(O));
        assert!(!ProtocolFamily::Mesi.has_state(F));
        assert!(ProtocolFamily::Moesi.has_state(O));
        assert!(ProtocolFamily::Mesif.has_state(F));
        assert!(!ProtocolFamily::Rcc.has_state(E));
        assert_eq!(ProtocolFamily::CxlMem.states().len(), 4);
    }

    #[test]
    fn swmr_families() {
        assert!(ProtocolFamily::Mesi.enforces_swmr());
        assert!(ProtocolFamily::Moesi.enforces_swmr());
        assert!(ProtocolFamily::Mesif.enforces_swmr());
        assert!(ProtocolFamily::CxlMem.enforces_swmr());
        assert!(!ProtocolFamily::Rcc.enforces_swmr());
    }

    #[test]
    fn display() {
        assert_eq!(M.to_string(), "M");
        assert_eq!(ProtocolFamily::Mesif.to_string(), "MESIF");
    }
}
