//! Textual format for stable-state protocol specifications.
//!
//! The paper's generator consumes "machine-readable stable state protocol
//! (SSP) specifications" (§V, citing Progen). This module provides the
//! equivalent interchange format: a small line-oriented DSL that
//! serializes [`crate::ssp::SspSpec`] losslessly, so protocol tables can
//! be reviewed, diffed and supplied by users without recompiling.
//!
//! # Format
//!
//! ```text
//! protocol MOESI
//!
//! # from  event    actions            -> next
//! I  Load     GetS               -> grant
//! I  Store    GetM               -> M
//! M  FwdGetS  DataToReq          -> O
//! ...
//! ```
//!
//! Comments start with `#`; blank lines are ignored. `grant` as the next
//! state means "determined by the directory's grant". The format has no
//! directory settings: what the directory grants and records follows from
//! the rows and the family (`M FwdGetS DataToReq -> O` above is what makes
//! a MOESI directory keep its suppliers as owners).

use std::fmt::Write as _;

use crate::ssp::{SspAction, SspError, SspEvent, SspNext, SspSpec, SspTransition};
use crate::states::{ProtocolFamily, StableState};

/// Parse error with line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Each action with its name in the text.
const ACTIONS: [(SspAction, &str); 9] = [
    (SspAction::IssueGetS, "GetS"),
    (SspAction::IssueGetM, "GetM"),
    (SspAction::IssuePutClean, "PutClean"),
    (SspAction::WritebackDirty, "WbDirty"),
    (SspAction::WritebackRetain, "WbRetain"),
    (SspAction::SendDataToReq, "DataToReq"),
    (SspAction::SendDataToDir, "DataToDir"),
    (SspAction::SendInvAck, "InvAck"),
    (SspAction::LocalWrite, "LocalWrite"),
];

/// The item of `named` called `tok`, or an error calling it an unknown
/// `what`.
fn parse<T>(
    named: impl IntoIterator<Item = (T, &'static str)>,
    what: &str,
    tok: &str,
    line: usize,
) -> Result<T, ParseError> {
    let found = named.into_iter().find(|(_, name)| *name == tok);
    found
        .map(|(item, _)| item)
        .ok_or_else(|| err(line, format!("unknown {what} '{tok}'")))
}

fn parse_state(tok: &str, line: usize) -> Result<StableState, ParseError> {
    parse(StableState::ALL.map(|s| (s, s.name())), "state", tok, line)
}

/// Serialize a spec to the textual format.
pub fn to_text(spec: &SspSpec) -> String {
    let mut out = format!(
        "protocol {}\n\n# from  event  actions  -> next\n",
        spec.family
    );
    let name = |a: &SspAction| {
        ACTIONS
            .iter()
            .find(|(x, _)| x == a)
            .map_or("?", |(_, n)| *n)
    };
    for t in &spec.transitions {
        let actions = t.actions.iter().map(name).collect::<Vec<_>>().join(",");
        let actions = if actions.is_empty() { "-" } else { &actions };
        let next = match t.to {
            SspNext::Fixed(s) => s.name(),
            SspNext::FromGrant => "grant",
        };
        writeln!(out, "{} {} {actions} -> {next}", t.from, t.event.name()).unwrap();
    }
    out
}

/// Parse a spec from the textual format.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line (1-based). The
/// parsed spec is additionally validated with [`SspSpec::validate`]; a
/// failure points at the first transition it names, or at the `protocol`
/// header when it names none (a missing row). A text without a header
/// fails at line 1.
pub fn from_text(text: &str) -> Result<SspSpec, ParseError> {
    let mut family: Option<(ProtocolFamily, usize)> = None;
    let mut transitions: Vec<SspTransition> = Vec::new();
    let mut lines: Vec<usize> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "protocol" => {
                let name = toks
                    .get(1)
                    .ok_or_else(|| err(lineno, "missing protocol name"))?;
                let fam = match name.to_uppercase().as_str() {
                    "MESI" => ProtocolFamily::Mesi,
                    "MESIF" => ProtocolFamily::Mesif,
                    "MOESI" => ProtocolFamily::Moesi,
                    "RCC" => ProtocolFamily::Rcc,
                    "CXL" | "CXLMEM" | "CXL.MEM" => ProtocolFamily::CxlMem,
                    other => return Err(err(lineno, format!("unknown protocol '{other}'"))),
                };
                family = Some((fam, lineno));
            }
            "policy" => {
                return Err(err(
                    lineno,
                    "'policy' lines are not accepted: the directory's behaviour \
                     follows from the transition rows",
                ));
            }
            _ => {
                // transition: <from> <event> <actions> -> <next>
                if toks.len() != 5 || toks[3] != "->" {
                    return Err(err(
                        lineno,
                        "expected '<state> <event> <actions> -> <next>'",
                    ));
                }
                let from = parse_state(toks[0], lineno)?;
                let events = SspEvent::ALL.map(|e| (e, e.name()));
                let event = parse(events, "event", toks[1], lineno)?;
                let actions = if toks[2] == "-" {
                    Vec::new()
                } else {
                    toks[2]
                        .split(',')
                        .map(|a| parse(ACTIONS, "action", a, lineno))
                        .collect::<Result<Vec<_>, _>>()?
                };
                let to = if toks[4] == "grant" {
                    SspNext::FromGrant
                } else {
                    SspNext::Fixed(parse_state(toks[4], lineno)?)
                };
                transitions.push(SspTransition {
                    from,
                    event,
                    actions,
                    to,
                });
                lines.push(lineno);
            }
        }
    }

    let (family, header) = family.ok_or_else(|| err(1, "missing 'protocol' header"))?;
    let spec = SspSpec {
        family,
        transitions,
    };
    if let Err(errors) = spec.validate() {
        let line = errors
            .iter()
            .map(|e| offending_row(&spec, e).map_or(header, |i| lines[i]))
            .min()
            .unwrap_or(header);
        return Err(err(line, format!("spec fails validation: {errors:?}")));
    }
    Ok(spec)
}

/// The index of the transition a validation error names, if any: the
/// second of two ambiguous rows, the first row naming a foreign state,
/// the silent store, or the later of two disagreeing suppliers. A missing
/// row names none.
fn offending_row(spec: &SspSpec, e: &SspError) -> Option<usize> {
    let rows = &spec.transitions;
    let at = |from: StableState, event: SspEvent| {
        rows.iter()
            .enumerate()
            .filter(move |(_, t)| t.from == from && t.event == event)
            .map(|(i, _)| i)
    };
    match *e {
        SspError::Ambiguous(from, event) => at(from, event).nth(1),
        SspError::ForeignState(s) => rows
            .iter()
            .position(|t| t.from == s || t.to == SspNext::Fixed(s)),
        SspError::IncompleteCore(..) => None,
        SspError::SilentOwnership(from) => at(from, SspEvent::Store).next(),
        SspError::SupplierDisagrees => at(StableState::E, SspEvent::FwdGetS)
            .chain(at(StableState::M, SspEvent::FwdGetS))
            .max(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use c3_sim::rng::SimRng;

    const FAMILIES: [ProtocolFamily; 5] = [
        ProtocolFamily::Mesi,
        ProtocolFamily::Mesif,
        ProtocolFamily::Moesi,
        ProtocolFamily::Rcc,
        ProtocolFamily::CxlMem,
    ];

    fn spec_equal(a: &SspSpec, b: &SspSpec) {
        assert_eq!(a.family, b.family);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn roundtrip_all_builtin_specs() {
        for fam in FAMILIES {
            let spec = SspSpec::for_family(fam);
            let text = to_text(&spec);
            let parsed = from_text(&text).unwrap_or_else(|e| panic!("{fam}: {e}"));
            spec_equal(&spec, &parsed);
        }
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "\
# a MESI fragment is not enough to validate, so use the full serialization
protocol MESI

# policies below
";
        // Incomplete spec: must fail validation, not parsing.
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("validation"), "{e}");
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = from_text("protocol MESI\nI Wibble - -> I\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("Wibble"));
        let e = from_text("protocol NOPE\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_malformed_rows() {
        let e = from_text("protocol MESI\nI Load GetS\n").unwrap_err();
        assert!(e.message.contains("expected"));
        let e = from_text("protocol MESI\npolicy eager_invalidation true\n").unwrap_err();
        assert!(e.message.contains("policy"));
    }

    #[test]
    fn policy_lines_are_rejected_at_their_line() {
        let text =
            to_text(&SspSpec::moesi()).replacen("\n", "\npolicy owner_after_fwd_gets = O\n", 1);
        let e = from_text(&text).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("policy"), "{e}");
    }

    #[test]
    fn every_error_names_a_line() {
        // No header: line 1.
        let e = from_text("I Load GetS -> grant\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert_eq!(from_text("").unwrap_err().line, 1);
        // A missing row names no transition: the header's line.
        let e = from_text("# MESI, almost\n\nprotocol MESI\nI Load GetS -> grant\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        // A duplicate row: the second occurrence.
        let text = to_text(&SspSpec::mesi());
        let dup = text.lines().find(|l| l.starts_with("S Load")).unwrap();
        let text = format!("{text}{dup}\n");
        let e = from_text(&text).unwrap_err();
        assert_eq!(e.line, text.lines().count(), "{e}");
        // E and M suppliers that disagree: the later of the two rows.
        let text = to_text(&SspSpec::moesi())
            .replace("E FwdGetS DataToReq -> O", "E FwdGetS DataToReq -> S");
        let e = from_text(&text).unwrap_err();
        let m = 1 + text
            .lines()
            .position(|l| l.starts_with("M FwdGetS"))
            .unwrap();
        let e_row = 1 + text
            .lines()
            .position(|l| l.starts_with("E FwdGetS"))
            .unwrap();
        assert_eq!(e.line, m.max(e_row), "{e}");
        assert!(e.message.contains("SupplierDisagrees"), "{e}");
    }

    /// The rows alone decide what the directory grants and records, so a
    /// parsed spec has its family's directory behaviour.
    #[test]
    fn rows_alone_decide_the_directory_facts() {
        for fam in FAMILIES {
            let builtin = SspSpec::for_family(fam);
            let parsed = from_text(&to_text(&builtin)).unwrap();
            assert_eq!(parsed.read_grants(), builtin.read_grants(), "{fam}");
            assert_eq!(
                parsed.owner_stays_on_fwd_gets(),
                builtin.owner_stays_on_fwd_gets(),
                "{fam}"
            );
        }
        // MOESI: the directory keeps suppliers as owners.
        let moesi = from_text(&to_text(&SspSpec::moesi())).unwrap();
        assert!(moesi.owner_stays_on_fwd_gets());
        // RCC: local stores validate; RCC does not invalidate eagerly.
        let rcc = from_text(&to_text(&SspSpec::rcc())).unwrap();
        assert_eq!(rcc.validate(), Ok(()));
        assert!(!rcc.family.enforces_swmr());
    }

    /// Seeded mutations of every family's text — dropped, duplicated and
    /// swapped tokens, truncated lines, unknown words — never panic the
    /// parser, and every rejection names a real line.
    #[test]
    fn mutated_texts_fail_with_a_line() {
        const WORDS: [&str; 8] = ["policy", "Wibble", "->", "-", "grant", "protocol", "#", "="];
        let mut rng = SimRng::seed_from(0x55_70_7e_47);
        let mut rejected = 0;
        for round in 0..2_000 {
            let fam = FAMILIES[round % FAMILIES.len()];
            let mut lines: Vec<Vec<String>> = to_text(&SspSpec::for_family(fam))
                .lines()
                .map(|l| l.split_whitespace().map(str::to_string).collect())
                .collect();
            for _ in 0..1 + rng.below(3) {
                let li = rng.below(lines.len() as u64) as usize;
                let toks = &mut lines[li];
                let ti = rng.below(toks.len().max(1) as u64) as usize;
                match rng.below(6) {
                    0 if !toks.is_empty() => {
                        toks.remove(ti);
                    }
                    1 if !toks.is_empty() => {
                        let t = toks[ti].clone();
                        toks.insert(ti, t);
                    }
                    2 if toks.len() > 1 => {
                        let tj = rng.below(toks.len() as u64) as usize;
                        toks.swap(ti, tj);
                    }
                    3 => toks.truncate(ti),
                    4 => {
                        let w = WORDS[rng.below(WORDS.len() as u64) as usize];
                        toks.insert(ti.min(toks.len()), w.to_string());
                    }
                    _ => {
                        lines.remove(li);
                    }
                }
            }
            let text: Vec<String> = lines.iter().map(|t| t.join(" ")).collect();
            let text = text.join("\n");
            let n = text.lines().count().max(1);
            if let Err(e) = from_text(&text) {
                rejected += 1;
                assert!((1..=n).contains(&e.line), "{e} for\n{text}");
            }
        }
        assert!(rejected > 1_000, "only {rejected} mutants rejected");
    }

    #[test]
    fn custom_spec_feeds_the_generator() {
        // Round-trip MESI through text and hand it to the generator.
        let text = to_text(&SspSpec::mesi());
        let spec = from_text(&text).expect("parse");
        let fsm = crate::ssp::SspSpec::cxl_mem();
        let gen = c3_generator_smoke(spec, fsm);
        assert!(gen);
    }

    // The generator lives in the `c3` crate; keep a type-level smoke check
    // here (real integration lives in crates/core tests).
    fn c3_generator_smoke(a: SspSpec, b: SspSpec) -> bool {
        a.validate().is_ok() && b.validate().is_ok()
    }
}
