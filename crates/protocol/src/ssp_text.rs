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
//! policy exclusive_grant_when_unshared = true
//! policy gets_grant_with_sharers      = S
//! policy owner_after_fwd_gets         = O
//! policy owner_writes_back_on_fwd_gets = false
//! policy eager_invalidation           = true
//!
//! # from  event    actions            -> next
//! I  Load     GetS               -> grant
//! I  Store    GetM               -> M
//! M  FwdGetS  DataToReq          -> O
//! ...
//! ```
//!
//! Comments start with `#`; blank lines are ignored. `grant` as the next
//! state means "determined by the directory's grant".

use std::fmt::Write as _;

use crate::msg::Grant;
use crate::ssp::{DirPolicy, SspAction, SspEvent, SspNext, SspSpec, SspTransition};
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

fn parse_state(tok: &str, line: usize) -> Result<StableState, ParseError> {
    Ok(match tok {
        "I" => StableState::I,
        "S" => StableState::S,
        "E" => StableState::E,
        "O" => StableState::O,
        "F" => StableState::F,
        "M" => StableState::M,
        other => return Err(err(line, format!("unknown state '{other}'"))),
    })
}

fn parse_event(tok: &str, line: usize) -> Result<SspEvent, ParseError> {
    Ok(match tok {
        "Load" => SspEvent::Load,
        "Store" => SspEvent::Store,
        "Evict" => SspEvent::Evict,
        "FwdGetS" => SspEvent::FwdGetS,
        "FwdGetM" => SspEvent::FwdGetM,
        "Inv" => SspEvent::Inv,
        "Acquire" => SspEvent::Acquire,
        "Release" => SspEvent::Release,
        other => return Err(err(line, format!("unknown event '{other}'"))),
    })
}

fn action_name(a: SspAction) -> &'static str {
    match a {
        SspAction::IssueGetS => "GetS",
        SspAction::IssueGetM => "GetM",
        SspAction::IssuePutClean => "PutClean",
        SspAction::WritebackDirty => "WbDirty",
        SspAction::WritebackRetain => "WbRetain",
        SspAction::SendDataToReq => "DataToReq",
        SspAction::SendDataToDir => "DataToDir",
        SspAction::SendInvAck => "InvAck",
        SspAction::LocalWrite => "LocalWrite",
    }
}

fn parse_action(tok: &str, line: usize) -> Result<SspAction, ParseError> {
    Ok(match tok {
        "GetS" => SspAction::IssueGetS,
        "GetM" => SspAction::IssueGetM,
        "PutClean" => SspAction::IssuePutClean,
        "WbDirty" => SspAction::WritebackDirty,
        "WbRetain" => SspAction::WritebackRetain,
        "DataToReq" => SspAction::SendDataToReq,
        "DataToDir" => SspAction::SendDataToDir,
        "InvAck" => SspAction::SendInvAck,
        "LocalWrite" => SspAction::LocalWrite,
        other => return Err(err(line, format!("unknown action '{other}'"))),
    })
}

fn grant_name(g: Grant) -> &'static str {
    match g {
        Grant::S => "S",
        Grant::E => "E",
        Grant::M => "M",
        Grant::F => "F",
    }
}

fn parse_grant(tok: &str, line: usize) -> Result<Grant, ParseError> {
    Ok(match tok {
        "S" => Grant::S,
        "E" => Grant::E,
        "M" => Grant::M,
        "F" => Grant::F,
        other => return Err(err(line, format!("unknown grant '{other}'"))),
    })
}

/// Serialize a spec to the textual format.
pub fn to_text(spec: &SspSpec) -> String {
    let mut out = String::new();
    writeln!(out, "protocol {}", spec.family.label()).unwrap();
    writeln!(
        out,
        "policy exclusive_grant_when_unshared = {}",
        spec.dir.exclusive_grant_when_unshared
    )
    .unwrap();
    writeln!(
        out,
        "policy gets_grant_with_sharers = {}",
        grant_name(spec.dir.gets_grant_with_sharers)
    )
    .unwrap();
    writeln!(
        out,
        "policy owner_after_fwd_gets = {}",
        spec.dir.owner_after_fwd_gets.name()
    )
    .unwrap();
    writeln!(
        out,
        "policy owner_writes_back_on_fwd_gets = {}",
        spec.dir.owner_writes_back_on_fwd_gets
    )
    .unwrap();
    writeln!(
        out,
        "policy eager_invalidation = {}",
        spec.dir.eager_invalidation
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "# from  event  actions  -> next").unwrap();
    for t in &spec.transitions {
        let actions = if t.actions.is_empty() {
            "-".to_string()
        } else {
            t.actions
                .iter()
                .map(|a| action_name(*a))
                .collect::<Vec<_>>()
                .join(",")
        };
        let next = match t.to {
            SspNext::Fixed(s) => s.name().to_string(),
            SspNext::FromGrant => "grant".to_string(),
        };
        writeln!(
            out,
            "{} {} {} -> {}",
            t.from.name(),
            t.event.name(),
            actions,
            next
        )
        .unwrap();
    }
    out
}

/// Parse a spec from the textual format.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line. The parsed
/// spec is additionally validated with [`SspSpec::validate`].
pub fn from_text(text: &str) -> Result<SspSpec, ParseError> {
    let mut family: Option<ProtocolFamily> = None;
    let mut dir = DirPolicy {
        exclusive_grant_when_unshared: true,
        gets_grant_with_sharers: Grant::S,
        owner_after_fwd_gets: StableState::S,
        owner_writes_back_on_fwd_gets: true,
        eager_invalidation: true,
    };
    let mut transitions: Vec<SspTransition> = Vec::new();

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
                family = Some(match name.to_uppercase().as_str() {
                    "MESI" => ProtocolFamily::Mesi,
                    "MESIF" => ProtocolFamily::Mesif,
                    "MOESI" => ProtocolFamily::Moesi,
                    "RCC" => ProtocolFamily::Rcc,
                    "CXL" | "CXLMEM" | "CXL.MEM" => ProtocolFamily::CxlMem,
                    other => return Err(err(lineno, format!("unknown protocol '{other}'"))),
                });
            }
            "policy" => {
                // policy <name> = <value>
                if toks.len() < 4 || toks[2] != "=" {
                    return Err(err(lineno, "expected 'policy <name> = <value>'"));
                }
                let value = toks[3];
                match toks[1] {
                    "exclusive_grant_when_unshared" => {
                        dir.exclusive_grant_when_unshared = parse_bool(value, lineno)?
                    }
                    "gets_grant_with_sharers" => {
                        dir.gets_grant_with_sharers = parse_grant(value, lineno)?
                    }
                    "owner_after_fwd_gets" => {
                        dir.owner_after_fwd_gets = parse_state(value, lineno)?
                    }
                    "owner_writes_back_on_fwd_gets" => {
                        dir.owner_writes_back_on_fwd_gets = parse_bool(value, lineno)?
                    }
                    "eager_invalidation" => dir.eager_invalidation = parse_bool(value, lineno)?,
                    other => return Err(err(lineno, format!("unknown policy '{other}'"))),
                }
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
                let event = parse_event(toks[1], lineno)?;
                let actions = if toks[2] == "-" {
                    Vec::new()
                } else {
                    toks[2]
                        .split(',')
                        .map(|a| parse_action(a, lineno))
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
            }
        }
    }

    let family = family.ok_or_else(|| err(0, "missing 'protocol' header"))?;
    let spec = SspSpec {
        family,
        transitions,
        dir,
    };
    if let Err(errors) = spec.validate() {
        return Err(err(0, format!("spec fails validation: {errors:?}")));
    }
    Ok(spec)
}

fn parse_bool(tok: &str, line: usize) -> Result<bool, ParseError> {
    match tok {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(err(line, format!("expected true/false, got '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_equal(a: &SspSpec, b: &SspSpec) {
        assert_eq!(a.family, b.family);
        assert_eq!(a.dir, b.dir);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn roundtrip_all_builtin_specs() {
        for fam in [
            ProtocolFamily::Mesi,
            ProtocolFamily::Mesif,
            ProtocolFamily::Moesi,
            ProtocolFamily::Rcc,
            ProtocolFamily::CxlMem,
        ] {
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
