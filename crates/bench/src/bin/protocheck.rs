//! `protocheck` — offline static analysis of the concrete controllers'
//! transition tables.
//!
//! Builds the declarative [`TransitionTable`]s exported by the L1
//! (`c3-memsys::l1`), the host directory engine (`c3-memsys::direngine`),
//! the C³ bridge (`c3::bridge`) and the DCOH (`c3-cxl::dcoh`) for every
//! host protocol family, and runs the
//! `c3-verif::static_checks` suite over them: validation, completeness,
//! reachability, forbidden states, response-sink, Rule-II discipline and
//! cross-controller static deadlock analysis. The generated compound
//! FSMs are checked with `c3-verif::fsm_checks` alongside.
//!
//! Prints every defect with its row provenance and exits nonzero if any
//! is found — CI runs it next to the chaos and perf-smoke jobs.
//!
//! ```text
//! cargo run --release --bin protocheck
//! cargo run --release --bin protocheck -- --json
//! cargo run --release --bin protocheck -- --inject missing-row
//! ```
//!
//! `--json` switches to a machine-readable report (defect list keyed by
//! stable defect-class slugs plus per-table stats) so CI can diff defect
//! sets instead of grepping text. `--inject
//! missing-row|forbidden-state|cycle` seeds one known defect into an
//! otherwise clean table, as a self-test that the checker actually
//! catches each defect class.

use c3::bridge::bridge_transition_table;
use c3::generator::{baseline_fsm, bridge_fsm};
use c3_bench::cli;
use c3_bench::runner::json_escape;
use c3_bench::{out, outln};
use c3_cxl::dcoh::dcoh_transition_table;
use c3_memsys::direngine::direngine_transition_table;
use c3_memsys::l1::l1_transition_table;
use c3_protocol::states::ProtocolFamily;
use c3_protocol::table::{TransitionRow, TransitionTable};
use c3_verif::fsm_checks::check_fsm;
use c3_verif::static_checks::check_all;
use c3_verif::StaticDefect;

const FAMILIES: [ProtocolFamily; 4] = [
    ProtocolFamily::Mesi,
    ProtocolFamily::Mesif,
    ProtocolFamily::Moesi,
    ProtocolFamily::Rcc,
];

/// A known defect seeded into one table, to prove the checker sees it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Inject {
    /// Delete the L1 MESI `(IS_D, Data)` row.
    MissingRow,
    /// Declare the L1 MESI `M` state forbidden.
    ForbiddenState,
    /// Replace the bridge MESI `(Wb, Cmp)` rows with a stall waiting on
    /// `Cmp` itself — an unreleasable self-cycle.
    Cycle,
}

impl Inject {
    fn parse(name: &str) -> Option<Inject> {
        match name {
            "missing-row" => Some(Inject::MissingRow),
            "forbidden-state" => Some(Inject::ForbiddenState),
            "cycle" => Some(Inject::Cycle),
            _ => None,
        }
    }
}

const USAGE: &str = "usage: protocheck [--json] [--inject missing-row|forbidden-state|cycle]\n";

fn apply_injection(inject: Inject, l1: &mut TransitionTable, bridge: &mut TransitionTable) {
    match inject {
        Inject::MissingRow => {
            // Drop the (IS_D, Data) row *and* the wildcard Data row, so
            // the pair is genuinely uncovered (not silently absorbed by
            // the wildcard) — the checker must name the hole.
            l1.rows
                .retain(|r| !(r.event == "Data" && (r.state == "IS_D" || r.state == "*")));
        }
        Inject::ForbiddenState => {
            l1.forbidden.push("M");
        }
        Inject::Cycle => {
            bridge
                .rows
                .retain(|r| !(r.state == "Wb" && r.event == "Cmp"));
            bridge.rows.push(TransitionRow::stall(
                "Wb",
                "Cmp",
                vec!["Cmp"],
                "protocheck --inject cycle",
            ));
        }
    }
}

/// Per-table stats carried into the JSON report.
struct TableStats {
    family: String,
    controller: &'static str,
    states: usize,
    events: usize,
    rows: usize,
}

/// One family's table-check outcome.
struct FamilyResult {
    family: String,
    tables: Vec<TableStats>,
    defects: Vec<StaticDefect>,
}

/// One compound-FSM check outcome (defects pre-rendered).
struct FsmResult {
    name: String,
    defects: Vec<String>,
}

fn main() {
    let (inject, json) = cli::parse(USAGE, |args| {
        let inject = args
            .value::<String>("--inject")?
            .map(|n| cli::lookup("injection", &n, Inject::parse))
            .transpose()?;
        Ok((inject, args.flag("--json")))
    });

    let mut families: Vec<FamilyResult> = Vec::new();
    for fam in FAMILIES {
        let mut l1 = l1_transition_table(fam);
        let mut bridge = bridge_transition_table(fam);
        let dcoh = dcoh_transition_table();
        if fam == ProtocolFamily::Mesi {
            if let Some(inj) = inject {
                apply_injection(inj, &mut l1, &mut bridge);
            }
        }
        let set = [&l1, &bridge, &dcoh, &direngine_transition_table(fam)];
        families.push(FamilyResult {
            family: fam.to_string(),
            tables: set
                .iter()
                .map(|t| TableStats {
                    family: fam.to_string(),
                    controller: t.controller,
                    states: t.states.len(),
                    events: t.events.len(),
                    rows: t.rows.len(),
                })
                .collect(),
            defects: check_all(&set),
        });
    }

    // The generated compound FSMs, for the same families plus the
    // directory-less baselines.
    let mut fsms: Vec<FsmResult> = Vec::new();
    for fam in FAMILIES {
        fsms.push(FsmResult {
            name: format!("{fam} compound FSM"),
            defects: check_fsm(&bridge_fsm(fam))
                .iter()
                .map(|d| d.to_string())
                .collect(),
        });
    }
    for fam in [ProtocolFamily::Mesi, ProtocolFamily::Moesi] {
        fsms.push(FsmResult {
            name: format!("{fam} baseline FSM"),
            defects: check_fsm(&baseline_fsm(fam, ProtocolFamily::Mesi))
                .iter()
                .map(|d| d.to_string())
                .collect(),
        });
    }

    let total_defects: usize = families.iter().map(|f| f.defects.len()).sum::<usize>()
        + fsms.iter().map(|f| f.defects.len()).sum::<usize>();
    let tables_checked: usize = families.iter().map(|f| f.tables.len()).sum();

    if json {
        print_json(&families, &fsms, total_defects);
    } else {
        print_text(&families, &fsms, total_defects, tables_checked, fsms.len());
    }
    if total_defects != 0 {
        std::process::exit(1);
    }
}

fn print_text(
    families: &[FamilyResult],
    fsms: &[FsmResult],
    total_defects: usize,
    tables_checked: usize,
    fsm_count: usize,
) {
    for f in families {
        let rows: usize = f.tables.iter().map(|t| t.rows).sum();
        if f.defects.is_empty() {
            let n = f.tables.len();
            outln!("{}: {n} tables clean ({rows} rows)", f.family);
        } else {
            outln!(
                "{}: {} defect(s) in {rows} rows:",
                f.family,
                f.defects.len()
            );
            for d in &f.defects {
                outln!("  {d}");
            }
        }
    }
    for f in fsms {
        if !f.defects.is_empty() {
            outln!("{}: {} defect(s):", f.name, f.defects.len());
            for d in &f.defects {
                outln!("  {d}");
            }
        }
    }
    if total_defects == 0 {
        outln!("protocheck: {tables_checked} tables + {fsm_count} compound FSMs clean");
    } else {
        outln!("protocheck: {total_defects} defect(s)");
    }
}

fn print_json(families: &[FamilyResult], fsms: &[FsmResult], total_defects: usize) {
    let mut out = String::from("{\n  \"tables\": [\n");
    let mut first = true;
    for f in families {
        for t in &f.tables {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"family\": \"{}\", \"controller\": \"{}\", \
                 \"states\": {}, \"events\": {}, \"rows\": {}}}",
                json_escape(&t.family),
                json_escape(t.controller),
                t.states,
                t.events,
                t.rows
            ));
        }
    }
    out.push_str("\n  ],\n  \"defects\": [\n");
    first = true;
    for f in families {
        for d in &f.defects {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"family\": \"{}\", \"kind\": \"{}\", \"detail\": \"{}\"}}",
                json_escape(&f.family),
                d.kind(),
                json_escape(d.detail())
            ));
        }
    }
    for f in fsms {
        for d in &f.defects {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"family\": \"{}\", \"kind\": \"fsm\", \"detail\": \"{}\"}}",
                json_escape(&f.name),
                json_escape(d)
            ));
        }
    }
    out.push_str(&format!(
        "\n  ],\n  \"fsms_checked\": {},\n  \"total_defects\": {}\n}}\n",
        fsms.len(),
        total_defects
    ));
    out!("{out}");
}
