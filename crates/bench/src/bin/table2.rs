//! Table II: the generated C³ translation table (host = MOESI by default,
//! matching the paper's fragment; pass a family name for others).
//!
//! Usage: `cargo run -p c3-bench --bin table2 [-- MESI|MESIF|MOESI|RCC]`

use c3::generator::bridge_fsm;
use c3_bench::cli;
use c3_bench::outln;
use c3_protocol::states::ProtocolFamily;

const USAGE: &str = "usage: table2 [MESI|MESIF|MOESI|RCC]   (host family, default MOESI)\n";

fn main() {
    let family = cli::parse(USAGE, |args| match args.positional() {
        None => Ok(ProtocolFamily::Moesi),
        Some(name) => cli::lookup("family", &name, |n| {
            [
                ProtocolFamily::Mesi,
                ProtocolFamily::Mesif,
                ProtocolFamily::Moesi,
                ProtocolFamily::Rcc,
            ]
            .into_iter()
            .find(|f| f.label().eq_ignore_ascii_case(n))
        }),
    });
    let fsm = bridge_fsm(family);
    outln!("{}", fsm.dump_table());
    outln!(
        "{} consistent compound states, {} translation rows",
        fsm.states.len(),
        fsm.rows().len()
    );
}
