//! Table I: the CXL.mem coherence messages and their MESI equivalents.
//!
//! Usage: `cargo run -p c3-bench --bin table1`

use c3_bench::cli;
use c3_bench::outln;
use c3_protocol::msg::{direction, mesi_equivalent, CxlOpcode};

fn main() {
    cli::parse("usage: table1\n", |_| Ok(()));
    outln!("Table I: CXL.mem coherence messages and MESI equivalents");
    outln!(
        "{:<12} {:<5} {:<10} Description",
        "Message",
        "Dir.",
        "MESI Eq."
    );
    let rows = [
        (
            CxlOpcode::MemRdA,
            "MemRd, A",
            "Read memory and acquire excl. ownership",
        ),
        (
            CxlOpcode::MemRdS,
            "MemRd, S",
            "Read memory and acquire sharable copy",
        ),
        (
            CxlOpcode::MemWrI,
            "MemWr, I",
            "Writeback, do not keep cachable copy",
        ),
        (
            CxlOpcode::MemWrS,
            "MemWr, S",
            "Writeback, retain current copy and state",
        ),
        (
            CxlOpcode::BiSnpData,
            "BISnpData",
            "Device request sharable copy from host",
        ),
        (
            CxlOpcode::BiSnpInv,
            "BISnpInv",
            "Device request exclusive cachable copy",
        ),
    ];
    for (op, name, desc) in rows {
        outln!(
            "{:<12} {:<5} {:<10} {desc}",
            name,
            direction(op),
            mesi_equivalent(op)
        );
    }
}
