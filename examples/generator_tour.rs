//! Tour of the C³ generator: synthesize compound FSMs for every host
//! protocol bridged to CXL.mem and print their translation tables — the
//! paper's Table II, for all four host families.
//!
//! ```sh
//! cargo run --example generator_tour
//! ```

use c3::generator::{bridge_fsm, GenError, Generator};
use c3_protocol::ssp::SspSpec;
use c3_protocol::states::ProtocolFamily;

fn main() {
    for family in [
        ProtocolFamily::Mesi,
        ProtocolFamily::Mesif,
        ProtocolFamily::Moesi,
        ProtocolFamily::Rcc,
    ] {
        let fsm = bridge_fsm(family);
        println!("{}", fsm.dump_table());
        println!(
            "-> {} consistent compound states, {} rows\n",
            fsm.states.len(),
            fsm.rows().len()
        );
    }

    // The generator validates its inputs: protocols that cannot serve as
    // a coherence root are rejected.
    match Generator::new(SspSpec::mesi(), SspSpec::rcc()) {
        Err(GenError::GlobalNotCoherent) => {
            println!("RCC correctly rejected as a global protocol (no SWMR).")
        }
        other => panic!("unexpected: {other:?}"),
    }
}
