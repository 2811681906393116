//! Benchmarks: scaled-down versions of each paper experiment plus
//! microbenchmarks of the performance-critical substrates.
//!
//! `cargo bench` runs everything; pass a substring to run a subset
//! (`cargo bench -- fig10`). The harness is self-contained (no external
//! crates): each benchmark is timed with `std::time::Instant` over a
//! fixed iteration count after one warm-up pass, so regressions in the
//! experiment pipelines are caught without network access.

use std::time::Instant;

use c3::generator::bridge_fsm;
use c3::system::GlobalProtocol;
use c3_bench::{run_workload, RunConfig};
use c3_mcm::harness::{run_litmus, LitmusConfig};
use c3_mcm::litmus::LitmusTest;
use c3_mcm::reference::allowed_outcomes;
use c3_memsys::cache::CacheArray;
use c3_protocol::mcm::Mcm;
use c3_protocol::ops::Addr;
use c3_protocol::states::ProtocolFamily;
use c3_verif::resilient::{check_resilient, ResilientConfig};
use c3_workloads::WorkloadSpec;

struct Harness {
    filter: Option<String>,
    ran: usize,
}

impl Harness {
    fn new() -> Self {
        // `cargo bench -- <filter>`; ignore libtest-style flags.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness { filter, ran: 0 }
    }

    fn bench<R>(&mut self, name: &str, iters: u32, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        self.ran += 1;
        std::hint::black_box(f()); // warm-up
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let per = t0.elapsed().as_secs_f64() / iters as f64;
        let (val, unit) = if per < 1e-3 {
            (per * 1e6, "µs")
        } else {
            (per * 1e3, "ms")
        };
        println!("{name:<44} {val:>10.3} {unit}/iter  ({iters} iters)");
    }
}

fn microbenches(h: &mut Harness) {
    h.bench("substrates/cache_array_insert_get", 50, || {
        let mut cache = CacheArray::<u64>::new(256, 8);
        for i in 0..4096u64 {
            cache.insert(Addr(i % 1024), i);
            cache.get(Addr((i * 7) % 1024));
        }
        cache.len()
    });
    h.bench("substrates/generator_moesi_cxl", 20, || {
        bridge_fsm(ProtocolFamily::Moesi)
    });
    let iriw = LitmusTest::iriw();
    let mcms = [Mcm::Tso, Mcm::Weak, Mcm::Tso, Mcm::Weak];
    h.bench("substrates/reference_enumeration_iriw", 5, || {
        allowed_outcomes(&iriw.threads, &mcms, &iriw.observed)
    });
}

fn verification(h: &mut Harness) {
    // The nested default: one core with a private L1 behind each of two
    // cluster copies, two ops per core, fault-free.
    let cfg = ResilientConfig {
        l1_cores: 1,
        ops_per_cluster: 2,
        max_faults: 0,
        max_retries: 0,
        ..ResilientConfig::default()
    };
    h.bench("verification/model_check_default", 3, || {
        let r = check_resilient(&cfg);
        assert!(r.violation.is_none() && !r.truncated);
        r.canonical_states
    });
}

fn litmus(h: &mut Harness) {
    for (name, test) in [("mp", LitmusTest::mp()), ("sb", LitmusTest::sb())] {
        let cfg = LitmusConfig::new(
            (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
            GlobalProtocol::Cxl,
            (Mcm::Tso, Mcm::Weak),
        )
        .runs(20);
        h.bench(&format!("table4_litmus/{name}"), 3, || {
            let r = run_litmus(&test, &cfg);
            assert!(r.passed());
            r.observed.len()
        });
    }
}

fn figures(h: &mut Harness) {
    // Fig. 10 slice: one contended and one streaming workload under the
    // baseline and the CXL configuration.
    for wname in ["histogram", "vips"] {
        for (gname, global) in [
            (
                "baseline",
                GlobalProtocol::Hierarchical(ProtocolFamily::Mesi),
            ),
            ("cxl", GlobalProtocol::Cxl),
        ] {
            let spec = WorkloadSpec::by_name(wname).expect("workload");
            let cfg = RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
                global,
                (Mcm::Weak, Mcm::Weak),
            )
            .quick();
            h.bench(&format!("figures_scaled/fig10_{wname}_{gname}"), 3, || {
                run_workload(&spec, &cfg).exec_ns
            });
        }
    }
    // Fig. 9 slice: the MCM knob.
    for (mname, mcms) in [
        ("arm", (Mcm::Weak, Mcm::Weak)),
        ("tso", (Mcm::Tso, Mcm::Tso)),
        ("mixed", (Mcm::Weak, Mcm::Tso)),
    ] {
        let spec = WorkloadSpec::by_name("histogram").expect("workload");
        let cfg = RunConfig::scaled(
            (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
            GlobalProtocol::Cxl,
            mcms,
        )
        .quick();
        h.bench(&format!("figures_scaled/fig9_histogram_{mname}"), 3, || {
            run_workload(&spec, &cfg).exec_ns
        });
    }
}

fn main() {
    let mut h = Harness::new();
    microbenches(&mut h);
    verification(&mut h);
    litmus(&mut h);
    figures(&mut h);
    if h.ran == 0 {
        println!("no benchmarks matched the filter");
    }
}
