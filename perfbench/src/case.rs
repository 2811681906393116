//! The three workloads: what each one simulates or explores.

use c3::system::GlobalProtocol;
use c3_bench::RunConfig;
use c3_protocol::mcm::Mcm;
use c3_protocol::states::ProtocolFamily;
use c3_verif::resilient::ResilientConfig;
use c3_workloads::{Pattern, Suite, WorkloadSpec};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Long private-heavy `vips` programs: the core and L1 hit path.
    Stream,
    /// Zipfian OLTP/KV transactions: shared, write-heavy misses.
    Oltp,
    /// The resilient-protocol explorer, table conformance and a small
    /// concrete twin of the explored system.
    Modelcheck,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::Oltp, Workload::Modelcheck];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Oltp => "oltp",
            Workload::Modelcheck => "modelcheck",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the measured size, or a tiny one for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A few milliseconds of work, for the benchmark's own tests.
    Tiny,
}

/// One simulated system: a workload generator under a configuration,
/// built by `c3_bench::build_sim`.
#[derive(Clone, Copy, Debug)]
pub struct SimCase {
    /// The traffic generator.
    pub spec: WorkloadSpec,
    /// System shape, protocols, program length and seed.
    pub cfg: RunConfig,
}

impl SimCase {
    /// Total simulated cores (one generated program each).
    pub fn threads(&self) -> usize {
        self.cfg.cores_per_cluster * self.cfg.clusters
    }
}

/// Everything one workload runs for a seed.
#[derive(Clone, Debug)]
pub struct Case {
    /// Which workload this is.
    pub workload: Workload,
    /// The simulated system. For `modelcheck` this is the explorer's
    /// concrete twin, which supplies the simulated metrics.
    pub sim: SimCase,
    /// The model checker's configuration (`modelcheck` only).
    pub model: Option<ResilientConfig>,
}

/// The concrete twin of the explored model: three single-core hosts
/// contending for two shared lines, with RMWs and stores, over the CXL
/// fabric. Small private partitions keep nearly every access on the two
/// contended lines or on L1 hits; the compute gap between accesses keeps
/// the finishing time from swinging with each seed's contention pattern.
fn twin_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "modelcheck-twin",
        suite: Suite::Splash4,
        pattern: Pattern::Reduction,
        footprint: 64,
        reuse_window: 8,
        hot_lines: 2,
        shared_fraction: 0.5,
        hot_fraction: 1.0,
        write_fraction: 0.5,
        rmw_fraction: 0.5,
        work_cycles: 40,
        sync_every: 0,
        zipf_skew: 0.0,
    }
}

/// The inputs of `workload` at `size` for `seed`.
pub fn case(workload: Workload, size: Size, seed: u64) -> Case {
    let tiny = size == Size::Tiny;
    let (spec, mut cfg) = match workload {
        Workload::Stream => (
            WorkloadSpec::by_name("vips").expect("vips is a paper workload"),
            // The paper's heterogeneous pairing: MESI/TSO, CXL, MOESI/weak.
            RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
                GlobalProtocol::Cxl,
                (Mcm::Tso, Mcm::Weak),
            ),
        ),
        Workload::Oltp => (
            WorkloadSpec::by_name("oltp-zipf").expect("oltp-zipf is a named OLTP workload"),
            // MESI on every cluster: with MOESI on alternate clusters
            // some seeds deadlock on an L1 protocol violation (see the
            // README's ledger), and no operation of a workload may fail.
            RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Mesi),
                GlobalProtocol::Cxl,
                (Mcm::Weak, Mcm::Weak),
            )
            .with_clusters(4),
        ),
        Workload::Modelcheck => (
            twin_spec(),
            RunConfig::scaled(
                (ProtocolFamily::Mesi, ProtocolFamily::Moesi),
                GlobalProtocol::Cxl,
                (Mcm::Weak, Mcm::Weak),
            )
            .with_clusters(3),
        ),
    };
    cfg.seed = seed;
    cfg = cfg.with_state_metrics();
    (cfg.cores_per_cluster, cfg.ops_per_core) = match (workload, tiny) {
        (Workload::Stream, false) => (4, 12_000),
        (Workload::Stream, true) => (2, 300),
        (Workload::Oltp, false) => (4, 6_000),
        (Workload::Oltp, true) => (2, 150),
        (Workload::Modelcheck, false) => (1, 1_000),
        (Workload::Modelcheck, true) => (1, 100),
    };
    let model = (workload == Workload::Modelcheck).then(|| {
        let (clusters, addrs, faults) = if tiny { (2, 1, 1) } else { (3, 2, 2) };
        ResilientConfig {
            clusters,
            addrs,
            ops_per_cluster: 1,
            max_faults: faults,
            max_retries: faults,
            symmetry: true,
            ..ResilientConfig::default()
        }
    });
    Case {
        workload,
        sim: SimCase { spec, cfg },
        model,
    }
}
