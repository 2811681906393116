//! System assembly: the heterogeneous two-(or more-)cluster configuration
//! of Fig. 1 with the parameters of Table III.
//!
//! ```text
//! cluster 0 (proto_0)                cluster 1 (proto_1)
//!  cores → private L1s → C³ bridge    cores → private L1s → C³ bridge
//!             \                           /
//!             CXL fabric (star, 70 ns links, unordered S2M)
//!                          |
//!                 DCOH directory + DDR5 device
//! ```
//!
//! With [`GlobalProtocol::Hierarchical`] the same topology and latencies
//! are kept but the global level speaks a host protocol to a conventional
//! directory — the paper's MESI-MESI-MESI baseline, in which the bridges
//! forward requests one-to-one. Keeping everything but the protocol fixed
//! is exactly how the paper isolates protocol effects (§V).
//!
//! Note on ordering: the hierarchical baseline runs on ordered links —
//! textbook MESI assumes an ordered interconnect — while the CXL fabric
//! reorders device-to-host messages, which is why CXL needs the
//! `BIConflict` handshake (§III-A).

use c3_cxl::directory::CxlDirectory;
use c3_memsys::global_dir::GlobalMesiDir;
use c3_memsys::l1::{L1Config, L1Controller};
use c3_memsys::seqcore::SeqCore;
use c3_protocol::msg::SysMsg;
use c3_protocol::ops::{Addr, ThreadProgram};
use c3_protocol::ssp::SspSpec;
use c3_protocol::states::ProtocolFamily;
use c3_sim::component::{Component, ComponentId};
use c3_sim::fabric::LinkConfig;
use c3_sim::kernel::Simulator;
use c3_sim::time::Delay;

use c3_sim::fault::ResilienceConfig;

use crate::bridge::{BridgeConfig, C3Bridge, GlobalSide};

/// The global directories' DDR access time (Table III: 10 ns).
const MEM_LATENCY: Delay = Delay::from_ns(10);

/// The protocol joining the clusters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GlobalProtocol {
    /// CXL.mem 3.0 via a DCOH device directory.
    Cxl,
    /// A hierarchical host protocol (the paper's baseline uses MESI).
    Hierarchical(ProtocolFamily),
}

/// Per-cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Host coherence protocol of this cluster.
    pub protocol: ProtocolFamily,
    /// Number of cores (each with a private L1).
    pub cores: usize,
    /// L1 sets (Table III: 256 → 128 KiB at 8 ways).
    pub l1_sets: usize,
    /// L1 ways.
    pub l1_ways: usize,
}

impl ClusterSpec {
    /// Table III defaults with `cores` cores.
    pub fn new(protocol: ProtocolFamily, cores: usize) -> Self {
        ClusterSpec {
            protocol,
            cores,
            l1_sets: 256,
            l1_ways: 8,
        }
    }

    /// Use a smaller L1 (for workloads scaled down to simulation size, as
    /// the paper does to match MPKI — §V).
    pub fn with_l1(mut self, sets: usize, ways: usize) -> Self {
        self.l1_sets = sets;
        self.l1_ways = ways;
        self
    }
}

/// Builder for a complete simulated system.
///
/// # Examples
///
/// ```
/// use c3::system::{ClusterSpec, GlobalProtocol, SystemBuilder};
/// use c3_protocol::ops::{Addr, Reg, ThreadProgram};
/// use c3_protocol::states::ProtocolFamily;
/// use c3_sim::kernel::RunOutcome;
///
/// let clusters = vec![
///     ClusterSpec::new(ProtocolFamily::Mesi, 1),
///     ClusterSpec::new(ProtocolFamily::Moesi, 1),
/// ];
/// let writer = ThreadProgram::new().store(Addr(1), 9);
/// let reader = ThreadProgram::new().work(100_000).load(Addr(1), Reg(0));
/// let (mut sim, handles) = SystemBuilder::new(clusters, GlobalProtocol::Cxl)
///     .build_with_seq_cores(vec![vec![writer], vec![reader]]);
/// assert_eq!(sim.run(), RunOutcome::Completed);
/// assert_eq!(handles.seq_core_reg(&sim, 1, 0, Reg(0)), 9);
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    clusters: Vec<ClusterSpec>,
    global: GlobalProtocol,
    cxl_sets: usize,
    cxl_ways: usize,
    seed: u64,
    ordered_s2m: bool,
    cxl_devices: usize,
    link_latency: Delay,
    resilience: Option<ResilienceConfig>,
}

/// Component ids of an assembled system.
#[derive(Clone, Debug)]
pub struct SystemHandles {
    /// Per-cluster core component ids.
    pub cores: Vec<Vec<ComponentId>>,
    /// Per-cluster L1 component ids.
    pub l1s: Vec<Vec<ComponentId>>,
    /// Per-cluster C³ bridge ids.
    pub bridges: Vec<ComponentId>,
    /// The first (or only) global directory (DCOH or hierarchical).
    pub global_dir: ComponentId,
    /// All global directories (one per CXL device).
    pub global_dirs: Vec<ComponentId>,
    /// Which global protocol was built.
    pub global: GlobalProtocol,
    /// Cluster protocols.
    pub protocols: Vec<ProtocolFamily>,
    /// The fabric link ids making up the cross-cluster (CXL or
    /// hierarchical) star — the range to target with a
    /// [`c3_sim::fault::FaultPlan`] to perturb only the global fabric.
    pub cxl_links: std::ops::Range<u32>,
}

impl SystemBuilder {
    /// Start a builder for the given clusters and global protocol.
    pub fn new(clusters: Vec<ClusterSpec>, global: GlobalProtocol) -> Self {
        SystemBuilder {
            clusters,
            global,
            // Table III LLC: 4 MiB, 8-way → 8192 sets of 64 B lines.
            cxl_sets: 8192,
            cxl_ways: 8,
            seed: 0xC3C3,
            ordered_s2m: false,
            cxl_devices: 1,
            link_latency: Delay::from_ns(70),
            resilience: None,
        }
    }

    /// Enable timeout/retry/backoff on the bridges' global transactions
    /// and the DCOH's blocking snoops (CXL mode). Without this the system
    /// keeps its historical fail-stop behaviour: a lost message deadlocks
    /// and the post-mortem names the wedged transaction.
    pub fn resilience(mut self, cfg: ResilienceConfig) -> Self {
        self.resilience = Some(cfg);
        self
    }

    /// Override the cross-cluster link latency (Table III: 70 ns).
    pub fn link_latency(mut self, d: Delay) -> Self {
        self.link_latency = d;
        self
    }

    /// Use `n` line-interleaved CXL memory devices (CXL 3.0 multi-headed
    /// pooling; ignored for the hierarchical baseline).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn cxl_devices(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one device");
        self.cxl_devices = n;
        self
    }

    /// Force the device→host direction to be ordered (ablation: removes
    /// the Fig. 2 reordering; the BIConflict handshake still runs but is
    /// never *required*).
    pub fn ordered_s2m(mut self, ordered: bool) -> Self {
        self.ordered_s2m = ordered;
        self
    }

    /// Override the bridge CXL-cache geometry (scaled-down workloads).
    pub fn cxl_cache(mut self, sets: usize, ways: usize) -> Self {
        self.cxl_sets = sets;
        self.cxl_ways = ways;
        self
    }

    /// Override the RNG seed (litmus runs randomize this).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Assemble the system, creating one core per `(cluster, index)` via
    /// `core_factory(cluster, index, l1_id)`.
    pub fn build<F>(&self, mut core_factory: F) -> (Simulator<SysMsg>, SystemHandles)
    where
        F: FnMut(usize, usize, ComponentId) -> Box<dyn Component<SysMsg>>,
    {
        let mut sim: Simulator<SysMsg> = Simulator::new(self.seed);

        // ---- id layout (computed up front so components can be wired) ----
        // 0..n_dirs: global dirs; then per cluster: bridge, then (l1, core)
        // pairs.
        let n_dirs = match self.global {
            GlobalProtocol::Cxl => self.cxl_devices,
            GlobalProtocol::Hierarchical(_) => 1,
        };
        let dir_ids: Vec<ComponentId> = (0..n_dirs as u32).map(ComponentId).collect();
        let dir_id = dir_ids[0];
        let mut next = n_dirs as u32;
        let mut bridge_ids = Vec::new();
        let mut l1_ids: Vec<Vec<ComponentId>> = Vec::new();
        let mut core_ids: Vec<Vec<ComponentId>> = Vec::new();
        for c in &self.clusters {
            bridge_ids.push(ComponentId(next));
            next += 1;
            let mut ls = Vec::new();
            let mut cs = Vec::new();
            for _ in 0..c.cores {
                ls.push(ComponentId(next));
                cs.push(ComponentId(next + 1));
                next += 2;
            }
            l1_ids.push(ls);
            core_ids.push(cs);
        }

        // ---- global directories ----
        match self.global {
            GlobalProtocol::Cxl => {
                for (i, &expect) in dir_ids.iter().enumerate() {
                    let name = if n_dirs == 1 {
                        "cxl.dcoh".to_string()
                    } else {
                        format!("cxl.dcoh.{i}")
                    };
                    let mut dcoh = CxlDirectory::new(name, MEM_LATENCY);
                    if let Some(r) = self.resilience {
                        dcoh = dcoh.with_resilience(r);
                    }
                    let got = sim.add_component(Box::new(dcoh));
                    assert_eq!(got, expect);
                }
            }
            GlobalProtocol::Hierarchical(family) => {
                let got = sim.add_component(Box::new(GlobalMesiDir::new(
                    "global.dir",
                    &SspSpec::for_family(family),
                    MEM_LATENCY,
                )));
                assert_eq!(got, dir_id);
            }
        }

        // ---- clusters ----
        for (ci, c) in self.clusters.iter().enumerate() {
            let peers: Vec<ComponentId> = dir_ids
                .iter()
                .copied()
                .chain(bridge_ids.iter().copied().filter(|b| *b != bridge_ids[ci]))
                .collect();
            let global = match self.global {
                GlobalProtocol::Cxl => GlobalSide::Cxl {
                    dirs: dir_ids.clone(),
                },
                GlobalProtocol::Hierarchical(family) => GlobalSide::Host {
                    dir: dir_id,
                    family,
                },
            };
            let got = sim.add_component(Box::new(C3Bridge::new(
                format!("c{ci}.bridge"),
                BridgeConfig {
                    host_family: c.protocol,
                    global,
                    cxl_sets: self.cxl_sets,
                    cxl_ways: self.cxl_ways,
                    global_peers: peers,
                    resilience: self.resilience,
                },
            )));
            assert_eq!(got, bridge_ids[ci]);
            for k in 0..c.cores {
                let got_l1 = sim.add_component(Box::new(L1Controller::new(
                    format!("c{ci}.l1.{k}"),
                    L1Config {
                        family: c.protocol,
                        sets: c.l1_sets,
                        ways: c.l1_ways,
                        hit_latency: Delay::from_cycles(1, 2_000),
                        core: core_ids[ci][k],
                        dir: bridge_ids[ci],
                    },
                )));
                assert_eq!(got_l1, l1_ids[ci][k]);
                let got_core = sim.add_component(core_factory(ci, k, l1_ids[ci][k]));
                assert_eq!(got_core, core_ids[ci][k]);
            }
        }

        // ---- wiring ----
        // Intra-cluster: point-to-point ordered links (Table III).
        for (ci, _) in self.clusters.iter().enumerate() {
            let mut nodes = l1_ids[ci].clone();
            nodes.push(bridge_ids[ci]);
            sim.fabric_mut()
                .wire_p2p(&nodes, &LinkConfig::intra_cluster());
        }
        // Cross-cluster star: two 70 ns hops per route. M2S (toward the
        // device) is ordered; S2M reorders (CXL). The hierarchical
        // baseline keeps everything ordered — textbook MESI assumes it.
        let ordered = LinkConfig {
            ordered: true,
            jitter: Delay::ZERO,
            latency: self.link_latency,
            ..LinkConfig::cxl()
        };
        let unordered = LinkConfig {
            latency: self.link_latency,
            ..LinkConfig::cxl()
        };
        let s2m = match self.global {
            GlobalProtocol::Cxl if !self.ordered_s2m => unordered,
            _ => ordered.clone(),
        };
        let cxl_links_start = sim.fabric_mut().link_count();
        for &b in &bridge_ids {
            for &d in &dir_ids {
                let up1 = sim.fabric_mut().add_link(ordered.clone());
                let up2 = sim.fabric_mut().add_link(ordered.clone());
                sim.fabric_mut().set_route(b, d, vec![up1, up2]);
                let down1 = sim.fabric_mut().add_link(s2m.clone());
                let down2 = sim.fabric_mut().add_link(s2m.clone());
                sim.fabric_mut().set_route(d, b, vec![down1, down2]);
            }
        }
        let cxl_links = cxl_links_start..sim.fabric_mut().link_count();
        // Bridge ↔ bridge (passive-mode 3-hop transfers): ordered.
        for &a in &bridge_ids {
            for &b in &bridge_ids {
                if a != b {
                    let l1 = sim.fabric_mut().add_link(ordered.clone());
                    let l2 = sim.fabric_mut().add_link(ordered.clone());
                    sim.fabric_mut().set_route(a, b, vec![l1, l2]);
                }
            }
        }

        let handles = SystemHandles {
            cores: core_ids,
            l1s: l1_ids,
            bridges: bridge_ids,
            global_dir: dir_id,
            global_dirs: dir_ids,
            global: self.global,
            protocols: self.clusters.iter().map(|c| c.protocol).collect(),
            cxl_links,
        };
        (sim, handles)
    }

    /// Assemble with sequential (SC) cores running `programs[cluster][core]`.
    ///
    /// # Panics
    ///
    /// Panics if `programs` does not match the cluster/core geometry.
    pub fn build_with_seq_cores(
        &self,
        programs: Vec<Vec<ThreadProgram>>,
    ) -> (Simulator<SysMsg>, SystemHandles) {
        assert_eq!(
            programs.len(),
            self.clusters.len(),
            "one program list per cluster"
        );
        for (c, p) in self.clusters.iter().zip(&programs) {
            assert_eq!(p.len(), c.cores, "one program per core");
        }
        self.build(move |ci, k, l1| {
            Box::new(SeqCore::new(
                format!("c{ci}.core.{k}"),
                l1,
                programs[ci][k].clone(),
            ))
        })
    }
}

impl SystemHandles {
    /// The global directory responsible for `addr` (line-interleaved
    /// across CXL devices).
    pub fn dir_for(&self, addr: Addr) -> ComponentId {
        self.global_dirs[(addr.0 % self.global_dirs.len() as u64) as usize]
    }

    /// Seed initial memory contents at the responsible global directory.
    pub fn seed_memory(&self, sim: &mut Simulator<SysMsg>, addr: Addr, value: u64) {
        match self.global {
            GlobalProtocol::Cxl => {
                let dir = self.dir_for(addr);
                sim.component_as_mut::<CxlDirectory>(dir)
                    .expect("dcoh")
                    .engine_mut()
                    .seed_data(addr, value);
            }
            GlobalProtocol::Hierarchical(_) => {
                let dir = self.global_dir;
                sim.component_as_mut::<GlobalMesiDir>(dir)
                    .expect("dir")
                    .seed_data(dir, addr, value);
            }
        }
    }

    /// The coherent value of a line after a run: the most authoritative
    /// copy wins (dirty L1 > bridge > device memory).
    pub fn coherent_value(&self, sim: &Simulator<SysMsg>, addr: Addr) -> u64 {
        for cluster in &self.l1s {
            for &l1 in cluster {
                let l1c = sim.component_as::<L1Controller>(l1).expect("l1");
                if let Some((state, data)) = l1c.line(addr) {
                    if state.can_write() || state.is_dirty() {
                        return data;
                    }
                }
            }
        }
        for &b in &self.bridges {
            let bridge = sim.component_as::<C3Bridge>(b).expect("bridge");
            if bridge.cxl_state(addr).can_write() || bridge.cxl_state(addr).is_dirty() {
                return bridge.data(addr);
            }
        }
        match self.global {
            GlobalProtocol::Cxl => sim
                .component_as::<CxlDirectory>(self.dir_for(addr))
                .expect("dcoh")
                .engine()
                .data(addr),
            GlobalProtocol::Hierarchical(_) => sim
                .component_as::<GlobalMesiDir>(self.global_dir)
                .expect("dir")
                .data(addr),
        }
    }

    /// Addresses known-poisoned anywhere in the system after a run: the
    /// union of every L1's poisoned lines and every bridge's poison marks,
    /// sorted and deduplicated. Useful to exclude lines from value checks
    /// after a faulty run — a poisoned line's data is by definition junk.
    pub fn poisoned_addrs(&self, sim: &Simulator<SysMsg>) -> Vec<Addr> {
        let mut out = Vec::new();
        for cluster in &self.l1s {
            for &l1 in cluster {
                let l1c = sim.component_as::<L1Controller>(l1).expect("l1");
                out.extend(l1c.poisoned_lines());
            }
        }
        for &b in &self.bridges {
            let bridge = sim.component_as::<C3Bridge>(b).expect("bridge");
            out.extend(bridge.poisoned_lines());
        }
        if matches!(self.global, GlobalProtocol::Cxl) {
            for &d in &self.global_dirs {
                let dir = sim.component_as::<CxlDirectory>(d).expect("dcoh");
                out.extend(dir.engine().poisoned_addrs());
            }
        }
        out.sort_by_key(|a| a.0);
        out.dedup();
        out
    }

    /// Register value of core `(cluster, index)` after a run with
    /// sequential cores.
    pub fn seq_core_reg(
        &self,
        sim: &Simulator<SysMsg>,
        cluster: usize,
        core: usize,
        reg: c3_protocol::ops::Reg,
    ) -> u64 {
        sim.component_as::<SeqCore>(self.cores[cluster][core])
            .expect("seq core")
            .reg(reg)
    }
}
