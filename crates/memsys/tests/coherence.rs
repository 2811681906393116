//! End-to-end coherence tests: sequential cores + private caches + a
//! directory, over a modelled interconnect. These exercise the full
//! message-level protocols (including 3-hop transfers, invalidation
//! fan-out, upgrades, evictions and writebacks) for every host family.

use c3_memsys::{GlobalMesiDir, L1Config, L1Controller, SeqCore};
use c3_protocol::msg::SysMsg;
use c3_protocol::ops::{Addr, Reg, ThreadProgram};
use c3_protocol::ssp::SspSpec;
use c3_protocol::states::ProtocolFamily;
use c3_sim::prelude::*;

/// Build a flat system: one directory, `programs.len()` cores each with a
/// private L1 of `family`, all wired point-to-point.
fn flat_system(
    family: ProtocolFamily,
    programs: Vec<ThreadProgram>,
    l1_sets: usize,
    l1_ways: usize,
) -> (Simulator<SysMsg>, Vec<ComponentId>, ComponentId) {
    let mut sim: Simulator<SysMsg> = Simulator::new(0xC3);
    // The directory runs the caches' own SSP.
    let dir = sim.add_component(Box::new(GlobalMesiDir::new(
        "dir",
        &SspSpec::for_family(family),
        Delay::from_ns(10),
    )));
    let mut cores = Vec::new();
    let mut l1s = Vec::new();
    for (i, prog) in programs.into_iter().enumerate() {
        // Core ids and L1 ids are interleaved; wire cores after l1 exists.
        let core_id = ComponentId((sim.component_count() + 1) as u32); // l1 first
        let l1 = sim.add_component(Box::new(L1Controller::new(
            format!("l1.{i}"),
            L1Config {
                family,
                sets: l1_sets,
                ways: l1_ways,
                hit_latency: Delay::from_cycles(1, 2_000),
                core: core_id,
                dir,
            },
        )));
        let core = sim.add_component(Box::new(SeqCore::new(format!("core.{i}"), l1, prog)));
        assert_eq!(core, core_id);
        cores.push(core);
        l1s.push(l1);
    }
    let mut nodes = l1s.clone();
    nodes.push(dir);
    sim.fabric_mut()
        .wire_p2p(&nodes, &LinkConfig::intra_cluster());
    (sim, cores, dir)
}

fn run(sim: &mut Simulator<SysMsg>) {
    sim.set_event_limit(50_000_000);
    let outcome = sim.run();
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "stuck components: {:?}",
        sim.pending_components()
    );
}

const SWMR_FAMILIES: [ProtocolFamily; 3] = [
    ProtocolFamily::Mesi,
    ProtocolFamily::Mesif,
    ProtocolFamily::Moesi,
];

const ALL_FAMILIES: [ProtocolFamily; 4] = [
    ProtocolFamily::Mesi,
    ProtocolFamily::Mesif,
    ProtocolFamily::Moesi,
    ProtocolFamily::Rcc,
];

#[test]
fn store_then_load_roundtrip() {
    for family in ALL_FAMILIES {
        let prog = ThreadProgram::new()
            .store(Addr(1), 42)
            .load(Addr(1), Reg(0))
            .store(Addr(2), 7)
            .load(Addr(2), Reg(1));
        let (mut sim, cores, _) = flat_system(family, vec![prog], 16, 2);
        run(&mut sim);
        let core = sim.component_as::<SeqCore>(cores[0]).unwrap();
        assert_eq!(core.reg(Reg(0)), 42, "{family}");
        assert_eq!(core.reg(Reg(1)), 7, "{family}");
    }
}

#[test]
fn eviction_pressure_preserves_values() {
    // Write far more lines than the tiny L1 holds, then read them all back:
    // every value must survive writeback + refetch.
    for family in ALL_FAMILIES {
        let n = 64u64;
        let mut prog = ThreadProgram::new();
        for i in 0..n {
            prog = prog.store(Addr(i), 1000 + i);
        }
        // RCC: values become globally visible at a release point.
        if family == ProtocolFamily::Rcc {
            prog = prog.fence();
        }
        for i in 0..n {
            prog = prog.load(Addr(i), Reg((i % 32) as u8));
        }
        let (mut sim, cores, dir) = flat_system(family, vec![prog], 2, 2);
        run(&mut sim);
        let core = sim.component_as::<SeqCore>(cores[0]).unwrap();
        // The last 32 loads' registers hold the last 32 values.
        for i in (n - 32)..n {
            assert_eq!(core.reg(Reg((i % 32) as u8)), 1000 + i, "{family} line {i}");
        }
        // Directory data must reflect writebacks for evicted lines.
        let d = sim.component_as::<GlobalMesiDir>(dir).unwrap();
        let mut synced = 0;
        for i in 0..n {
            if d.data(Addr(i)) == 1000 + i {
                synced += 1;
            }
        }
        assert!(
            synced >= (n / 2) as usize as u64,
            "{family}: only {synced} lines written back"
        );
    }
}

#[test]
fn rmw_contention_is_atomic() {
    // Two cores each perform 50 fetch-and-adds on one line. SWMR (or
    // directory-level atomics for RCC) must make the total exactly 100.
    for family in ALL_FAMILIES {
        let mk = || {
            let mut p = ThreadProgram::new();
            for _ in 0..50 {
                p = p.rmw(Addr(9), 1, Reg(0));
            }
            p
        };
        let (mut sim, _, dir) = flat_system(family, vec![mk(), mk()], 16, 2);
        run(&mut sim);
        let d = sim.component_as::<GlobalMesiDir>(dir).unwrap();
        // The final value lives either in a cache or at the directory; add
        // a probe: one more system where a third core reads after both.
        // Simpler: check via a read-back program on core 0 in a fresh run.
        let _ = d;
        let mk_with_readback = |read: bool| {
            let mut p = ThreadProgram::new();
            for _ in 0..50 {
                p = p.rmw(Addr(9), 1, Reg(0));
            }
            if read {
                p = p.work(200_000).rmw(Addr(9), 0, Reg(1));
            }
            p
        };
        let (mut sim, cores, _) = flat_system(
            family,
            vec![mk_with_readback(true), mk_with_readback(false)],
            16,
            2,
        );
        run(&mut sim);
        let core = sim.component_as::<SeqCore>(cores[0]).unwrap();
        assert_eq!(core.reg(Reg(1)), 100, "{family}: lost updates");
    }
}

#[test]
fn three_hop_transfer_moves_dirty_data() {
    // Core 0 dirties a line; core 1 (after a delay) reads it — the data
    // must come from core 0's cache via Fwd-GetS.
    for family in SWMR_FAMILIES {
        let p0 = ThreadProgram::new().store(Addr(3), 77);
        let p1 = ThreadProgram::new().work(2_000).load(Addr(3), Reg(2));
        let (mut sim, cores, _) = flat_system(family, vec![p0, p1], 16, 2);
        run(&mut sim);
        let c1 = sim.component_as::<SeqCore>(cores[1]).unwrap();
        assert_eq!(c1.reg(Reg(2)), 77, "{family}");
    }
}

#[test]
fn write_invalidates_remote_sharers() {
    // Core 1 reads a line (cached S), core 0 later writes it, core 1 reads
    // again — must observe the new value (its stale copy was invalidated).
    for family in SWMR_FAMILIES {
        let p0 = ThreadProgram::new().work(2_000).store(Addr(4), 5);
        let p1 = ThreadProgram::new()
            .load(Addr(4), Reg(0))
            .work(8_000)
            .load(Addr(4), Reg(1));
        let (mut sim, cores, _) = flat_system(family, vec![p0, p1], 16, 2);
        run(&mut sim);
        let c1 = sim.component_as::<SeqCore>(cores[1]).unwrap();
        assert_eq!(c1.reg(Reg(0)), 0, "{family}: initial value");
        assert_eq!(c1.reg(Reg(1)), 5, "{family}: stale copy survived");
    }
}

#[test]
fn rcc_acquire_refetches_fresh_data() {
    // RCC: core 1 caches a stale copy; core 0 writes + releases; core 1
    // acquire-loads and must see the new value.
    let p0 = ThreadProgram::new().work(2_000).store_rel(Addr(6), 11);
    let p1 = ThreadProgram::new()
        .load(Addr(6), Reg(0))
        .work(10_000)
        .load_acq(Addr(6), Reg(1));
    let (mut sim, cores, _) = flat_system(ProtocolFamily::Rcc, vec![p0, p1], 16, 2);
    run(&mut sim);
    let c1 = sim.component_as::<SeqCore>(cores[1]).unwrap();
    assert_eq!(c1.reg(Reg(0)), 0);
    assert_eq!(c1.reg(Reg(1)), 11, "acquire failed to self-invalidate");
}

#[test]
fn rcc_plain_load_may_stay_stale() {
    // Without an acquire, an RCC reader may legitimately keep its stale
    // copy — this documents the intended RCC semantics.
    let p0 = ThreadProgram::new().work(2_000).store_rel(Addr(6), 11);
    let p1 = ThreadProgram::new()
        .load(Addr(6), Reg(0))
        .work(10_000)
        .load(Addr(6), Reg(1));
    let (mut sim, cores, _) = flat_system(ProtocolFamily::Rcc, vec![p0, p1], 16, 2);
    run(&mut sim);
    let c1 = sim.component_as::<SeqCore>(cores[1]).unwrap();
    assert_eq!(c1.reg(Reg(1)), 0, "RCC must not eagerly invalidate");
}

#[test]
fn many_sharers_then_writer() {
    // 6 cores read a line; a 7th writes it; all invalidations must be
    // collected and the system must quiesce.
    for family in SWMR_FAMILIES {
        let mut progs: Vec<ThreadProgram> = (0..6)
            .map(|_| ThreadProgram::new().load(Addr(8), Reg(0)))
            .collect();
        progs.push(ThreadProgram::new().work(5_000).store(Addr(8), 1));
        let (mut sim, _, dir) = flat_system(family, progs, 16, 2);
        run(&mut sim);
        let d = sim.component_as::<GlobalMesiDir>(dir).unwrap();
        let _ = d;
    }
}

#[test]
fn miss_latency_statistics_recorded() {
    let prog = ThreadProgram::new().load(Addr(1), Reg(0)).store(Addr(2), 1);
    let (mut sim, _, _) = flat_system(ProtocolFamily::Mesi, vec![prog], 16, 2);
    run(&mut sim);
    let report = sim.report();
    assert_eq!(report.get("l1.0.load.misses"), Some(1.0));
    assert_eq!(report.get("l1.0.store.misses"), Some(1.0));
    // Flat-system misses resolve within the intra-cluster band.
    assert!(report.sum_prefix("l1.0.load.miss_count.") >= 1.0);
}
