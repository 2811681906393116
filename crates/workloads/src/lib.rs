//! # c3-workloads — the 33 evaluation workloads
//!
//! The paper evaluates C³ on 33 parallel applications from Splash-4 (14),
//! PARSEC (11) and Phoenix (8), scaled so that cache miss rates (MPKI)
//! match real-hardware runs (§V). We reproduce each application's
//! *sharing pattern* as a synthetic trace generator: what matters for the
//! protocol-level results of Fig. 9–11 is the structure of sharing —
//! contended hot lines, migratory objects, producer/consumer streams,
//! reductions — not the applications' arithmetic. Parameters per workload
//! (footprint, reuse locality, hot-set size and intensity, write/RMW
//! mix, synchronization density) are set qualitatively from the
//! literature on these suites and calibrated against the paper's observed
//! sensitivity ordering (histogram, barnes, lu-ncont most affected; vips
//! least — Fig. 11).

#![warn(missing_docs)]

pub mod oltp;

use c3_protocol::ops::{Addr, Instr, Reg, ThreadProgram};
use c3_sim::rng::SimRng;

pub use oltp::{OltpLayout, OltpTxnCounts};

/// Benchmark suite of origin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// Splash-4 (Gómez-Hernández et al., IISWC'22).
    Splash4,
    /// PARSEC 3.0.
    Parsec,
    /// Phoenix 2.0 (MapReduce kernels).
    Phoenix,
    /// Synthetic OLTP/KV transaction engine (line-store stress).
    Oltp,
}

impl Suite {
    /// Display label used in Fig. 9/10 groupings.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Splash4 => "splash4",
            Suite::Parsec => "parsec",
            Suite::Phoenix => "phoenix",
            Suite::Oltp => "oltp",
        }
    }
}

/// The memory-access structure of a workload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Pattern {
    /// Sequential private streaming with high locality (blackscholes,
    /// vips, swaptions…).
    Streaming,
    /// Uniform random over the footprint (raytrace, freqmine…).
    Random,
    /// Partitioned grid with boundary sharing between neighbour threads
    /// (lu, ocean, fluidanimate…).
    Stencil,
    /// Migratory objects: bursts of read-modify-write on hot lines that
    /// move between threads (barnes, canneal…).
    Migratory,
    /// Reductions into a small set of contended counters (histogram,
    /// word-count…).
    Reduction,
    /// Pipeline stages: even threads produce, odd threads consume
    /// (dedup, ferret, x264…).
    ProducerConsumer,
    /// Zipfian-skewed OLTP/KV transactions: index walks, striped lock
    /// words, version words, record lines (see [`crate::oltp`]).
    OltpKv,
}

/// A synthetic workload specification.
///
/// # Examples
///
/// ```
/// use c3_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::by_name("histogram").expect("known workload");
/// let program = spec.generate(0, 8, 100, 42);
/// assert!(program.len() >= 100);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Application name (matches the paper's figures).
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Access pattern.
    pub pattern: Pattern,
    /// Total footprint in cache lines.
    pub footprint: u64,
    /// Private-access reuse window (lines) — sets the hit rate / MPKI.
    pub reuse_window: u64,
    /// Number of globally hot (contended) lines.
    pub hot_lines: u64,
    /// Fraction of accesses that target the shared region.
    pub shared_fraction: f64,
    /// Of shared accesses, fraction hitting the hot set.
    pub hot_fraction: f64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Fraction of *hot* accesses that are atomic RMWs.
    pub rmw_fraction: f64,
    /// Mean compute cycles between accesses.
    pub work_cycles: u32,
    /// Insert a release/acquire pair every N accesses (0 = never).
    pub sync_every: usize,
    /// Zipfian skew θ ∈ [0, 1) over the key popularity distribution.
    /// Only meaningful for [`Pattern::OltpKv`] (0 everywhere else); for
    /// OLTP, `hot_lines` is the power-of-two keyspace size.
    pub zipf_skew: f64,
}

/// Address-space layout used by every workload: a shared region at the
/// bottom (hot lines first), then per-thread private partitions.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Lines in the shared region.
    pub shared_lines: u64,
    /// Lines in each private partition.
    pub private_lines: u64,
}

impl WorkloadSpec {
    /// Layout for `nthreads` threads.
    pub fn layout(&self, nthreads: usize) -> Layout {
        if self.pattern == Pattern::OltpKv {
            // The OLTP engine's footprint is entirely shared (records,
            // locks, versions, index); threads keep a token private
            // scratch partition.
            return Layout {
                shared_lines: OltpLayout::for_keys(self.hot_lines).span,
                private_lines: 64,
            };
        }
        let shared = (self.footprint / 4).max(self.hot_lines + 8);
        let private = ((self.footprint - shared) / nthreads as u64).max(16);
        Layout {
            shared_lines: shared,
            private_lines: private,
        }
    }

    /// The programs of all `nthreads` threads, each with `ops` memory
    /// accesses, deterministically from `seed`: `programs(..)[t]` equals
    /// `generate(t, ..)`. Per-spec state (the OLTP layout and Zipfian
    /// sampler) is built once and shared by every thread's stream.
    pub fn programs(&self, nthreads: usize, ops: usize, seed: u64) -> Vec<ThreadProgram> {
        if self.pattern == Pattern::OltpKv {
            let gen = oltp::Generator::new(self);
            return (0..nthreads).map(|t| gen.thread(t, ops, seed).0).collect();
        }
        (0..nthreads)
            .map(|t| self.generate(t, nthreads, ops, seed))
            .collect()
    }

    /// Generate the program of thread `thread` of `nthreads`, with `ops`
    /// memory accesses, deterministically from `seed`. This rebuilds the
    /// per-spec state, which is cheap (the Zipfian sampler's ζ(n, θ) has a
    /// closed form); [`WorkloadSpec::programs`] builds it once for a whole
    /// system.
    pub fn generate(&self, thread: usize, nthreads: usize, ops: usize, seed: u64) -> ThreadProgram {
        if self.pattern == Pattern::OltpKv {
            return oltp::Generator::new(self).thread(thread, ops, seed).0;
        }
        let mut rng = SimRng::seed_from(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let layout = self.layout(nthreads);
        let private_base = layout.shared_lines + thread as u64 * layout.private_lines;
        let mut program = ThreadProgram::new();
        let mut walk = 0u64; // streaming cursor within the reuse window
        let mut window_start = 0u64;
        let mut burst: u32 = 0; // remaining migratory burst length
        let mut burst_addr = Addr(0);
        let flag_line = layout.shared_lines - 1 - (thread as u64 % 8);

        for i in 0..ops {
            // Compute gap.
            if self.work_cycles > 0 {
                let w = rng.range(
                    (self.work_cycles / 2).max(1) as u64,
                    (self.work_cycles * 3 / 2) as u64,
                ) as u32;
                program.instrs.push(Instr::Work(w));
            }
            // Synchronization (lock handoff / barrier approximation).
            if self.sync_every > 0 && i > 0 && i % self.sync_every == 0 {
                program = program.store_rel(Addr(flag_line), i as u64);
                program = program.load_acq(Addr(flag_line), Reg(7));
            }
            // Pick the address.
            let shared = rng.chance(self.shared_fraction);
            let (addr, force_rmw, force_write) = if burst > 0 {
                burst -= 1;
                (burst_addr, false, burst == 0) // burst ends with the write
            } else if shared {
                let hot = rng.chance(self.hot_fraction);
                if hot {
                    let a = Addr(rng.below(self.hot_lines.max(1)));
                    match self.pattern {
                        Pattern::Migratory => {
                            burst = 2;
                            burst_addr = a;
                            (a, false, false)
                        }
                        Pattern::Reduction => (a, rng.chance(self.rmw_fraction), false),
                        _ => (a, rng.chance(self.rmw_fraction), false),
                    }
                } else {
                    // Cold shared line; stencil threads touch their
                    // neighbours' boundary, pipelines split produce/consume.
                    let a = match self.pattern {
                        Pattern::Stencil => {
                            let seg = layout.shared_lines / nthreads as u64;
                            let neighbour = (thread + 1) % nthreads;
                            Addr(
                                self.hot_lines
                                    + (neighbour as u64 * seg + rng.below(seg.max(1)))
                                        % (layout.shared_lines - self.hot_lines).max(1),
                            )
                        }
                        _ => Addr(
                            self.hot_lines
                                + rng.below((layout.shared_lines - self.hot_lines).max(1)),
                        ),
                    };
                    (a, false, false)
                }
            } else {
                // Private access.
                let a = match self.pattern {
                    Pattern::Random => Addr(private_base + rng.below(layout.private_lines)),
                    _ => {
                        // Walk within a reuse window, advancing slowly.
                        walk += 1;
                        if walk.is_multiple_of(self.reuse_window * 4) {
                            window_start =
                                (window_start + self.reuse_window / 2) % layout.private_lines;
                        }
                        Addr(
                            private_base
                                + (window_start + walk % self.reuse_window) % layout.private_lines,
                        )
                    }
                };
                (a, false, false)
            };
            // Pick the operation.
            let is_pc_writer =
                self.pattern == Pattern::ProducerConsumer && thread.is_multiple_of(2);
            let write = force_write
                || rng.chance(if shared && is_pc_writer {
                    0.8
                } else if shared && self.pattern == Pattern::ProducerConsumer {
                    0.05
                } else {
                    self.write_fraction
                });
            if force_rmw {
                program = program.rmw(addr, 1, Reg((i % 6) as u8));
            } else if write {
                program = program.store(addr, (thread as u64) << 32 | i as u64);
            } else {
                program = program.load(addr, Reg((i % 6) as u8));
            }
        }
        program
    }

    /// All 33 workloads of the paper's evaluation.
    pub fn all() -> Vec<WorkloadSpec> {
        use Pattern::*;
        use Suite::*;
        let w =
            |name, suite, pattern, footprint, reuse, hot, sharedf, hotf, wf, rmwf, work, sync| {
                WorkloadSpec {
                    name,
                    suite,
                    pattern,
                    footprint,
                    reuse_window: reuse,
                    hot_lines: hot,
                    shared_fraction: sharedf,
                    hot_fraction: hotf,
                    write_fraction: wf,
                    rmw_fraction: rmwf,
                    work_cycles: work,
                    sync_every: sync,
                    zipf_skew: 0.0,
                }
            };
        vec![
            // ---- Splash-4 (14) ----
            w(
                "barnes", Splash4, Migratory, 2048, 38, 8, 0.009, 0.50, 0.35, 0.04, 6, 512,
            ),
            w(
                "cholesky", Splash4, Stencil, 4096, 64, 4, 0.007, 0.15, 0.30, 0.008, 10, 1024,
            ),
            w(
                "fft", Splash4, Streaming, 4096, 76, 2, 0.008, 0.08, 0.45, 0.0, 8, 2048,
            ),
            w(
                "fmm", Splash4, Migratory, 3072, 51, 6, 0.008, 0.30, 0.30, 0.02, 8, 1024,
            ),
            w(
                "lu-cont", Splash4, Stencil, 4096, 64, 4, 0.009, 0.18, 0.40, 0.0, 8, 1024,
            ),
            w(
                "lu-ncont", Splash4, Stencil, 4096, 38, 8, 0.015, 0.45, 0.40, 0.016, 6, 512,
            ),
            w(
                "ocean-cont",
                Splash4,
                Stencil,
                8192,
                89,
                4,
                0.006,
                0.10,
                0.35,
                0.0,
                10,
                1024,
            ),
            w(
                "ocean-ncont",
                Splash4,
                Stencil,
                8192,
                64,
                6,
                0.008,
                0.20,
                0.35,
                0.008,
                8,
                1024,
            ),
            w(
                "radiosity",
                Splash4,
                Migratory,
                2048,
                44,
                8,
                0.008,
                0.38,
                0.30,
                0.032,
                6,
                512,
            ),
            w(
                "radix", Splash4, Streaming, 8192, 76, 4, 0.008, 0.15, 0.50, 0.02, 6, 2048,
            ),
            w(
                "raytrace", Splash4, Random, 8192, 76, 2, 0.005, 0.06, 0.10, 0.008, 8, 2048,
            ),
            w(
                "volrend", Splash4, Random, 4096, 64, 2, 0.006, 0.08, 0.15, 0.008, 8, 2048,
            ),
            w(
                "water-nsq",
                Splash4,
                Migratory,
                2048,
                51,
                4,
                0.007,
                0.22,
                0.30,
                0.02,
                8,
                1024,
            ),
            w(
                "water-sp", Splash4, Stencil, 3072, 57, 3, 0.007, 0.14, 0.30, 0.012, 8, 1024,
            ),
            // ---- PARSEC (11) ----
            w(
                "blackscholes",
                Parsec,
                Streaming,
                4096,
                89,
                1,
                0.002,
                0.05,
                0.30,
                0.0,
                12,
                0,
            ),
            w(
                "bodytrack",
                Parsec,
                ProducerConsumer,
                3072,
                57,
                4,
                0.008,
                0.18,
                0.30,
                0.016,
                8,
                1024,
            ),
            w(
                "canneal", Parsec, Migratory, 8192, 38, 8, 0.011, 0.40, 0.35, 0.04, 5, 512,
            ),
            w(
                "dedup",
                Parsec,
                ProducerConsumer,
                4096,
                51,
                6,
                0.01,
                0.22,
                0.40,
                0.024,
                6,
                1024,
            ),
            w(
                "ferret",
                Parsec,
                ProducerConsumer,
                4096,
                57,
                4,
                0.007,
                0.16,
                0.25,
                0.016,
                8,
                1024,
            ),
            w(
                "fluidanimate",
                Parsec,
                Stencil,
                6144,
                57,
                6,
                0.009,
                0.22,
                0.40,
                0.02,
                6,
                512,
            ),
            w(
                "freqmine", Parsec, Random, 6144, 64, 4, 0.007, 0.14, 0.25, 0.02, 8, 1024,
            ),
            w(
                "streamcluster",
                Parsec,
                Reduction,
                4096,
                51,
                6,
                0.009,
                0.28,
                0.30,
                0.04,
                6,
                512,
            ),
            w(
                "swaptions",
                Parsec,
                Streaming,
                3072,
                83,
                1,
                0.002,
                0.05,
                0.30,
                0.0,
                12,
                0,
            ),
            w(
                "vips", Parsec, Streaming, 6144, 89, 1, 0.0017, 0.04, 0.35, 0.0, 10, 0,
            ),
            w(
                "x264",
                Parsec,
                ProducerConsumer,
                6144,
                64,
                4,
                0.007,
                0.12,
                0.30,
                0.008,
                8,
                1024,
            ),
            // ---- Phoenix (8) ----
            w(
                "histogram",
                Phoenix,
                Reduction,
                2048,
                38,
                12,
                0.010,
                0.60,
                0.50,
                0.12,
                4,
                256,
            ),
            w(
                "kmeans", Phoenix, Reduction, 3072, 51, 8, 0.009, 0.30, 0.30, 0.048, 6, 512,
            ),
            w(
                "linear-regression",
                Phoenix,
                Reduction,
                2048,
                64,
                4,
                0.008,
                0.22,
                0.25,
                0.04,
                8,
                512,
            ),
            w(
                "matrix-multiply",
                Phoenix,
                Streaming,
                6144,
                76,
                2,
                0.004,
                0.06,
                0.20,
                0.0,
                8,
                2048,
            ),
            w(
                "pca", Phoenix, Stencil, 4096, 64, 4, 0.007, 0.15, 0.25, 0.016, 8, 1024,
            ),
            w(
                "string-match",
                Phoenix,
                Streaming,
                4096,
                76,
                2,
                0.004,
                0.06,
                0.15,
                0.008,
                10,
                0,
            ),
            w(
                "word-count",
                Phoenix,
                Reduction,
                3072,
                44,
                10,
                0.012,
                0.50,
                0.40,
                0.088,
                5,
                256,
            ),
            w(
                "reverse-index",
                Phoenix,
                Reduction,
                4096,
                51,
                8,
                0.009,
                0.35,
                0.35,
                0.06,
                6,
                512,
            ),
        ]
    }

    /// An OLTP/KV transaction workload over a power-of-two keyspace of
    /// `keys` record cachelines with Zipfian skew `skew` ∈ [0, 1).
    /// `write_fraction` is the update-transaction mix (default 0.5, a
    /// YCSB-A-like 50/50); mutate the returned (Copy) spec to sweep it.
    pub fn oltp_kv(name: &'static str, keys: u64, skew: f64) -> WorkloadSpec {
        // Validate eagerly so misconfiguration fails at spec build, not
        // mid-generation.
        let _ = OltpLayout::for_keys(keys);
        WorkloadSpec {
            name,
            suite: Suite::Oltp,
            pattern: Pattern::OltpKv,
            footprint: OltpLayout::for_keys(keys).span,
            reuse_window: 1,
            hot_lines: keys,
            shared_fraction: 1.0,
            hot_fraction: 1.0,
            write_fraction: 0.5,
            rmw_fraction: 1.0,
            work_cycles: 4,
            sync_every: 0,
            zipf_skew: skew,
        }
    }

    /// The named OLTP workloads: the paper-scale 2²⁰-key (≥10⁶ distinct
    /// hot lines) engine at YCSB-standard skews, plus a small smoke
    /// variant for CI and perf gating.
    pub fn oltp_all() -> Vec<WorkloadSpec> {
        vec![
            Self::oltp_kv("oltp-uniform", 1 << 20, 0.0),
            Self::oltp_kv("oltp-zipf", 1 << 20, 0.99),
            Self::oltp_kv("oltp-quick", 1 << 14, 0.99),
        ]
    }

    /// Committed-transaction counts of this OLTP spec's whole system,
    /// summed over its `nthreads` generated streams (one sampler, as in
    /// [`WorkloadSpec::programs`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec is not [`Pattern::OltpKv`].
    pub fn oltp_txns(&self, nthreads: usize, ops: usize, seed: u64) -> OltpTxnCounts {
        assert_eq!(self.pattern, Pattern::OltpKv, "not an OLTP spec");
        let gen = oltp::Generator::new(self);
        let mut total = OltpTxnCounts::default();
        for t in 0..nthreads {
            total.merge(gen.thread(t, ops, seed).1);
        }
        total
    }

    /// Look up a workload by name (the 33 paper workloads, then the
    /// named OLTP variants).
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        Self::all()
            .into_iter()
            .chain(Self::oltp_all())
            .find(|w| w.name == name)
    }

    /// Workloads of one suite.
    pub fn suite(suite: Suite) -> Vec<WorkloadSpec> {
        Self::all()
            .into_iter()
            .filter(|w| w.suite == suite)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_33_workloads_with_paper_suite_sizes() {
        let all = WorkloadSpec::all();
        assert_eq!(all.len(), 33);
        assert_eq!(WorkloadSpec::suite(Suite::Splash4).len(), 14);
        assert_eq!(WorkloadSpec::suite(Suite::Parsec).len(), 11);
        assert_eq!(WorkloadSpec::suite(Suite::Phoenix).len(), 8);
        let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 33, "duplicate names");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::by_name("barnes").unwrap();
        let a = spec.generate(0, 8, 200, 42);
        let b = spec.generate(0, 8, 200, 42);
        assert_eq!(a, b);
        let c = spec.generate(0, 8, 200, 43);
        assert_ne!(a, c, "seed must matter");
        let d = spec.generate(1, 8, 200, 42);
        assert_ne!(a, d, "thread id must matter");
    }

    #[test]
    fn system_pass_matches_per_thread_generation() {
        let (n, ops, seed) = (4, 120, 7);
        for spec in WorkloadSpec::all()
            .into_iter()
            .chain(WorkloadSpec::oltp_all())
        {
            let programs = spec.programs(n, ops, seed);
            assert_eq!(programs.len(), n, "{}", spec.name);
            for (t, p) in programs.iter().enumerate() {
                assert_eq!(
                    *p,
                    spec.generate(t, n, ops, seed),
                    "{} thread {t}",
                    spec.name
                );
            }
            if spec.pattern != Pattern::OltpKv {
                continue;
            }
            // The sweep's whole-system counts are the generator's own,
            // and they describe the programs the system runs.
            let mut per_thread = OltpTxnCounts::default();
            for t in 0..n {
                per_thread.merge(oltp::Generator::new(&spec).thread(t, ops, seed).1);
            }
            assert_eq!(spec.oltp_txns(n, ops, seed), per_thread, "{}", spec.name);
            let instrs = || programs.iter().flat_map(|p| &p.instrs);
            let rmws = instrs().filter(|i| matches!(i, Instr::Rmw { .. })).count() as u64;
            let mem_ops = instrs().filter(|i| i.addr().is_some()).count() as u64;
            assert_eq!((rmws, mem_ops), (per_thread.updates, per_thread.mem_ops));
        }
    }

    #[test]
    fn generated_ops_count_matches() {
        let spec = WorkloadSpec::by_name("vips").unwrap();
        let p = spec.generate(0, 8, 300, 1);
        let mem_ops = p.instrs.iter().filter(|i| i.addr().is_some()).count();
        // sync flag accesses may add a few
        assert!((300..=320).contains(&mem_ops), "{mem_ops}");
    }

    #[test]
    fn addresses_stay_within_footprint() {
        for spec in WorkloadSpec::all() {
            let layout = spec.layout(8);
            let bound = layout.shared_lines + 8 * layout.private_lines;
            let p = spec.generate(3, 8, 400, 9);
            for i in &p.instrs {
                if let Some(a) = i.addr() {
                    assert!(a.0 < bound, "{}: {a} out of bounds {bound}", spec.name);
                }
            }
        }
    }

    #[test]
    fn contended_workloads_touch_hot_lines_more() {
        let hist = WorkloadSpec::by_name("histogram").unwrap();
        let vips = WorkloadSpec::by_name("vips").unwrap();
        let count_hot = |spec: &WorkloadSpec| {
            let p = spec.generate(0, 8, 10_000, 5);
            p.instrs
                .iter()
                .filter_map(|i| i.addr())
                .filter(|a| a.0 < spec.hot_lines)
                .count()
        };
        assert!(
            count_hot(&hist) > 5 * count_hot(&vips).max(1),
            "histogram {} vs vips {}",
            count_hot(&hist),
            count_hot(&vips)
        );
    }

    #[test]
    fn rmw_density_follows_spec() {
        let hist = WorkloadSpec::by_name("histogram").unwrap();
        let rmw_count = |spec: &WorkloadSpec| {
            let p = spec.generate(0, 8, 10_000, 5);
            p.instrs
                .iter()
                .filter(|i| matches!(i, Instr::Rmw { .. }))
                .count()
        };
        let h = rmw_count(&hist);
        let bs = rmw_count(&WorkloadSpec::by_name("blackscholes").unwrap());
        assert!(h > 0, "histogram must issue RMWs");
        assert!(
            h > 5 * bs.max(1),
            "histogram ({h}) should be far more RMW-heavy than blackscholes ({bs})"
        );
    }

    #[test]
    fn producer_consumer_roles_differ() {
        let dedup = WorkloadSpec::by_name("dedup").unwrap();
        let shared_writes = |thread: usize| {
            let p = dedup.generate(thread, 8, 20_000, 3);
            let layout = dedup.layout(8);
            p.instrs
                .iter()
                .filter(|i| {
                    i.is_write() && i.addr().map(|a| a.0 < layout.shared_lines).unwrap_or(false)
                })
                .count()
        };
        assert!(
            shared_writes(0) > 2 * shared_writes(1).max(1),
            "producer {} vs consumer {}",
            shared_writes(0),
            shared_writes(1)
        );
    }

    #[test]
    fn sync_period_inserts_releases() {
        let spec = WorkloadSpec::by_name("barnes").unwrap();
        // barnes syncs every 512 accesses after calibration.
        let p = spec.generate(0, 8, 4 * spec.sync_every, 3);
        let releases = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Store { order, .. } if order.is_release()))
            .count();
        assert!(releases >= 3, "{releases}");
        let vips = WorkloadSpec::by_name("vips").unwrap();
        let p = vips.generate(0, 8, 400, 3);
        let releases = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Store { order, .. } if order.is_release()))
            .count();
        assert_eq!(releases, 0);
    }
}
