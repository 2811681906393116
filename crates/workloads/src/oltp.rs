//! OLTP/KV transaction-trace generator.
//!
//! Models the sharing structure of an in-memory key-value / OLTP engine
//! at a footprint far larger than the set of lines in flight at once:
//! a keyspace of **≥ 2²⁰ distinct record cachelines** accessed with a
//! Zipfian skew, plus the metadata cachelines a real engine contends on —
//! packed lock words, packed version words, B⁺-tree index nodes and a
//! hash-index bucket array. What matters for the coherence protocols is
//! *which lines* transactions touch and in *what order* (index walk →
//! lock acquire → record read/write → version bump → lock release), not
//! the transaction logic itself, so the generator emits exactly that
//! line-level skeleton.
//!
//! Everything is deterministic: each thread derives its stream from
//! `seed ^ thread·φ` like every other workload, the Zipfian sampler is the
//! classical Gray et al. incremental-η form (the YCSB `ZipfianGenerator`),
//! and ranks are scattered over the keyspace with a fixed odd-multiplier
//! bijection so that "hot" keys are spread across the address space (and
//! therefore across 4 KB pages) rather than clustered at the bottom.

use c3_protocol::ops::{Addr, Instr, Reg, ThreadProgram};
use c3_sim::rng::SimRng;

use crate::WorkloadSpec;

/// Keys covered by one lock word (a real engine stripes its lock table).
const KEYS_PER_LOCK: u64 = 64;
/// 8-byte words packed into one 64-byte cacheline. Packing lock/version
/// words is what makes them *contended* lines (false sharing included),
/// exactly as in a real slotted lock table.
const WORDS_PER_LINE: u64 = 8;
/// Keys per B⁺-tree leaf node line.
const KEYS_PER_LEAF: u64 = 8;
/// Leaves per inner node line.
const LEAVES_PER_INNER: u64 = 64;
/// Keyspace-to-hash-bucket ratio (4 keys chain into one bucket line).
const KEYS_PER_BUCKET: u64 = 4;

/// Fixed odd multiplier (2⁶⁴/φ); multiplication by an odd constant is a
/// bijection mod 2^k, so ranks map 1:1 onto keys for power-of-two
/// keyspaces.
const SCATTER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cacheline map of the OLTP engine's shared footprint. All bases are
/// line numbers from the bottom of the shared region.
#[derive(Clone, Copy, Debug)]
pub struct OltpLayout {
    /// Number of record keys (one cacheline each) — the hot keyspace.
    pub keys: u64,
    /// Base of the packed lock-word array.
    pub lock_base: u64,
    /// Base of the packed version-word array.
    pub version_base: u64,
    /// Base of the B⁺-tree leaf level.
    pub leaf_base: u64,
    /// Base of the B⁺-tree inner level.
    pub inner_base: u64,
    /// The (single) B⁺-tree root line.
    pub root_line: u64,
    /// Base of the hash-index bucket array.
    pub bucket_base: u64,
    /// Total shared lines (one past the last bucket).
    pub span: u64,
}

impl OltpLayout {
    /// Derive the layout for a power-of-two keyspace.
    pub fn for_keys(keys: u64) -> OltpLayout {
        assert!(
            keys.is_power_of_two() && keys >= 512,
            "OLTP keyspace must be a power of two >= 512, got {keys}"
        );
        let lock_lines = (keys / KEYS_PER_LOCK / WORDS_PER_LINE).max(1);
        let version_lines = keys / WORDS_PER_LINE;
        let leaf_lines = keys / KEYS_PER_LEAF;
        let inner_lines = (leaf_lines / LEAVES_PER_INNER).max(1);
        let bucket_lines = keys / KEYS_PER_BUCKET;
        let lock_base = keys;
        let version_base = lock_base + lock_lines;
        let leaf_base = version_base + version_lines;
        let inner_base = leaf_base + leaf_lines;
        let root_line = inner_base + inner_lines;
        let bucket_base = root_line + 1;
        OltpLayout {
            keys,
            lock_base,
            version_base,
            leaf_base,
            inner_base,
            root_line,
            bucket_base,
            span: bucket_base + bucket_lines,
        }
    }

    /// Record line of `key`.
    pub fn record(&self, key: u64) -> Addr {
        Addr(key)
    }

    /// Lock line guarding `key` (packed stripe).
    pub fn lock(&self, key: u64) -> Addr {
        let word = key % (self.keys / KEYS_PER_LOCK).max(1);
        Addr(self.lock_base + word / WORDS_PER_LINE)
    }

    /// Version-word line of `key` (packed).
    pub fn version(&self, key: u64) -> Addr {
        Addr(self.version_base + key / WORDS_PER_LINE)
    }

    /// B⁺-tree leaf holding `key`.
    pub fn leaf(&self, key: u64) -> Addr {
        Addr(self.leaf_base + key / KEYS_PER_LEAF)
    }

    /// B⁺-tree inner node above `key`'s leaf.
    pub fn inner(&self, key: u64) -> Addr {
        Addr(self.inner_base + (key / KEYS_PER_LEAF / LEAVES_PER_INNER) % self.inner_lines())
    }

    /// Hash-index bucket chaining to `key` (scattered so bucket heat is
    /// decoupled from record heat).
    pub fn bucket(&self, key: u64) -> Addr {
        Addr(self.bucket_base + key.wrapping_mul(SCATTER) % (self.keys / KEYS_PER_BUCKET))
    }

    fn inner_lines(&self) -> u64 {
        self.root_line - self.inner_base
    }
}

/// Map a Zipfian rank (0 = hottest) onto a key, bijectively.
fn scatter(rank: u64, keys: u64) -> u64 {
    rank.wrapping_mul(SCATTER) & (keys - 1)
}

/// Terms of ζ summed directly before the Euler–Maclaurin tail.
const ZETA_HEAD: u64 = 63;

/// ζ(n, θ) = Σ_{i=1..n} i^-θ, summed left to right: the reference the
/// closed form replaces, and still the value for small `n`.
fn zeta_direct(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>()
}

/// ζ(n, θ) for θ ∈ (0, 1) in O(1): the first [`ZETA_HEAD`] terms summed
/// directly, and the tail Σ_{i=m..n} i^-θ (m = 64) by Euler–Maclaurin.
/// The integral (n^(1-θ) − m^(1-θ))/(1-θ) is written with `expm1` so it
/// keeps its precision as θ → 1, and three Bernoulli corrections leave a
/// remainder below 10⁻¹⁸ (the next one is ~B₈/8!·f⁽⁷⁾(64)), so the
/// result is within a few ulp of the exact sum. `n ≤ 64` sums directly.
fn zeta(n: u64, theta: f64) -> f64 {
    let m = ZETA_HEAD + 1;
    if n <= m {
        return zeta_direct(n, theta);
    }
    let (mf, nf) = (m as f64, n as f64);
    let f = |x: f64| x.powf(-theta);
    // f^(2k-1)(x) = −θ(θ+1)…(θ+2k−2)·x^(−θ−2k+1); `rise` is the product.
    let odd_derivative_gap = |rise: f64, k: i32| {
        let d = |x: f64| -rise * x.powf(-theta - f64::from(2 * k - 1));
        d(nf) - d(mf)
    };
    let integral = mf.powf(1.0 - theta) * ((1.0 - theta) * (nf / mf).ln()).exp_m1() / (1.0 - theta);
    let r1 = theta;
    let r3 = r1 * (theta + 1.0) * (theta + 2.0);
    let r5 = r3 * (theta + 3.0) * (theta + 4.0);
    let corrections = odd_derivative_gap(r1, 1) / 12.0 - odd_derivative_gap(r3, 2) / 720.0
        + odd_derivative_gap(r5, 3) / 30_240.0;
    let tail = integral + (f(mf) + f(nf)) / 2.0 + corrections;
    let head: f64 = (1..=ZETA_HEAD).rev().map(|i| f(i as f64)).sum();
    head + tail
}

/// The classical Zipfian sampler over `[0, n)` with parameter `theta`
/// (Gray et al., "Quickly generating billion-record synthetic databases",
/// SIGMOD'94 — the YCSB formulation). `theta = 0` degenerates to uniform
/// and builds nothing; `theta → 1` concentrates mass on the lowest ranks.
/// Construction and sampling are both O(1): [`zeta`] has a closed form.
#[derive(Clone, Debug)]
enum Zipfian {
    /// θ = 0: a uniform draw, which needs no ζ sum.
    Uniform { n: u64 },
    /// θ ∈ (0, 1).
    Skewed {
        n: u64,
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
    },
}

impl Zipfian {
    fn new(n: u64, theta: f64) -> Zipfian {
        assert!(
            (0.0..1.0).contains(&theta),
            "Zipfian skew must be in [0, 1), got {theta}"
        );
        if theta == 0.0 {
            return Zipfian::Uniform { n };
        }
        Zipfian::skewed(n, theta, zeta(n, theta))
    }

    /// The skewed sampler over `[0, n)` given ζ(n, θ).
    fn skewed(n: u64, theta: f64, zetan: f64) -> Zipfian {
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian::Skewed {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular.
    fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            Zipfian::Uniform { n } => rng.below(n),
            Zipfian::Skewed {
                n,
                theta,
                alpha,
                zetan,
                eta,
            } => {
                let u = rng.unit_f64();
                let uz = u * zetan;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(theta) {
                    return 1;
                }
                let rank = (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64;
                rank.min(n - 1)
            }
        }
    }
}

/// Deterministic transaction counts of one generated stream, or merged
/// over a whole system's (what the `oltp` harness reports throughput
/// over).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OltpTxnCounts {
    /// Committed update transactions (tree walk, lock, write, version
    /// bump, release).
    pub updates: u64,
    /// Committed read-only transactions (hash probe, optimistic
    /// version-validated read).
    pub reads: u64,
    /// Memory operations emitted (excluding `Work` gaps).
    pub mem_ops: u64,
}

impl OltpTxnCounts {
    /// Total committed transactions.
    pub fn total(&self) -> u64 {
        self.updates + self.reads
    }

    /// Accumulate another thread's counts.
    pub fn merge(&mut self, other: OltpTxnCounts) {
        self.updates += other.updates;
        self.reads += other.reads;
        self.mem_ops += other.mem_ops;
    }
}

/// An OLTP spec's generator state — the layout and the Zipfian
/// sampler, both O(1) to build. Shared by every thread's stream of one
/// system; nothing outlives it.
pub(crate) struct Generator {
    spec: WorkloadSpec,
    layout: OltpLayout,
    zipf: Zipfian,
}

impl Generator {
    pub(crate) fn new(spec: &WorkloadSpec) -> Generator {
        let layout = OltpLayout::for_keys(spec.hot_lines);
        Generator {
            spec: *spec,
            layout,
            zipf: Zipfian::new(layout.keys, spec.zipf_skew),
        }
    }

    /// Generate thread `thread`'s transaction stream: whole transactions
    /// are emitted until at least `ops` memory operations have been
    /// produced (the last transaction may overshoot by a few).
    pub(crate) fn thread(
        &self,
        thread: usize,
        ops: usize,
        seed: u64,
    ) -> (ThreadProgram, OltpTxnCounts) {
        let (spec, layout) = (&self.spec, &self.layout);
        let mut rng = SimRng::seed_from(seed ^ (thread as u64).wrapping_mul(SCATTER));
        let mut program = ThreadProgram::new();
        let mut counts = OltpTxnCounts::default();

        while (counts.mem_ops as usize) < ops {
            if spec.work_cycles > 0 {
                let w = rng.range(
                    (spec.work_cycles / 2).max(1) as u64,
                    (spec.work_cycles * 3 / 2) as u64,
                ) as u32;
                program.instrs.push(Instr::Work(w));
            }
            let key = scatter(self.zipf.sample(&mut rng), layout.keys);
            let i = counts.total() as usize;
            let reg = Reg((i % 6) as u8);
            let val = (thread as u64) << 32 | i as u64;
            if rng.chance(spec.write_fraction) {
                // Update transaction: B⁺-tree walk to the leaf, striped lock
                // acquire (atomic RMW), record read-modify-write, version
                // bump, lock release. 8 memory operations.
                program = program
                    .load(Addr(layout.root_line), reg)
                    .load(layout.inner(key), reg)
                    .load(layout.leaf(key), reg)
                    .rmw(layout.lock(key), 1, reg)
                    .load(layout.record(key), reg)
                    .store(layout.record(key), val)
                    .store(layout.version(key), val)
                    .store_rel(layout.lock(key), val);
                counts.updates += 1;
                counts.mem_ops += 8;
            } else {
                // Read-only transaction: hash-index probe to the leaf, then
                // an optimistic version-validated record read (version, data,
                // version again). 5 memory operations.
                program = program
                    .load(layout.bucket(key), reg)
                    .load(layout.leaf(key), reg)
                    .load_acq(layout.version(key), reg)
                    .load(layout.record(key), reg)
                    .load(layout.version(key), reg);
                counts.reads += 1;
                counts.mem_ops += 5;
            }
        }
        (program, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(keys: u64, skew: f64) -> WorkloadSpec {
        let mut s = WorkloadSpec::oltp_kv("oltp-test", keys, skew);
        s.work_cycles = 0;
        s
    }

    fn generate(
        s: &WorkloadSpec,
        thread: usize,
        ops: usize,
        seed: u64,
    ) -> (ThreadProgram, OltpTxnCounts) {
        Generator::new(s).thread(thread, ops, seed)
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let l = OltpLayout::for_keys(1 << 14);
        assert!(l.lock_base == l.keys);
        assert!(l.version_base > l.lock_base);
        assert!(l.leaf_base > l.version_base);
        assert!(l.inner_base > l.leaf_base);
        assert!(l.root_line > l.inner_base);
        assert!(l.bucket_base == l.root_line + 1);
        assert!(l.span > l.bucket_base);
        // Every helper stays inside its own region.
        for key in [0, 1, 511, 8191, (1 << 14) - 1] {
            assert!(l.record(key).0 < l.lock_base);
            assert!((l.lock_base..l.version_base).contains(&l.lock(key).0));
            assert!((l.version_base..l.leaf_base).contains(&l.version(key).0));
            assert!((l.leaf_base..l.inner_base).contains(&l.leaf(key).0));
            assert!((l.inner_base..l.root_line).contains(&l.inner(key).0));
            assert!((l.bucket_base..l.span).contains(&l.bucket(key).0));
        }
    }

    #[test]
    fn scatter_is_a_bijection() {
        let keys = 1u64 << 12;
        let mut seen = vec![false; keys as usize];
        for rank in 0..keys {
            let k = scatter(rank, keys);
            assert!(!seen[k as usize], "collision at rank {rank}");
            seen[k as usize] = true;
        }
    }

    #[test]
    fn zipfian_skew_concentrates_on_low_ranks() {
        let mut rng = SimRng::seed_from(7);
        let z = Zipfian::new(1 << 16, 0.99);
        let n = 20_000;
        let hot = (0..n)
            .filter(|_| z.sample(&mut rng) < (1u64 << 16) / 100)
            .count();
        // Under YCSB's 0.99 skew the top 1% of ranks draw well over a
        // third of the samples; uniform would give ~1%.
        assert!(hot * 3 > n, "only {hot}/{n} samples in the top 1%");
        let u = Zipfian::new(1 << 16, 0.0);
        assert!(matches!(u, Zipfian::Uniform { .. }), "θ = 0 sums no ζ");
        let uhot = (0..n)
            .filter(|_| u.sample(&mut rng) < (1u64 << 16) / 100)
            .count();
        assert!(uhot * 20 < n, "{uhot}/{n} uniform samples in the top 1%");
    }

    /// ζ(n, θ) summed with Neumaier's compensation: within an ulp or so
    /// of the exact sum, as the plain left-to-right sum is not at 2²⁰.
    fn zeta_compensated(n: u64, theta: f64) -> f64 {
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        for i in 1..=n {
            let x = 1.0 / (i as f64).powf(theta);
            let t = sum + x;
            carry += if sum.abs() >= x.abs() {
                (sum - t) + x
            } else {
                (x - t) + sum
            };
            sum = t;
        }
        sum + carry
    }

    #[test]
    fn closed_form_zeta_matches_a_compensated_sum() {
        for n in [1, 2, 63, 64, 65, 1_000, 1 << 14, 1 << 20] {
            for theta in [0.01, 0.5, 0.8, 0.99, 0.999] {
                let (z, exact) = (zeta(n, theta), zeta_compensated(n, theta));
                let rel = ((z - exact) / exact).abs();
                assert!(rel <= 1e-13, "ζ({n}, {theta}) = {z}, sum {exact}: {rel:e}");
            }
        }
        // ζ(2²⁰, 0.99) is 15.4463230697172864… (40-digit reference); the
        // left-to-right sum the closed form replaced is ~280 ulp high.
        let z = zeta(1 << 20, 0.99);
        assert!(
            (z - 15.446_323_069_717_286).abs() <= 4.0 * f64::EPSILON * z,
            "{z}"
        );
    }

    /// Every (keys, skew) a pinned artifact draws from — the `oltp` sweep's
    /// skews over 2²⁰ keys and the 2¹⁴-key quick cell — gives the same
    /// ranks from the closed-form ζ as from the left-to-right sum.
    #[test]
    fn closed_form_sampler_draws_the_summed_samplers_ranks() {
        for (n, theta) in [
            (1u64 << 20, 0.99),
            (1 << 20, 0.8),
            (1 << 20, 0.5),
            (1 << 14, 0.99),
        ] {
            let new = Zipfian::new(n, theta);
            let old = Zipfian::skewed(n, theta, zeta_direct(n, theta));
            let (mut a, mut b) = (SimRng::seed_from(n ^ 17), SimRng::seed_from(n ^ 17));
            for draw in 0..1_000_000 {
                let (x, y) = (new.sample(&mut a), old.sample(&mut b));
                assert_eq!(x, y, "draw {draw} at ({n}, {theta})");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_thread_seeded() {
        let s = spec(1 << 10, 0.9);
        let (a, ca) = generate(&s, 0, 400, 42);
        let (b, cb) = generate(&s, 0, 400, 42);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        let (c, _) = generate(&s, 1, 400, 42);
        assert_ne!(a, c, "thread id must matter");
        let (d, _) = generate(&s, 0, 400, 43);
        assert_ne!(a, d, "seed must matter");
    }

    #[test]
    fn every_lock_acquire_has_a_matching_release() {
        let s = spec(1 << 10, 0.99);
        let (p, counts) = generate(&s, 2, 1_000, 5);
        let l = OltpLayout::for_keys(1 << 10);
        let lock_range = l.lock_base..l.version_base;
        let rmws = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Rmw { addr, .. } if lock_range.contains(&addr.0)))
            .count() as u64;
        let releases = p
            .instrs
            .iter()
            .filter(|i| {
                matches!(i, Instr::Store { order, addr, .. }
                if order.is_release() && lock_range.contains(&addr.0))
            })
            .count() as u64;
        assert_eq!(rmws, counts.updates);
        assert_eq!(releases, counts.updates);
        assert!(counts.updates > 0 && counts.reads > 0);
    }

    #[test]
    fn counts_match_emitted_mem_ops() {
        let s = spec(1 << 10, 0.5);
        let (p, counts) = generate(&s, 0, 777, 9);
        let mem = p.instrs.iter().filter(|i| i.addr().is_some()).count() as u64;
        assert_eq!(mem, counts.mem_ops);
        assert_eq!(counts.mem_ops, 8 * counts.updates + 5 * counts.reads);
        assert!(counts.mem_ops >= 777);
        assert!(counts.mem_ops < 777 + 8, "overshoot bounded by one txn");
    }

    #[test]
    fn addresses_stay_inside_the_shared_span() {
        let s = spec(1 << 10, 0.99);
        let l = OltpLayout::for_keys(1 << 10);
        let (p, _) = generate(&s, 3, 2_000, 11);
        for i in &p.instrs {
            if let Some(a) = i.addr() {
                assert!(a.0 < l.span, "{a} outside span {}", l.span);
            }
        }
    }

    #[test]
    fn skewed_stream_touches_few_distinct_records_per_op() {
        // The property the line store exploits: under skew most record
        // accesses revisit a small working set, so distinct-touched stays
        // far below the op count.
        let s = spec(1 << 14, 0.99);
        let (p, counts) = generate(&s, 0, 20_000, 3);
        let mut distinct = vec![false; 1 << 14];
        let mut record_ops = 0u64;
        for i in &p.instrs {
            if let Some(a) = i.addr() {
                if a.0 < (1 << 14) {
                    distinct[a.0 as usize] = true;
                    record_ops += 1;
                }
            }
        }
        let d = distinct.iter().filter(|x| **x).count() as u64;
        assert!(d * 2 < record_ops, "{d} distinct of {record_ops} accesses");
        assert!(counts.total() > 0);
    }
}
