//! Verifier throughput benchmark: whole-DEX verification with and without
//! the digest-keyed verify cache, reported as verified instructions per
//! second.
//!
//! Three single-pass measurements per corpus:
//!
//! * **uncached** — `VerifyOptions::default().without_cache()`;
//! * **cold** — against an empty verify cache (pays the key digest and
//!   the insert on top of verification);
//! * **warm** — re-verifying the same corpus, so every DEX is served from
//!   the cache.
//!
//! The headline number is the *corpus workload*: every DEX verified
//! `rounds` times, modelling the pipeline's verification gate plus the
//! taint tools each re-verifying the same revealed DEX. The cached side
//! runs the workload against one shared cache; the uncached side
//! re-verifies every round from scratch.
//!
//! Before any timing, the cold and warm cached results are checked against
//! the uncached one over the full typed result — diagnostics, hierarchy
//! and every method's IR — or the bench panics.

use std::time::Instant;

use dexlego_dex::DexFile;
use dexlego_harness::json;
use dexlego_verifier::{clear_verify_cache, verify_dex_typed, TypeId, TypedDex, VerifyOptions};

/// Everything measured over one corpus.
#[derive(Debug, Clone)]
pub struct VerifierBenchResult {
    /// Apps in the corpus.
    pub apps: usize,
    /// Method bodies verified per corpus pass.
    pub methods: usize,
    /// Instructions verified per corpus pass.
    pub insns: u64,
    /// Rounds per corpus-workload measurement.
    pub rounds: u32,
    /// Best-of-N seconds for one pass with the cache disabled.
    pub uncached_s: f64,
    /// Best-of-N seconds for one pass against an empty cache.
    pub cold_s: f64,
    /// Best-of-N seconds for one pass against a warm cache.
    pub warm_s: f64,
    /// Seconds for `rounds` passes with the cache disabled.
    pub corpus_uncached_s: f64,
    /// Seconds for `rounds` passes sharing one cache, starting empty.
    pub corpus_cached_s: f64,
    /// Verify-cache hits across the cached corpus workload.
    pub cache_hits: u64,
    /// Verify-cache misses across the cached corpus workload.
    pub cache_misses: u64,
}

impl VerifierBenchResult {
    /// Cold-pass speedup over an uncached pass (below 1: the key digest
    /// and insert cost more than nothing).
    pub fn cold_speedup(&self) -> f64 {
        self.uncached_s / self.cold_s.max(1e-9)
    }

    /// Warm-pass speedup over an uncached pass (pure cache hits).
    pub fn warm_speedup(&self) -> f64 {
        self.uncached_s / self.warm_s.max(1e-9)
    }

    /// Corpus-workload speedup: `rounds` uncached passes versus `rounds`
    /// passes sharing the verify cache. The headline number.
    pub fn corpus_speedup(&self) -> f64 {
        self.corpus_uncached_s / self.corpus_cached_s.max(1e-9)
    }

    /// Uncached verified instructions per second (single pass).
    pub fn uncached_insns_per_s(&self) -> f64 {
        self.insns as f64 / self.uncached_s.max(1e-9)
    }

    /// Cached corpus-workload instructions per second.
    pub fn corpus_cached_insns_per_s(&self) -> f64 {
        (self.insns * u64::from(self.rounds)) as f64 / self.corpus_cached_s.max(1e-9)
    }
}

/// Builds the corpus: generated apps with realistic class/method shapes.
fn corpus(apps: usize, base_insns: usize) -> Vec<DexFile> {
    dexlego_droidbench::appgen::corpus_apps(apps, base_insns)
        .into_iter()
        .map(|(_, app)| app.dex)
        .collect()
}

/// One corpus pass under `options`; returns the typed results and seconds.
fn pass(dexes: &[DexFile], options: &VerifyOptions) -> (Vec<TypedDex>, f64) {
    let start = Instant::now();
    let typed: Vec<TypedDex> = dexes.iter().map(|d| verify_dex_typed(d, options)).collect();
    (typed, start.elapsed().as_secs_f64())
}

/// The hierarchy's interned names in `TypeId` order plus every method's
/// identity and typed instructions, rendered for exact comparison (the
/// hash-map lookup tables are left out: their debug order varies).
fn render_ir(t: &TypedDex) -> String {
    let names: Vec<&str> = (0..t.hierarchy.len())
        .map(|i| t.hierarchy.name(TypeId(i as u32)))
        .collect();
    let mut out = format!("{names:?}");
    for ir in &t.methods {
        out.push_str(&format!(
            "\n{} #{} {} {} regs={} ins={} {:?}",
            ir.signature, ir.method_idx, ir.class, ir.name, ir.registers, ir.ins, ir.insns
        ));
    }
    out
}

/// Panics unless `cached` equals `uncached` per DEX in diagnostics,
/// hierarchy and every method's typed IR.
fn assert_identical(uncached: &[TypedDex], cached: &[TypedDex], what: &str) {
    assert_eq!(uncached.len(), cached.len());
    for (i, (u, c)) in uncached.iter().zip(cached).enumerate() {
        assert_eq!(
            u.diagnostics, c.diagnostics,
            "app {i}: {what} diagnostics diverge from an uncached run"
        );
        assert!(
            render_ir(u) == render_ir(c),
            "app {i}: {what} typed IR diverges from an uncached run"
        );
    }
}

/// Runs the full measurement over `apps` generated apps of `base_insns`
/// baseline size: single-pass uncached/cold/warm (best of `repeats`), then
/// the `rounds`-pass corpus workload with and without the cache.
pub fn run(apps: usize, base_insns: usize, rounds: u32, repeats: u32) -> VerifierBenchResult {
    let dexes = corpus(apps, base_insns);
    let uncached_opts = VerifyOptions::default().without_cache();
    let cached_opts = VerifyOptions::default();

    // Before any timing: a cold and a warm cached pass must both reproduce
    // the uncached result exactly.
    let (uncached_typed, _) = pass(&dexes, &uncached_opts);
    clear_verify_cache();
    let (cold_typed, _) = pass(&dexes, &cached_opts);
    assert_identical(&uncached_typed, &cold_typed, "cold cached");
    let (warm_typed, _) = pass(&dexes, &cached_opts);
    assert_identical(&uncached_typed, &warm_typed, "warm cached");
    let methods: usize = uncached_typed.iter().map(|t| t.methods.len()).sum();
    let insns: u64 = uncached_typed.iter().map(|t| t.insn_count() as u64).sum();

    let mut uncached_s = f64::MAX;
    let mut cold_s = f64::MAX;
    let mut warm_s = f64::MAX;
    for _ in 0..repeats.max(1) {
        let (_, s) = pass(&dexes, &uncached_opts);
        uncached_s = uncached_s.min(s);
        clear_verify_cache();
        let (_, s) = pass(&dexes, &cached_opts);
        cold_s = cold_s.min(s);
        // The cache is now warm from the cold pass.
        let (_, s) = pass(&dexes, &cached_opts);
        warm_s = warm_s.min(s);
    }

    // Corpus workload: every DEX verified `rounds` times. Both sides are
    // best-of-`repeats`; each cached repeat starts cold so a measurement is
    // always one cold round plus `rounds - 1` warm ones.
    let mut corpus_uncached_s = f64::MAX;
    let mut corpus_cached_s = f64::MAX;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        for _ in 0..rounds {
            pass(&dexes, &uncached_opts);
        }
        corpus_uncached_s = corpus_uncached_s.min(start.elapsed().as_secs_f64());

        clear_verify_cache();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let start = Instant::now();
        for _ in 0..rounds {
            let (typed, _) = pass(&dexes, &cached_opts);
            for t in &typed {
                hits += t.cache_hits;
                misses += t.cache_misses;
            }
        }
        let s = start.elapsed().as_secs_f64();
        if s < corpus_cached_s {
            corpus_cached_s = s;
            cache_hits = hits;
            cache_misses = misses;
        }
    }

    VerifierBenchResult {
        apps: dexes.len(),
        methods,
        insns,
        rounds,
        uncached_s,
        cold_s,
        warm_s,
        corpus_uncached_s,
        corpus_cached_s,
        cache_hits,
        cache_misses,
    }
}

/// Formats the results as one JSON object (BENCH_verifier.json).
pub fn format(r: &VerifierBenchResult) -> String {
    json::object(&[
        ("experiment", json::string("verifier")),
        ("apps", r.apps.to_string()),
        ("methods", r.methods.to_string()),
        ("insns", r.insns.to_string()),
        ("rounds", r.rounds.to_string()),
        ("uncached_us", format!("{:.0}", r.uncached_s * 1e6)),
        ("cold_us", format!("{:.0}", r.cold_s * 1e6)),
        ("warm_us", format!("{:.0}", r.warm_s * 1e6)),
        (
            "corpus_uncached_us",
            format!("{:.0}", r.corpus_uncached_s * 1e6),
        ),
        (
            "corpus_cached_us",
            format!("{:.0}", r.corpus_cached_s * 1e6),
        ),
        (
            "uncached_insns_per_s",
            format!("{:.0}", r.uncached_insns_per_s()),
        ),
        (
            "corpus_cached_insns_per_s",
            format!("{:.0}", r.corpus_cached_insns_per_s()),
        ),
        ("cold_speedup", format!("{:.2}", r.cold_speedup())),
        ("warm_speedup", format!("{:.2}", r.warm_speedup())),
        ("corpus_speedup", format!("{:.2}", r.corpus_speedup())),
        ("cache_hits", r.cache_hits.to_string()),
        ("cache_misses", r.cache_misses.to_string()),
    ])
}
