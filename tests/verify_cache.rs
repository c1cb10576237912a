//! Whole-DEX verification integration tests: parallel verification must
//! match sequential verification byte-for-byte, and the digest-keyed
//! verify cache must reproduce fresh results exactly, invalidate when code
//! changes, and report hit/miss counters.

use std::sync::Mutex;

use dexlego_suite::droidbench::appgen::corpus_apps;
use dexlego_suite::verifier::{clear_verify_cache, verify_dex_typed, TypedDex, VerifyOptions};

/// The verify cache is process-global; these tests serialize on it so one
/// test's `clear_verify_cache` cannot race another's warm pass.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn corpus(apps: usize, insns: usize) -> Vec<dexlego_suite::dex::DexFile> {
    corpus_apps(apps, insns)
        .into_iter()
        .map(|(_, app)| app.dex)
        .collect()
}

/// Everything observable about a typed verification result, rendered to
/// strings so two runs can be compared for exact equality: diagnostics,
/// per-method identity, frames, successors, and the disassembly.
fn fingerprint(typed: &TypedDex, dex: &dexlego_suite::dex::DexFile) -> Vec<String> {
    let mut out = vec![format!("diags: {:?}", typed.diagnostics)];
    for ir in &typed.methods {
        out.push(format!(
            "{} #{} regs={} ins={}",
            ir.signature, ir.method_idx, ir.registers, ir.ins
        ));
        out.extend(ir.disassemble(&typed.hierarchy, Some(dex)));
        for insn in &ir.insns {
            out.push(format!(
                "pc={} reachable={} frame={:?} succs={:?} uses={:?} defs={:?}",
                insn.pc, insn.reachable, insn.frame, insn.succs, insn.uses, insn.defs
            ));
        }
    }
    out
}

/// Verifying method bodies on four workers must produce the identical
/// diagnostics and typed IR as verifying them on one, over complete
/// generated apps (each has more bodies than the parallel threshold).
#[test]
fn parallel_verify_matches_sequential_on_whole_dex() {
    let parallel_opts = VerifyOptions::default().with_workers(4).without_cache();
    let sequential_opts = VerifyOptions::default().with_workers(1).without_cache();
    for dex in corpus(6, 640) {
        let parallel = verify_dex_typed(&dex, &parallel_opts);
        let sequential = verify_dex_typed(&dex, &sequential_opts);
        assert!(parallel.methods.len() >= 16, "too few bodies to fan out");
        assert_eq!(parallel.diagnostics, sequential.diagnostics);
        assert_eq!(fingerprint(&parallel, &dex), fingerprint(&sequential, &dex));
    }
}

/// A warm cache hit must reproduce the fresh result exactly, and the
/// hit/miss counters must account for every method body.
#[test]
fn warm_cache_hit_reproduces_fresh_result() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let opts = VerifyOptions::default();
    for dex in corpus(4, 100) {
        clear_verify_cache();
        let cold = verify_dex_typed(&dex, &opts);
        assert_eq!(cold.cache_hits, 0, "cold pass must not hit");
        assert!(cold.cache_misses > 0, "cold pass must populate the cache");
        let warm = verify_dex_typed(&dex, &opts);
        assert_eq!(warm.cache_misses, 0, "warm pass must not miss");
        assert_eq!(
            warm.cache_hits, cold.cache_misses,
            "every body served from cache"
        );
        assert_eq!(fingerprint(&warm, &dex), fingerprint(&cold, &dex));
    }
}

/// Mutating a method body must invalidate its cache entry: the next pass
/// misses again and matches a fresh no-cache verification of the mutated
/// DEX.
#[test]
fn cache_invalidates_when_code_changes() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let opts = VerifyOptions::default();
    let mut dex = corpus(1, 120).pop().unwrap();
    clear_verify_cache();
    let before = verify_dex_typed(&dex, &opts);
    assert!(before.cache_misses > 0);

    // Grow one method's frame: same instructions, different code digest.
    let method = dex
        .class_defs_mut()
        .iter_mut()
        .filter_map(|c| c.class_data.as_mut())
        .flat_map(|d| {
            d.direct_methods
                .iter_mut()
                .chain(d.virtual_methods.iter_mut())
        })
        .find(|m| m.code.is_some())
        .expect("corpus app has a method body");
    let code = method.code.as_mut().unwrap();
    code.registers_size += 1;

    let after = verify_dex_typed(&dex, &opts);
    assert!(after.cache_misses > 0, "changed code must miss the cache");
    let fresh = verify_dex_typed(&dex, &opts.clone().without_cache());
    assert_eq!(fingerprint(&after, &dex), fingerprint(&fresh, &dex));
}

/// `clear_verify_cache` empties the store: a pass after it verifies every
/// body fresh again, as the very first pass did.
#[test]
fn clear_resets_cache_population() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let opts = VerifyOptions::default();
    let dex = corpus(1, 80).pop().unwrap();
    clear_verify_cache();
    let first = verify_dex_typed(&dex, &opts);
    assert_eq!(first.cache_hits, 0, "an empty cache cannot hit");
    assert!(first.cache_misses > 0);
    let warm = verify_dex_typed(&dex, &opts);
    assert_eq!(
        warm.cache_hits, first.cache_misses,
        "verification populates the cache"
    );
    clear_verify_cache();
    let cleared = verify_dex_typed(&dex, &opts);
    assert_eq!(cleared.cache_hits, 0, "clear empties the cache");
    assert_eq!(cleared.cache_misses, first.cache_misses);
}
