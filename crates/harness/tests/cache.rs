//! Cache-aware batch runs against the persistent result store: a rerun of
//! the same corpus is served from disk, corrupted entries fall back to
//! re-extraction, and cached results are byte-identical to fresh ones.

use dexlego_harness::{cache, corpus, pool, HarnessConfig};
use dexlego_store::{object_path, Store, StoreConfig, TempDir};

fn small_corpus() -> Vec<dexlego_harness::JobSpec> {
    let spec = corpus::CorpusSpec {
        apps: 2,
        base_insns: 60,
        conformance: false,
        ..corpus::CorpusSpec::default()
    };
    corpus::work_list(&spec)
}

#[test]
fn second_batch_run_is_served_from_cache() {
    let dir = TempDir::new("harness-cache").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    let config = HarnessConfig::with_workers(2);

    let cold = cache::run_batch_cached(small_corpus(), &config, &store);
    assert!(cold.ok(), "{}", cold.summary());
    assert_eq!(cold.cache_hits(), 0, "cold run extracts everything");
    let after_cold = store.stats();
    assert_eq!(after_cold.entries as usize, cold.jobs.len());

    let warm = cache::run_batch_cached(small_corpus(), &config, &store);
    assert!(warm.ok(), "{}", warm.summary());
    assert_eq!(
        warm.cache_hits(),
        warm.jobs.len(),
        "warm run is all hits: {}",
        warm.summary()
    );
    // No new pipeline runs: the store saw no new puts.
    assert_eq!(store.stats().puts, after_cold.puts);
    // Cached reports still carry the original extraction's counters.
    for (cold_job, warm_job) in cold.jobs.iter().zip(&warm.jobs) {
        assert_eq!(cold_job.name, warm_job.name);
        assert!(warm_job.cached);
        for counter in ["methods_collected", "insns_collected"] {
            assert_eq!(
                cold_job.counter(counter),
                warm_job.counter(counter),
                "{counter}"
            );
        }
    }
}

#[test]
fn cached_dex_is_byte_identical_and_corruption_falls_back() {
    let dir = TempDir::new("harness-corrupt").unwrap();
    let store = Store::open(StoreConfig::new(dir.path())).unwrap();
    let jobs = small_corpus();
    let spec = jobs.into_iter().next().unwrap();
    let key = cache::job_key(&spec).expect("plain job is cacheable");

    let (fresh, fresh_dex) = cache::execute_job_cached(spec.clone(), &store);
    assert!(fresh.status.is_ok(), "{:?}", fresh.status);
    assert!(!fresh.cached);
    let fresh_dex = fresh_dex.expect("revealed DEX");

    let (warm, warm_dex) = cache::execute_job_cached(spec.clone(), &store);
    assert!(warm.cached, "second identical job served from cache");
    assert_eq!(
        warm_dex.as_deref(),
        Some(fresh_dex.as_slice()),
        "cache hit returns byte-identical revealed DEX"
    );

    // Corrupt the entry on disk; the next request must detect it,
    // quarantine the entry, and transparently re-extract.
    let path = object_path(dir.path(), key);
    let mut blob = std::fs::read(&path).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0xff;
    std::fs::write(&path, &blob).unwrap();

    let puts_before = store.stats().puts;
    let (recovered, recovered_dex) = cache::execute_job_cached(spec, &store);
    assert!(recovered.status.is_ok(), "{:?}", recovered.status);
    assert!(!recovered.cached, "corrupt entry forced a fresh extraction");
    assert_eq!(
        recovered_dex.as_deref(),
        Some(fresh_dex.as_slice()),
        "re-extraction reproduces the same bytes"
    );
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.puts, puts_before + 1, "fresh result re-cached");
}

#[test]
fn plain_run_batch_reports_no_hits() {
    let spec = corpus::CorpusSpec {
        apps: 1,
        base_insns: 60,
        packers: vec![None],
        conformance: false,
        ..corpus::CorpusSpec::default()
    };
    let report = pool::run_batch(corpus::work_list(&spec), &HarnessConfig::with_workers(1));
    assert!(report.ok(), "{}", report.summary());
    assert_eq!(report.cache_hits(), 0);
    assert!(!report.summary().contains("cached"));
}
