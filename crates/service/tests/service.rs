//! End-to-end tests of the `dexlegod` daemon over a real TCP socket:
//! the ISSUE acceptance path (identical requests byte-identical, second
//! served from cache, corrupted entry transparently re-extracted),
//! overload shedding under a saturated pool, and graceful shutdown.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_harness::{job_key, JobReport, JobSpec, PoolExecutor};
use dexlego_service::{Client, Daemon, ExtractReply, ExtractRequest, ServiceConfig};
use dexlego_store::{object_path, Store, StoreConfig, TempDir};

fn sample_request(insns: usize) -> ExtractRequest {
    let (_, app) = corpus_apps(1, insns).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).expect("serialise generated app");
    let mut req = ExtractRequest::new(dex, &app.entry);
    req.packer = Some("360".to_owned());
    req
}

fn extract_done(client: &mut Client, req: &ExtractRequest) -> (bool, Vec<u8>) {
    match client.extract(req).expect("extract round-trip") {
        ExtractReply::Done { cached, dex, .. } => (cached, dex),
        other => panic!("extract did not complete: {other:?}"),
    }
}

fn stat_u64(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key:?}: {stats:?}"))
}

#[test]
fn identical_requests_hit_the_cache_and_corruption_reextracts() {
    let dir = TempDir::new("service-e2e").unwrap();
    let mut config = ServiceConfig::new(dir.path());
    config.workers = 2;
    let daemon = Daemon::start(config).expect("daemon starts");
    let addr = daemon.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");

    let req = sample_request(60);

    // Cold: runs the pipeline.
    let ExtractReply::Done {
        cached: cold_cached,
        dex: cold_dex,
        report: cold_report,
    } = client.extract(&req).expect("extract round-trip")
    else {
        panic!("cold extract did not complete");
    };
    assert!(!cold_cached, "first request cannot be a cache hit");
    assert!(!cold_dex.is_empty(), "revealed DEX is non-empty");
    let cold_counters = JobReport::from_json(&cold_report)
        .expect("report parses")
        .counters;
    assert!(
        cold_counters
            .iter()
            .any(|(name, _)| name == "verify_cache_misses"),
        "a pipeline run reports its verify-cache counters: {cold_counters:?}"
    );
    let cold_stats = client.stats().expect("stats after the cold run");
    for (name, n) in &cold_counters {
        assert_eq!(stat_u64(&cold_stats, name), *n, "stats sums {name}");
    }

    // Warm: byte-identical, served from the store, no new pipeline run.
    let (warm_cached, warm_dex) = extract_done(&mut client, &req);
    assert!(warm_cached, "second identical request is a cache hit");
    assert_eq!(warm_dex, cold_dex, "cache hit is byte-identical");

    let stats = client.stats().expect("stats");
    // The hit did none of the work its copied counters describe.
    for (name, _) in &cold_counters {
        assert_eq!(
            stat_u64(&stats, name),
            stat_u64(&cold_stats, name),
            "a store hit moved the {name} work counter"
        );
    }
    assert_eq!(stat_u64(&stats, "hits"), 1);
    assert_eq!(stat_u64(&stats, "misses"), 1);
    assert_eq!(stat_u64(&stats, "extracts"), 2);
    assert_eq!(stat_u64(&stats, "in_flight"), 0);
    let phases = stats.get("phases_us").expect("phase aggregates");
    assert!(
        phases.get("collect").is_some() || phases.get("reassemble").is_some(),
        "fresh extraction recorded phase timings: {phases:?}"
    );

    // Corrupt the stored entry on disk; the daemon must detect the bad
    // checksum, quarantine the entry, and transparently re-extract.
    let spec = req.to_spec("probe").expect("valid request");
    let key = job_key(&spec).expect("cacheable job");
    let path = object_path(dir.path(), key);
    let mut blob = std::fs::read(&path).expect("stored object exists");
    let mid = blob.len() / 2;
    blob[mid] ^= 0xff;
    std::fs::write(&path, &blob).unwrap();

    let (recovered_cached, recovered_dex) = extract_done(&mut client, &req);
    assert!(!recovered_cached, "corrupt entry forces a fresh extraction");
    assert_eq!(recovered_dex, cold_dex, "re-extraction reproduces bytes");

    let stats = client.stats().expect("stats after corruption");
    let store = stats.get("store").expect("store stats");
    assert_eq!(stat_u64(store, "quarantined"), 1);
    assert_eq!(stat_u64(store, "entries"), 1, "fresh result re-cached");

    // Malformed input gets an error reply and leaves the connection
    // usable.
    client.send_line("this is not json").unwrap();
    match client.recv().expect("error reply") {
        dexlego_service::Reply::Error(_) => {}
        other => panic!("expected error reply, got {other:?}"),
    }
    client.ping().expect("connection survives a bad request");

    client.shutdown().expect("graceful shutdown acknowledged");
    daemon.wait();
}

#[test]
fn saturated_pool_sheds_requests_and_drains_on_shutdown() {
    let dir = TempDir::new("service-overload").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());

    // Every job announces itself, then blocks until the test releases it,
    // keeping the queue full deterministically.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let started_tx = std::sync::Mutex::new(started_tx);
    let release_rx = std::sync::Mutex::new(release_rx);
    let exec: PoolExecutor = Arc::new(move |spec: JobSpec| {
        started_tx.lock().unwrap().send(()).expect("started signal");
        release_rx.lock().unwrap().recv().expect("release signal");
        (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
    });

    let mut config = ServiceConfig::new(dir.path());
    config.workers = 1;
    config.queue_depth = 1;
    // No event-loop-side queueing: a request that cannot enter the pool
    // immediately is shed, reproducing strict admission-control shedding.
    config.max_pending_per_conn = 0;
    let daemon = Daemon::start_with_executor(config, store, exec).expect("daemon starts");
    let addr = daemon.addr().to_string();

    let req = sample_request(40);
    let line = req.encode();
    let mut control = Client::connect(&addr).expect("control connection");

    // Job A: admitted and picked up by the single worker.
    let mut client_a = Client::connect(&addr).expect("connect A");
    client_a.send_line(&line).unwrap();
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker started job A");

    // Job B: admitted into the depth-1 queue. Wait until the pool counts
    // both before probing — in_flight is incremented at admission.
    let mut client_b = Client::connect(&addr).expect("connect B");
    client_b.send_line(&line).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = control.stats().expect("stats");
        if stat_u64(&stats, "in_flight") >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "job B was never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Job C: the queue is full, so the daemon must shed it immediately
    // with a structured reply instead of blocking.
    let mut client_c = Client::connect(&addr).expect("connect C");
    match client_c.extract(&req).expect("reply for C") {
        ExtractReply::Overloaded => {}
        other => panic!("expected overloaded, got {other:?}"),
    }

    // Release A and B; both pending clients get their results — nothing
    // admitted is lost.
    release_tx.send(()).unwrap();
    release_tx.send(()).unwrap();
    for client in [&mut client_a, &mut client_b] {
        match client.recv().expect("drained reply") {
            dexlego_service::Reply::Ok(_) => {}
            other => panic!("unexpected drained reply: {other:?}"),
        }
    }

    let stats = control.stats().expect("final stats");
    assert_eq!(stat_u64(&stats, "rejected"), 1, "rejections are counted");
    assert_eq!(stat_u64(&stats, "in_flight"), 0, "pool drained");

    control.shutdown().expect("graceful shutdown");
    daemon.wait();
}

#[test]
fn forged_header_count_gets_an_error_reply_and_the_daemon_lives() {
    let dir = TempDir::new("service-probe").unwrap();
    let daemon = Daemon::start(ServiceConfig::new(dir.path())).expect("daemon starts");
    let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");

    let probe = dexlego_service::probe::forged_string_count_dex();
    assert_eq!(probe.len(), 112);
    let req = ExtractRequest::new(probe, "LMain;");
    client.send_line(&req.encode()).unwrap();
    match client.recv().expect("a reply to the probe") {
        dexlego_service::Reply::Error(_) => {}
        other => panic!("expected an error reply, got {other:?}"),
    }
    client.ping().expect("daemon still answers after the probe");

    client.shutdown().expect("graceful shutdown acknowledged");
    daemon.wait();
}
