//! The router against a live fleet: fills replicate, a killed shard
//! degrades to failover instead of client-visible errors, hedged
//! requests beat a slow primary, and the routed batch runner produces
//! local-harness-shaped reports, and a forged-header probe gets an error
//! reply without taking down the router or a backend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_harness::{job_key, HarnessConfig, JobReport, JobSpec, PoolExecutor};
use dexlego_router::{run_batch_routed, Ring, Router, RouterConfig};
use dexlego_service::{
    Client, Daemon, ExtractReply, ExtractRequest, PipelinedClient, Reply, ServiceConfig,
};
use dexlego_store::{Store, StoreConfig, TempDir};

fn corpus_requests(count: usize) -> Vec<ExtractRequest> {
    corpus_apps(count, 40)
        .into_iter()
        .enumerate()
        .map(|(i, (_, app))| {
            let dex = write_dex(&app.dex).expect("serialise generated app");
            let mut req = ExtractRequest::new(dex, &app.entry);
            req.name = Some(format!("fleet{i:02}"));
            req
        })
        .collect()
}

fn start_fleet(n: usize) -> (Vec<TempDir>, Vec<Daemon>, Vec<String>) {
    let dirs: Vec<TempDir> = (0..n)
        .map(|i| TempDir::new(&format!("fleet-backend-{i}")).unwrap())
        .collect();
    let daemons: Vec<Daemon> = dirs
        .iter()
        .map(|dir| Daemon::start(ServiceConfig::new(dir.path())).expect("backend starts"))
        .collect();
    let addrs = daemons.iter().map(|d| d.addr().to_string()).collect();
    (dirs, daemons, addrs)
}

fn extract_all(client: &mut PipelinedClient, reqs: &[ExtractRequest]) -> Vec<Value> {
    let mut ids = Vec::new();
    for req in reqs {
        ids.push(client.send_extract(req).expect("send"));
    }
    let mut replies = vec![Value::Null; reqs.len()];
    for _ in 0..reqs.len() {
        let (id, reply) = client.recv_any().expect("reply");
        let Some(dexlego_service::RequestId::Num(id)) = id else {
            panic!("tagged request lost its id");
        };
        let slot = ids.iter().position(|&x| x == id).expect("known id");
        match reply {
            Reply::Ok(value) => replies[slot] = value,
            other => panic!("fleet produced a non-ok reply: {other:?}"),
        }
    }
    replies
}

/// Fill a 3-backend fleet through the router, kill one shard, and read
/// everything back: zero error replies, and the surviving replicas
/// serve (mostly cached) results.
#[test]
fn killed_shard_degrades_to_failover_not_errors() {
    let (_dirs, daemons, addrs) = start_fleet(3);
    let mut config = RouterConfig::new(addrs);
    // Hedging off for determinism: this test is about failover.
    config.hedge_ms = 5_000;
    let router = Router::start(config).expect("router starts");
    let front = router.addr().to_string();

    let reqs = corpus_requests(6);
    let mut client = PipelinedClient::connect(&front).expect("connect front");
    let fills = extract_all(&mut client, &reqs);
    assert_eq!(fills.len(), 6);
    for value in &fills {
        assert_eq!(value.get("cached").and_then(Value::as_bool), Some(false));
        assert!(
            value.get("entry").is_none(),
            "router plumbing must not leak into front replies"
        );
    }

    // Let the replication backfills drain before pulling the plug.
    std::thread::sleep(Duration::from_millis(400));

    // Kill shard 0 abruptly (drain, socket closes; further connects are
    // refused — the router sees exactly what a crashed process causes).
    let mut daemons = daemons;
    let victim = daemons.remove(0);
    victim.trigger_shutdown();
    victim.wait();

    let reads = extract_all(&mut client, &reqs);
    let cached = reads
        .iter()
        .filter(|v| v.get("cached").and_then(Value::as_bool) == Some(true))
        .count();
    assert!(
        cached >= reqs.len() / 2,
        "replication kept most results warm: {cached}/{} cached",
        reqs.len()
    );

    // Fleet stats still answer (the dead shard is skipped) and carry
    // the router's own counters.
    let mut stats_conn = Client::connect(&front).expect("stats conn");
    let stats = stats_conn.stats().expect("stats");
    let router_stats = stats.get("router").expect("router counters");
    let routed = router_stats
        .get("routed")
        .and_then(Value::as_u64)
        .expect("routed count");
    assert!(routed >= 12, "all extracts were routed: {routed}");
    let fills = router_stats
        .get("replica_fills")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(fills > 0, "fresh fills were replicated");
    let Some(Value::Arr(fleet)) = stats.get("fleet").cloned() else {
        panic!("stats carry per-backend fleet health: {stats:?}");
    };
    assert_eq!(fleet.len(), 3);

    client.shutdown().expect("front shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}

/// A slow primary is out-raced by a hedge to the next replica: the
/// client sees the fast backend's answer well before the slow one
/// finishes, and the router records the hedge win.
#[test]
fn hedged_request_beats_a_slow_primary() {
    let delays: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let dirs: Vec<TempDir> = (0..2)
        .map(|i| TempDir::new(&format!("hedge-{i}")).unwrap())
        .collect();
    let daemons: Vec<Daemon> = dirs
        .iter()
        .zip(&delays)
        .map(|(dir, delay)| {
            let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
            let delay = Arc::clone(delay);
            let exec: PoolExecutor = Arc::new(move |spec: JobSpec| {
                let ms = delay.load(Ordering::SeqCst);
                if ms > 0 {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                (JobReport::empty(spec.name.clone(), None), Some(Vec::new()))
            });
            Daemon::start_with_executor(ServiceConfig::new(dir.path()), store, exec)
                .expect("daemon starts")
        })
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();

    let req = {
        let mut reqs = corpus_requests(1);
        reqs.remove(0)
    };
    // The test must slow whichever backend the ring makes primary, so
    // recompute the placement exactly as the router will.
    let config = RouterConfig::new(addrs.clone());
    let ring = Ring::new(&addrs, config.vnodes, config.seed);
    let spec = req.to_spec("probe").expect("valid request");
    let key = job_key(&spec).expect("cacheable");
    let primary = ring.candidates(Ring::key_position(&key))[0];
    delays[primary].store(500, Ordering::SeqCst);

    let mut config = config;
    config.hedge_ms = 40;
    let router = Router::start(config).expect("router starts");
    let front = router.addr().to_string();

    let mut client = PipelinedClient::connect(&front).expect("connect");
    let started = Instant::now();
    client.send_extract(&req).expect("send");
    let (_, reply) = client.recv_any().expect("reply");
    let elapsed = started.elapsed();
    assert!(matches!(reply, Reply::Ok(_)), "hedged extract succeeds");
    assert!(
        elapsed < Duration::from_millis(400),
        "hedge beat the 500ms primary: took {elapsed:?}"
    );

    let mut stats_conn = Client::connect(&front).expect("stats conn");
    let stats = stats_conn.stats().expect("stats");
    let router_stats = stats.get("router").expect("router counters");
    assert_eq!(
        router_stats.get("hedges").and_then(Value::as_u64),
        Some(1),
        "exactly one hedge fired"
    );
    assert_eq!(
        router_stats.get("hedge_wins").and_then(Value::as_u64),
        Some(1),
        "the hedge won"
    );

    client.shutdown().expect("front shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}

/// The routed batch runner: a local-harness-shaped [`RunReport`] out of
/// a fleet, with the second run served from the fleet's caches.
#[test]
fn routed_batch_runs_against_the_fleet() {
    let (_dirs, daemons, addrs) = start_fleet(2);
    let mut config = RouterConfig::new(addrs);
    config.hedge_ms = 5_000;
    let router = Router::start(config).expect("router starts");
    let front = router.addr().to_string();

    let jobs: Vec<JobSpec> = corpus_apps(4, 40)
        .into_iter()
        .enumerate()
        .map(|(i, (_, app))| JobSpec::new(&format!("batch{i}"), app.dex.clone(), &app.entry))
        .collect();

    let harness = HarnessConfig::with_workers(2);
    let cold = run_batch_routed(&front, jobs.clone(), &harness);
    assert!(cold.ok(), "cold routed batch succeeds: {:?}", cold.jobs);
    assert_eq!(cold.cache_hits(), 0);

    let warm = run_batch_routed(&front, jobs, &harness);
    assert!(warm.ok(), "warm routed batch succeeds");
    assert_eq!(warm.cache_hits(), 4, "second run is all fleet cache hits");

    // Wire-inexpressible jobs fail their report instead of running
    // wrong remotely.
    let mut tampered = corpus_apps(1, 40)
        .into_iter()
        .map(|(_, app)| JobSpec::new("tampered", app.dex, &app.entry))
        .next()
        .unwrap();
    tampered.tampers = vec![dexlego_droidbench::TamperSpec {
        native_class: "LTamper;".to_owned(),
        native_name: "patch".to_owned(),
        target: ("LTamper;".to_owned(), "run".to_owned(), "()V".to_owned()),
        patches: Vec::new(),
    }];
    let report = run_batch_routed(&front, vec![tampered], &harness);
    assert!(!report.ok(), "tampered jobs are refused, not mis-run");

    let mut front_client = Client::connect(&front).expect("connect");
    front_client.shutdown().expect("shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}

/// The forged-header probe through the router: an error reply, and
/// afterwards the router and every backend still complete an extract.
#[test]
fn forged_header_probe_gets_an_error_reply_through_the_router() {
    let (_dirs, daemons, addrs) = start_fleet(2);
    let router = Router::start(RouterConfig::new(addrs.clone())).expect("router starts");
    let front = router.addr().to_string();

    let probe = ExtractRequest::new(dexlego_service::probe::forged_string_count_dex(), "LMain;");
    let mut client = Client::connect(&front).expect("connect front");
    client.send_line(&probe.encode()).expect("send probe");
    match client.recv().expect("a reply to the probe") {
        Reply::Error(_) => {}
        other => panic!("expected an error reply, got {other:?}"),
    }

    let req = corpus_requests(1).remove(0);
    assert!(
        matches!(client.extract(&req), Ok(ExtractReply::Done { .. })),
        "the router still serves extracts"
    );
    for addr in &addrs {
        let mut backend = Client::connect(addr).expect("connect backend");
        assert!(
            matches!(backend.extract(&req), Ok(ExtractReply::Done { .. })),
            "backend {addr} still serves extracts"
        );
    }

    client.shutdown().expect("front shutdown");
    router.wait();
    for daemon in daemons {
        daemon.trigger_shutdown();
        daemon.wait();
    }
}
