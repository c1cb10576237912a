//! One metrics record from where the work is counted to every sink: a
//! counter recorded once, by name, reaches the report JSON, the store
//! payload and a live `dexlegod`'s `stats` reply, with no other source
//! line naming it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::cache::{from_cached, to_cached};
use dexlego_harness::json::{self, Value};
use dexlego_harness::{execute_job_revealing, job_key, JobReport, JobSpec, PoolExecutor};
use dexlego_service::{Client, Daemon, ExtractReply, ExtractRequest, ServiceConfig};
use dexlego_store::entry::{decode, encode};
use dexlego_store::{Store, StoreConfig, TempDir};

/// The one place this counter exists.
const PROBE: &str = "metrics_record_probe_widgets";
const WIDGETS: u64 = 7;

/// A job that does its usual work plus some counted widgets, then caches
/// its result the way the daemon's own executor does.
fn counting_executor(store: Arc<Store>) -> PoolExecutor {
    Arc::new(move |spec: JobSpec| {
        let key = job_key(&spec);
        let (mut report, dex) = execute_job_revealing(spec);
        report.count(PROBE, WIDGETS);
        if let (Some(key), Some(dex)) = (key, &dex) {
            store
                .put(&key, &to_cached(&report, dex))
                .expect("store put");
        }
        (report, dex)
    })
}

fn reply_counter(reply: ExtractReply) -> (bool, u64) {
    match reply {
        ExtractReply::Done { cached, report, .. } => {
            let n = report.get(PROBE).and_then(Value::as_u64);
            (cached, n.expect("report JSON carries the counter flat"))
        }
        other => panic!("extract did not complete: {other:?}"),
    }
}

fn stats_counter(client: &mut Client) -> u64 {
    let stats = client.stats().expect("stats");
    stats
        .get(PROBE)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats lack the counter: {stats:?}"))
}

#[test]
fn a_counter_recorded_once_reaches_report_store_and_stats() {
    let (_, app) = corpus_apps(1, 40).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).expect("serialise generated app");
    let mut req = ExtractRequest::new(dex, &app.entry);
    req.packer = Some("360".to_owned());

    // Report JSON and the store payload, in process.
    let scratch = TempDir::new("record-local").unwrap();
    let local = Arc::new(Store::open(StoreConfig::new(scratch.path())).unwrap());
    let (report, dex) = counting_executor(local)(req.to_spec("local").expect("valid request"));
    let revealed = dex.expect("job succeeded");
    let emitted = json::parse(&report.to_json()).expect("report JSON parses");
    assert_eq!(emitted.get(PROBE).and_then(Value::as_u64), Some(WIDGETS));
    assert_eq!(
        JobReport::from_json(&emitted).unwrap().counter(PROBE),
        WIDGETS
    );
    let payload = encode(&to_cached(&report, &revealed));
    let stored = decode(&payload).expect("payload decodes");
    assert_eq!(from_cached("local", None, &stored).counter(PROBE), WIDGETS);

    // A live daemon: the fresh run feeds `stats`, the store hit replays
    // the stored counter without counting it again.
    let dir = TempDir::new("record-daemon").unwrap();
    let store = Arc::new(Store::open(StoreConfig::new(dir.path())).unwrap());
    let exec = counting_executor(Arc::clone(&store));
    let daemon = Daemon::start_with_executor(ServiceConfig::new(dir.path()), store, exec)
        .expect("daemon starts");
    let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");
    let fresh = reply_counter(client.extract(&req).expect("cold extract"));
    assert_eq!(fresh, (false, WIDGETS));
    assert_eq!(stats_counter(&mut client), WIDGETS);
    let hit = reply_counter(client.extract(&req).expect("warm extract"));
    assert_eq!(hit, (true, WIDGETS), "served from the store payload");
    assert_eq!(stats_counter(&mut client), WIDGETS, "a hit does no work");
    client.shutdown().expect("graceful shutdown");
    daemon.wait();

    // Nothing else in the workspace's sources names the counter.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut naming = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        collect_naming(&root.join(dir), &mut naming);
    }
    assert_eq!(naming.len(), 1, "{naming:?}");
}

/// Every `.rs` line under `dir` that contains the counter's name.
fn collect_naming(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_naming(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            for line in text.lines().filter(|l| l.contains(PROBE)) {
                out.push((path.clone(), line.to_owned()));
            }
        }
    }
}
