//! The traced run's spans: the benchmark's own code calls each layer's
//! public functions on a sampled request, in the order the fleet does,
//! and records a span around every call.
//!
//! Spans live in memory until the run ends. A span's self time is its
//! duration minus the time its children cover. Spans marked off-path
//! time a call in isolation (a `read_dex` the fleet makes inside
//! `to_spec`, say) and are left out of the request's coverage.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dexlego_dex::reader::read_dex;
use dexlego_dex::writer::write_dex;
use dexlego_harness::cache::{from_cached, to_cached};
use dexlego_harness::json::{self, Value};
use dexlego_harness::{execute_job_revealing, job_key, JobReport};
use dexlego_packer::pack;
use dexlego_router::{Ring, RouterConfig};
use dexlego_service::protocol::{parse_reply_line, parse_request_line, Reply, Request};
use dexlego_service::{ExtractRequest, RequestId};
use dexlego_store::hex::{from_hex, to_hex};
use dexlego_store::{Store, StoreConfig};

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Part of the request's path through the fleet (counted in coverage).
    pub on_path: bool,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    /// The layer is the name's first dotted component.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans of one replayed request, with the stack of open spans.
struct Recorder {
    epoch: Instant,
    req: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            on_path: true,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id));
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Times `f` as an off-path span with no parent.
    fn isolated<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            req: self.req,
            name,
            start_ns,
            end_ns,
            parent: None,
            on_path: false,
        });
        out
    }

    /// A child of `parent` covering `dur_ns` from `start_ns`, timed
    /// inside the program (the job report's phase timings).
    fn reported(&mut self, parent: usize, name: &'static str, start_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            req: self.req,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            on_path: true,
        });
    }
}

/// Phase names in a job report, mapped to span names.
const PHASES: [(&str, &str); 7] = [
    ("collect", "dexlego.collect"),
    ("serialize", "dexlego.serialize"),
    ("tree_merge", "dexlego.tree_merge"),
    ("dexgen", "dexlego.dexgen"),
    ("canonicalize", "dexlego.canonicalize"),
    ("verify", "verifier.verify"),
    ("validate", "dexlego.validate"),
];

/// One replayed request: its spans and the counts the layers saw.
pub struct Replayed {
    pub hit: bool,
    pub spans: Vec<Span>,
    pub request_bytes: usize,
    pub reply_bytes: usize,
    pub dex_in: usize,
    pub dex_out: usize,
    pub insns: u64,
}

/// Replays sampled requests against in-process copies of the layers: a
/// ring shaped like the router's and a scratch store.
pub struct Tracer {
    epoch: Instant,
    ring: Ring,
    store: Store,
    pub replays: Mutex<Vec<Replayed>>,
    /// Apps whose original request this process has already run.
    warmed: Mutex<std::collections::HashSet<usize>>,
}

impl Tracer {
    pub fn new(backends: &[String], scratch: &std::path::Path) -> Result<Tracer, String> {
        let config = RouterConfig::new(backends.to_vec());
        let store =
            Store::open(StoreConfig::new(scratch)).map_err(|e| format!("scratch store: {e}"))?;
        Ok(Tracer {
            epoch: Instant::now(),
            ring: Ring::new(&config.backends, config.vnodes, config.seed),
            store,
            replays: Mutex::new(Vec::new()),
            warmed: Mutex::new(std::collections::HashSet::new()),
        })
    }

    /// Runs `original` once, untimed, so this process's verify cache has
    /// seen its revealed DEX, as the backend's has when a re-drive of it
    /// arrives.
    pub fn warm_verify_cache(&self, app: usize, original: &ExtractRequest) {
        if !self.warmed.lock().expect("warm lock").insert(app) {
            return;
        }
        if let Ok(spec) = original.to_spec("warm") {
            execute_job_revealing(spec);
        }
    }

    /// Replays the fleet's handling of `client_line`, which the fleet
    /// answered with `reply_line`: router parse and placement, forward,
    /// backend parse and lookup, store hit or pipeline run, reply
    /// encoding, router relay, client decoding.
    pub fn replay(&self, req_id: u64, client_line: &str, reply_line: &str) {
        let Some(replayed) = self.replay_inner(req_id, client_line, reply_line) else {
            return;
        };
        self.replays.lock().expect("trace lock").push(replayed);
    }

    fn replay_inner(&self, req_id: u64, client_line: &str, reply_line: &str) -> Option<Replayed> {
        let (_, fleet_reply) = parse_reply_line(reply_line.trim_end()).ok()?;
        let Reply::Ok(fleet_value) = fleet_reply else {
            return None;
        };
        let hit = fleet_value.get("cached").and_then(Value::as_bool)?;
        let mut r = Recorder {
            epoch: self.epoch,
            req: req_id,
            spans: Vec::new(),
            open: Vec::new(),
        };
        let root = r.open("request");

        // Router: parse, place, forward.
        let (_, parsed) = r.time("service.parse_request", || parse_request_line(client_line));
        let Ok(Request::Extract(front)) = parsed else {
            return None;
        };
        let place = r.open("router.place");
        let spec = r.time("router.to_spec", || front.to_spec("replay")).ok()?;
        let key = r.time("harness.job_key", || job_key(&spec))?;
        r.time("router.candidates", || {
            self.ring.candidates(Ring::key_position(&key))
        });
        r.close(place);
        let forward = r.time("service.encode_request", || {
            front.encode_with_id(&RequestId::Num(req_id))
        });

        // Backend: parse, look up.
        let (_, parsed) = r.time("service.parse_request", || parse_request_line(&forward));
        let Ok(Request::Extract(back)) = parsed else {
            return None;
        };
        let lookup = r.open("service.lookup");
        let spec = r.time("service.to_spec", || back.to_spec("replay")).ok()?;
        let key = r.time("harness.job_key", || job_key(&spec))?;
        r.time("store.contains", || self.store.contains(&key));
        r.close(lookup);

        let (report, dex) = if hit {
            if !self.store.contains(&key) {
                // Seed the scratch store with what the fleet served.
                let dex = from_hex(fleet_value.get("dex")?.as_str()?)?;
                let report = JobReport::from_json(fleet_value.get("report")?).ok()?;
                self.store.put(&key, &to_cached(&report, &dex)).ok()?;
            }
            let key = r.time("harness.job_key", || job_key(&spec))?;
            let entry = r.time("store.get", || self.store.get(&key))?;
            let packer = spec.packer.map(|id| id.profile().name);
            let report = from_cached(&spec.name, packer, &entry);
            (report, entry.dex_bytes)
        } else {
            // Packing happens inside the job; time it on its own first.
            let pack_ns = spec.packer.map(|id| {
                r.isolated("packer.pack", || pack(&spec.dex, &spec.entry, id).ok());
                let s = r.spans.last().expect("span just pushed");
                s.end_ns - s.start_ns
            });
            let job = r.open("harness.job");
            let job_start = r.spans[job].start_ns;
            let (report, dex) = execute_job_revealing(spec.clone());
            r.close(job);
            // The job's own phase timings become its children, laid out
            // in execution order after packing.
            let mut at = job_start;
            if let Some(ns) = pack_ns {
                r.reported(job, "packer.pack", at, ns);
                at += ns;
            }
            for (phase, name) in PHASES {
                if let Some(us) = report.phase_us(phase) {
                    r.reported(job, name, at, us * 1_000);
                    at += us * 1_000;
                }
            }
            let dex = dex?;
            let entry = to_cached(&report, &dex);
            r.time("store.put", || self.store.put(&key, &entry)).ok()?;
            (report, dex)
        };

        // Backend reply, router relay, client decode.
        let encode = r.open("service.encode_reply");
        let dex_hex = r.time("store.hex_encode", || to_hex(&dex));
        let body = json::object(&[
            ("status", json::string("ok")),
            ("cached", report.cached.to_string()),
            ("dex", json::string(&dex_hex)),
            ("report", report.to_json()),
        ]);
        let backend_line = format!("{{\"id\": {req_id}, {}", &body[1..]);
        r.close(encode);
        let relayed = r.time("service.parse_reply", || parse_reply_line(&backend_line));
        let Ok((_, Reply::Ok(value))) = relayed else {
            return None;
        };
        let front_line = r.time("router.relay", || {
            let body = match value {
                Value::Obj(members) => {
                    Value::Obj(members.into_iter().filter(|(k, _)| k != "id").collect())
                }
                other => other,
            }
            .to_json();
            format!("{{\"id\": {req_id}, {}", &body[1..])
        });
        let client = r.time("service.parse_reply", || parse_reply_line(&front_line));
        let Ok((_, Reply::Ok(value))) = client else {
            return None;
        };
        let decoded = r.time("store.hex_decode", || {
            value.get("dex").and_then(Value::as_str).and_then(from_hex)
        })?;
        r.close(root);

        r.isolated("dex.read", || read_dex(&front.dex).ok());
        r.isolated("dex.write", || write_dex(&spec.dex).ok());
        Some(Replayed {
            hit,
            spans: r.spans,
            request_bytes: client_line.len(),
            reply_bytes: reply_line.len(),
            dex_in: front.dex.len(),
            dex_out: decoded.len(),
            insns: report.insns,
        })
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (children of one span never overlap here, but clip anyway).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    for (p, mut iv) in children {
        iv.sort_unstable();
        let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
        let mut reach = lo;
        for (a, b) in iv {
            let (a, b) = (a.max(reach), b.min(hi));
            if b > a {
                covered[p] += b - a;
                reach = b;
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self time attributed to named layers on the request path: every
/// on-path span except the request root, nanoseconds.
pub fn attributed_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.on_path && s.parent.is_some())
        .map(|(_, t)| t)
        .sum()
}

/// One JSON line per span; `id` and `parent` index the request's spans.
pub fn span_json(id: usize, s: &Span, self_ns: u64) -> String {
    json::object(&[
        ("req", s.req.to_string()),
        ("id", id.to_string()),
        ("layer", json::string(s.layer())),
        ("name", json::string(s.name)),
        ("start_ns", s.start_ns.to_string()),
        ("end_ns", s.end_ns.to_string()),
        ("self_ns", self_ns.to_string()),
        (
            "parent",
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
        ),
        ("on_path", s.on_path.to_string()),
    ])
}
