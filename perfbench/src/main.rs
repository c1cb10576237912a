//! End-to-end extraction benchmark.
//!
//! ```text
//! perfbench --workload warm_resubmit|cold_distinct|mixed_open --seed N
//!           --seconds S --trace 0|1 [--bin-dir DIR] [--out DIR]
//! ```
//!
//! Starts a router and two `dexlegod --workers 1` backends from the
//! release binaries in `--bin-dir`, sets up the workload's inputs from
//! `--seed`, drives the router for `--seconds`, checks every reply and
//! prints one JSON object as its last stdout line. With `--trace 1` it
//! also replays a seeded sample of requests through each layer's public
//! functions and reports per-layer metrics instead of end-to-end ones.
//! Per-request logs, `results.csv`, stats snapshots, spans and failed
//! requests go to `--out/<workload>-seed<N>-trace<T>/`.

mod check;
mod corpus;
mod fleet;
mod load;
mod trace;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dexlego_harness::json;

use crate::corpus::{
    blocked_draws, generate_apps, ranked_draws, stratified_draws, App, Draw, Kind, Req, Rng, Zipf,
};
use crate::fleet::{backend_delta, delta, Fleet, Stats};
use crate::load::{LoopResult, Outcome, Sample, Shared};
use crate::trace::Tracer;

/// A closed loop's connections, and requests in flight on each.
#[derive(Debug, Clone, Copy)]
struct Shape {
    conns: usize,
    in_flight: usize,
}

/// The timed closed loops keep one request in flight, so the fleet is
/// not saturated. A store hit then takes about 20 ms, under the router's
/// 30 ms hedge threshold; with 2 or more in flight queueing pushed hits
/// across it, the hedged share (and with it the fleet's work per
/// request) swung with machine speed, and timings spread over 25%
/// between runs (README).
const WARM_SHAPE: Shape = Shape {
    conns: 1,
    in_flight: 1,
};
/// A pipeline run outlasts the hedge threshold, so every cold request is
/// hedged at any load; one in flight keeps queueing out of its latency.
const COLD_SHAPE: Shape = Shape {
    conns: 1,
    in_flight: 1,
};
/// Set-up fills run outside the timed window, so they use both
/// connections and finish sooner.
const FILL_SHAPE: Shape = Shape {
    conns: 2,
    in_flight: 2,
};
/// `warm_resubmit`'s stored corpus.
const WARM_APPS: usize = 64;
/// `mixed_open`'s prefilled, Zipf-popular set.
const MIXED_APPS: usize = 64;
/// `mixed_open`'s fixed Poisson arrival rate, requests per second: about
/// half the ~30/s capacity measured for its mix while the 2-core box ran
/// slow, a third of the ~48/s measured while it ran fast (README).
const MIXED_RATE: f64 = 16.0;
/// `mixed_open`'s traffic shares: resubmits, then re-drives; the rest
/// are new apps.
const MIXED_RESUBMIT: f64 = 0.70;
const MIXED_REDRIVE: f64 = 0.15;
/// Fresh apps prepared per second of `cold_distinct` window: half as
/// many again as the 11-16/s it reaches, so the closed loop does not run
/// dry (if a faster build does, the window ends at its last reply).
const COLD_POOL_RPS: f64 = 24.0;
/// `cold_distinct` orders its prepared apps in stratified blocks of this
/// many (two per packer choice): the window gets through under half of
/// them, and an unstratified prefix moved the mean app size, and with it
/// throughput, by several percent from seed to seed.
const COLD_BLOCK: usize = 14;
/// Requests `cold_distinct` runs during set-up, before timing.
const COLD_WARMUP: usize = 6;
/// Replay order length per second of `warm_resubmit` window.
const WARM_ORDER_RPS: f64 = 1_000.0;
/// Traced runs' post-window probes, one request at a time on an idle
/// fleet: store hits (through the router and straight to a backend) and
/// pipeline runs.
const PROBE_HITS: usize = 64;
const PROBE_MISSES: usize = 32;
/// Untraced runs set up this many times and report the median.
const SETUP_REPEATS: usize = 3;
/// Per-layer metrics written to results.csv but left out of the printed
/// result. On the gated workloads they read 0 (`warm_resubmit` runs no
/// pipeline; a cold verify-cache hit fails the run), so only
/// `mixed_open`, where re-drives hit, gives them a value.
const CSV_ONLY: [&str; 2] = ["verifier.cache_hit_ratio", "verifier.cache_hits"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WarmResubmit,
    ColdDistinct,
    MixedOpen,
}

impl Workload {
    fn by_name(name: &str) -> Option<Workload> {
        match name {
            "warm_resubmit" => Some(Workload::WarmResubmit),
            "cold_distinct" => Some(Workload::ColdDistinct),
            "mixed_open" => Some(Workload::MixedOpen),
            _ => None,
        }
    }

    /// Traced runs replay about one request in this many.
    fn trace_every(self) -> u64 {
        match self {
            Workload::WarmResubmit => 40,
            Workload::ColdDistinct => 10,
            Workload::MixedOpen => 8,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WarmResubmit => "warm_resubmit",
            Workload::ColdDistinct => "cold_distinct",
            Workload::MixedOpen => "mixed_open",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut bin_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("release");
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects a u64")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => trace = value()? == "1",
            "--bin-dir" => bin_dir = value()?.into(),
            "--out" => out = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        bin_dir,
        out,
    })
}

/// The benchmark's fixed shape, as JSON (`--describe`).
fn describe() -> String {
    let s = json::string;
    let closed = |shape: Shape| {
        json::object(&[
            ("loop", s("closed")),
            ("conns", shape.conns.to_string()),
            ("in_flight_per_conn", shape.in_flight.to_string()),
        ])
    };
    json::object(&[
        (
            "fleet",
            json::object(&[
                (
                    "router",
                    s("dexlego-router, library defaults: R=2, hedge 30 ms, 8 workers, 64 vnodes"),
                ),
                ("backends", fleet::BACKENDS.to_string()),
                (
                    "backend",
                    s("dexlegod --workers 1, fresh store directory each"),
                ),
            ]),
        ),
        (
            "apps",
            json::object(&[
                ("profile", s("droidbench appgen plain profile")),
                ("insns_min", corpus::MIN_INSNS.to_string()),
                ("insns_max", corpus::MAX_INSNS.to_string()),
                ("insns_distribution", s("log-uniform, one draw per stratum")),
                ("packers", s("uniform over plain and the six profiles")),
            ]),
        ),
        (
            "workloads",
            json::object(&[
                (
                    "warm_resubmit",
                    json::object(&[
                        ("shape", closed(WARM_SHAPE)),
                        ("stored_requests", WARM_APPS.to_string()),
                    ]),
                ),
                (
                    "cold_distinct",
                    json::object(&[
                        ("shape", closed(COLD_SHAPE)),
                        ("prepared_apps_per_second", COLD_POOL_RPS.to_string()),
                        ("warmup_requests", COLD_WARMUP.to_string()),
                    ]),
                ),
                (
                    "mixed_open",
                    json::object(&[
                        (
                            "shape",
                            json::object(&[
                                (
                                    "loop",
                                    s("open, Poisson arrivals conditioned on their count"),
                                ),
                                ("conns", "1".to_owned()),
                                ("rate_rps", MIXED_RATE.to_string()),
                            ]),
                        ),
                        ("stored_requests", MIXED_APPS.to_string()),
                        ("resubmit_share", MIXED_RESUBMIT.to_string()),
                        ("redrive_share", MIXED_REDRIVE.to_string()),
                        ("popularity", s("Zipf s=1 over the stored requests")),
                    ]),
                ),
            ]),
        ),
        ("set_up_fill", closed(FILL_SHAPE)),
        ("traced_probe_hits", PROBE_HITS.to_string()),
        ("traced_probe_misses", PROBE_MISSES.to_string()),
        ("setup_repeats", SETUP_REPEATS.to_string()),
    ])
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--describe") {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A timed window: the closed loop's request order and shape, or the
/// open loop's schedule of (due second, request).
enum Window {
    Closed { order: Vec<usize>, shape: Shape },
    Open(Vec<(f64, usize)>),
}

/// Everything one run sends, generated from the seed during set-up.
struct Plan {
    apps: Vec<App>,
    reqs: Vec<Req>,
    /// Requests run during set-up; their replies are the stored fills.
    prefill: Vec<usize>,
    /// The untraced window, then (traced runs) the traced one.
    windows: Vec<Window>,
    /// Stored requests for the hit probe (`cold_distinct` picks them
    /// from its window instead).
    probe_hits: Vec<usize>,
    probe_misses: Vec<usize>,
}

impl Plan {
    fn add_apps(&mut self, seed: u64, prefix: &str, draws: &[Draw]) -> std::ops::Range<usize> {
        // The start offset keeps labels, and so package names, unique
        // across the groups of one run.
        let start = self.apps.len();
        let apps = generate_apps(seed, &format!("{prefix}{start}-"), draws);
        self.apps.extend(apps);
        start..self.apps.len()
    }

    fn add_req(&mut self, app: usize, kind: Kind, fuzz_seed: u64) -> usize {
        self.reqs.push(Req::new(&self.apps, app, kind, fuzz_seed));
        self.reqs.len() - 1
    }
}

/// The run's inputs. A traced run adds a second window and the probes.
fn build_plan(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Plan {
    let windows = if trace { 2 } else { 1 };
    let mut plan = Plan {
        apps: Vec::new(),
        reqs: Vec::new(),
        prefill: Vec::new(),
        windows: Vec::new(),
        probe_hits: Vec::new(),
        probe_misses: Vec::new(),
    };
    let mut rng = Rng::fork(seed, workload.name());
    let secs = seconds as f64;
    match workload {
        Workload::WarmResubmit => {
            let draws = stratified_draws(&mut rng, WARM_APPS);
            for app in plan.add_apps(seed, "w", &draws) {
                let fuzz = rng.next_u64();
                let r = plan.add_req(app, Kind::Resubmit, fuzz);
                plan.prefill.push(r);
            }
            for _ in 0..windows {
                let mut order = Vec::new();
                while (order.len() as f64) < secs * WARM_ORDER_RPS {
                    let mut cycle = plan.prefill.clone();
                    rng.shuffle(&mut cycle);
                    order.extend(cycle);
                }
                plan.windows.push(Window::Closed {
                    order,
                    shape: WARM_SHAPE,
                });
            }
            plan.probe_hits = spread_by_size(&plan, &plan.prefill, PROBE_HITS);
        }
        Workload::ColdDistinct => {
            let draws = stratified_draws(&mut rng, COLD_WARMUP);
            for app in plan.add_apps(seed, "u", &draws) {
                let fuzz = rng.next_u64();
                let r = plan.add_req(app, Kind::New, fuzz);
                plan.prefill.push(r);
            }
            let pool = (secs * COLD_POOL_RPS).ceil() as usize;
            for _ in 0..windows {
                let draws = blocked_draws(&mut rng, pool, COLD_BLOCK);
                let order = plan
                    .add_apps(seed, "c", &draws)
                    .map(|app| {
                        let fuzz = rng.next_u64();
                        plan.add_req(app, Kind::New, fuzz)
                    })
                    .collect();
                plan.windows.push(Window::Closed {
                    order,
                    shape: COLD_SHAPE,
                });
            }
        }
        Workload::MixedOpen => {
            let ranked = ranked_draws(&mut rng, MIXED_APPS);
            // Request `rank` is the stored request of popularity `rank`.
            for app in plan.add_apps(seed, "m", &ranked) {
                let fuzz = rng.next_u64();
                let r = plan.add_req(app, Kind::Resubmit, fuzz);
                plan.prefill.push(r);
            }
            let zipf = Zipf::new(MIXED_APPS);
            for _ in 0..windows {
                // A Poisson process conditioned on its count: exactly
                // rate x seconds arrivals at sorted uniform times, so the
                // offered load does not vary from seed to seed.
                let arrivals = (MIXED_RATE * secs).round() as usize;
                let mut times: Vec<f64> = (0..arrivals).map(|_| rng.unit() * secs).collect();
                times.sort_by(f64::total_cmp);
                let mut schedule: Vec<(f64, Option<usize>)> = Vec::new();
                for t in times {
                    let u = rng.unit();
                    let req = if u < MIXED_RESUBMIT {
                        Some(plan.prefill[zipf.sample(&mut rng)])
                    } else if u < MIXED_RESUBMIT + MIXED_REDRIVE {
                        let original = plan.prefill[zipf.sample(&mut rng)];
                        let app = plan.reqs[original].app;
                        let fuzz = rng.next_u64();
                        Some(plan.add_req(app, Kind::Redrive, fuzz))
                    } else {
                        None
                    };
                    schedule.push((t, req));
                }
                let fresh = schedule.iter().filter(|(_, r)| r.is_none()).count();
                let draws = stratified_draws(&mut rng, fresh);
                let mut new_apps = plan.add_apps(seed, "n", &draws);
                let schedule = schedule
                    .into_iter()
                    .map(|(t, req)| {
                        let req = req.unwrap_or_else(|| {
                            let app = new_apps.next().expect("one new app per slot");
                            let fuzz = rng.next_u64();
                            plan.add_req(app, Kind::New, fuzz)
                        });
                        (t, req)
                    })
                    .collect();
                plan.windows.push(Window::Open(schedule));
            }
            plan.probe_hits = spread_by_size(&plan, &plan.prefill, PROBE_HITS);
        }
    }
    if trace {
        let draws = stratified_draws(&mut rng, PROBE_MISSES);
        for app in plan.add_apps(seed, "p", &draws) {
            let fuzz = rng.next_u64();
            let r = plan.add_req(app, Kind::New, fuzz);
            plan.probe_misses.push(r);
        }
    }
    plan
}

/// `n` of `reqs` at evenly spaced app-size quantiles, so a probe's
/// median lands on the middle of the size distribution for every seed.
fn spread_by_size(plan: &Plan, reqs: &[usize], n: usize) -> Vec<usize> {
    let mut sorted = reqs.to_vec();
    sorted.sort_by_key(|&r| (plan.apps[plan.reqs[r].app].insns, r));
    sorted.dedup();
    let len = sorted.len();
    if len <= n {
        return sorted;
    }
    (0..n)
        .map(|i| sorted[(2 * i + 1) * len / (2 * n)])
        .collect()
}

/// A set-up fleet and the workload's stored state.
struct Setup {
    plan: Plan,
    fleet: Fleet,
    /// DEX hex of each stored request's set-up fill.
    expected: HashMap<usize, String>,
    prefill: Vec<Sample>,
    secs: f64,
}

/// Set-up: input generation and encoding, fleet start, warm prefill, and
/// waiting until replication has put every fill on both backends.
fn set_up(args: &Args, dir: &Path) -> Result<Setup, String> {
    let started = Instant::now();
    let plan = build_plan(args.workload, args.seed, args.seconds, args.trace);
    let fleet = Fleet::start(&args.bin_dir, dir)?;
    let none = |_: usize| None;
    let shared = Shared {
        addr: &fleet.router_addr,
        reqs: &plan.reqs,
        expected: &none,
        on_reply: None,
    };
    let fill = load::closed(&shared, &plan.prefill, FILL_SHAPE, Duration::from_secs(600))?;
    let mut expected = HashMap::new();
    for s in &fill.samples {
        if let (true, Some(hex)) = (s.ok(), &s.dex_hex) {
            expected.insert(s.req, hex.clone());
        }
    }
    if expected.len() != plan.prefill.len() {
        return Err(format!(
            "set-up fill: {} of {} requests succeeded",
            expected.len(),
            plan.prefill.len()
        ));
    }
    fleet.await_replication(plan.prefill.len() as u64, Duration::from_secs(30))?;
    Ok(Setup {
        plan,
        fleet,
        expected,
        prefill: fill.samples,
        secs: started.elapsed().as_secs_f64(),
    })
}

/// Sets up `SETUP_REPEATS` times (traced runs: once), each time on a
/// fresh fleet, and keeps the last set-up. Returns it with every set-up
/// time.
fn set_up_repeatedly(args: &Args, run_dir: &Path) -> Result<(Setup, Vec<f64>), String> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut secs = Vec::new();
    for i in 0.. {
        let dir = fleet::fleet_dir(run_dir, i);
        let setup = set_up(args, &dir)?;
        secs.push(setup.secs);
        eprintln!("perfbench: set-up {} took {:.3} s", i + 1, setup.secs);
        if i + 1 == repeats {
            return Ok((setup, secs));
        }
        setup.fleet.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("the loop returns on its last set-up")
}

/// One timed window with its stats snapshots and fleet CPU time.
struct Timed {
    result: LoopResult,
    before: Vec<Stats>,
    after: Vec<Stats>,
    cpu_ms: f64,
}

fn run_window(
    fleet: &Fleet,
    shared: &Shared<'_>,
    window: &Window,
    seconds: u64,
) -> Result<Timed, String> {
    let before = fleet.stats()?;
    let cpu0 = fleet.cpu_ms();
    let duration = Duration::from_secs(seconds);
    let result = match window {
        Window::Closed { order, shape } => load::closed(shared, order, *shape, duration)?,
        Window::Open(schedule) => load::open(shared, schedule, duration)?,
    };
    let cpu_ms = fleet.cpu_ms() - cpu0;
    let after = fleet.stats()?;
    Ok(Timed {
        result,
        before,
        after,
        cpu_ms,
    })
}

fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| s.latency_us() as f64 / 1e3).collect()
}

/// Named metric values in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The metrics as one JSON object, leaving out those named in `skip`.
    fn json(&self, skip: &[&str]) -> String {
        let mut out = String::from("{");
        let kept = self
            .0
            .iter()
            .filter(|(name, ..)| !skip.contains(&name.as_str()));
        for (i, (name, value, unit)) in kept.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let run_dir = args.out.join(format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, &run_dir);
    for i in 0..SETUP_REPEATS {
        let _ = std::fs::remove_dir_all(fleet::fleet_dir(&run_dir, i));
    }
    let _ = std::fs::remove_dir_all(run_dir.join("trace-store"));
    result
}

fn run_in(args: &Args, run_dir: &Path) -> Result<(String, bool), String> {
    let (kept, setup_secs) = set_up_repeatedly(args, run_dir)?;
    let Setup {
        plan,
        fleet,
        mut expected,
        prefill,
        ..
    } = kept;

    let cold = args.workload == Workload::ColdDistinct;
    let warm = args.workload == Workload::WarmResubmit;
    let tracer = if args.trace {
        Some(Tracer::new(
            &fleet.backend_addrs,
            &run_dir.join("trace-store"),
        )?)
    } else {
        None
    };
    let every = args.workload.trace_every();
    let sample_rng = args.seed.wrapping_mul(0x2545_f491_4f6c_dd1d);
    let replayed = AtomicUsize::new(0);
    let replay = |req: usize, line: &str, always: bool| {
        let (Some(tracer), Some(id)) = (&tracer, load::reply_id(line)) else {
            return;
        };
        let pick = corpus::Rng::new(sample_rng ^ id)
            .next_u64()
            .is_multiple_of(every);
        if !(always || pick) {
            return;
        }
        let r = &plan.reqs[req];
        if r.kind == Kind::Redrive {
            if let Some(&original) = plan.prefill.iter().find(|&&p| plan.reqs[p].app == r.app) {
                tracer.warm_verify_cache(r.app, &plan.reqs[original].request);
            }
        }
        tracer.replay(id, &r.line(id), line);
        replayed.fetch_add(1, Ordering::Relaxed);
    };
    let sampled = |req: usize, line: &str| replay(req, line, false);
    let every_reply = |req: usize, line: &str| replay(req, line, true);

    // Timed windows.
    let mut timed = Vec::new();
    for (w, window) in plan.windows.iter().enumerate() {
        let exp = |req: usize| expected.get(&req).map(String::as_str);
        let shared = Shared {
            addr: &fleet.router_addr,
            reqs: &plan.reqs,
            expected: &exp,
            on_reply: if w == 1 { Some(&sampled) } else { None },
        };
        timed.push(run_window(&fleet, &shared, window, args.seconds)?);
    }

    // Probes, once every result so far sits on both backends.
    let mut answered: HashSet<usize> = prefill.iter().filter(|s| s.ok()).map(|s| s.req).collect();
    for t in &timed {
        answered.extend(t.result.samples.iter().filter(|s| s.ok()).map(|s| s.req));
    }
    let mut probe_hits = plan.probe_hits.clone();
    if cold {
        let done: Vec<usize> = timed[0]
            .result
            .samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| s.req)
            .collect();
        probe_hits = spread_by_size(&plan, &done, PROBE_HITS);
        for s in &timed[0].result.samples {
            if let (true, Some(hex)) = (probe_hits.contains(&s.req), &s.dex_hex) {
                expected.insert(s.req, hex.clone());
            }
        }
    }
    fleet.await_replication(answered.len() as u64, Duration::from_secs(30))?;
    let exp = |req: usize| expected.get(&req).map(String::as_str);
    let on_probe: Option<load::OnReply<'_>> = if args.trace { Some(&every_reply) } else { None };
    let via_router = Shared {
        addr: &fleet.router_addr,
        reqs: &plan.reqs,
        expected: &exp,
        on_reply: on_probe,
    };
    let direct = Shared {
        addr: &fleet.backend_addrs[0],
        reqs: &plan.reqs,
        expected: &exp,
        on_reply: None,
    };
    // Traced runs probe both kinds, unloaded: each probe waits until no
    // backend has a job in flight.
    let settle = || fleet.await_idle(Duration::from_secs(30));
    let probe = |shared: &Shared<'_>, reqs: &[usize]| {
        if args.trace {
            load::serial(shared, reqs, &settle)
        } else {
            Ok(Vec::new())
        }
    };
    let hits_router = probe(&via_router, &probe_hits)?;
    let hits_direct = probe(&direct, &probe_hits)?;
    let misses = probe(&via_router, &plan.probe_misses)?;
    let final_stats = fleet.stats()?;
    let peak_rss_mb = fleet.peak_rss_mb();
    fleet.stop();

    // Output checks.
    let phases: Vec<(&'static str, &[Sample])> = vec![
        ("prefill", &prefill),
        ("window", &timed[0].result.samples),
        (
            "traced",
            timed.get(1).map_or(&[][..], |t| &t.result.samples),
        ),
        ("probe_hit", &hits_router),
        ("probe_hit_direct", &hits_direct),
        ("probe_miss", &misses),
    ];
    let failures = check::check_replies(&plan.reqs, &phases, |phase| match phase {
        "probe_hit" | "probe_hit_direct" => Some(true),
        "probe_miss" => Some(false),
        "window" | "traced" if cold => Some(false),
        _ => None,
    });
    let mut fleet_failures = Vec::new();
    if warm {
        for t in &timed {
            let misses = backend_delta(&t.before, &t.after, "misses");
            if misses > 0 {
                fleet_failures.push(format!(
                    "warm_resubmit window caused {misses} backend misses"
                ));
            }
        }
    }
    if cold {
        // A pipeline run's report counts its verify-cache hits; no app in
        // this workload was seen before, so any hit is a cache-key bug or
        // a workload that stopped being cold.
        for t in &timed {
            let hits = report_sum(&t.result.samples, "verify_cache_hits");
            if hits > 0.0 {
                fleet_failures.push(format!(
                    "cold_distinct window reported {hits} verify-cache hits"
                ));
            }
        }
    }
    check::write_failures(&run_dir.join("failed"), &plan.reqs, &failures)
        .map_err(|e| format!("failure dirs: {e}"))?;
    let attempted: usize = phases.iter().map(|(_, s)| s.len()).sum();
    let failed = failures
        .iter()
        .map(|f| (f.phase, f.req))
        .collect::<HashSet<_>>()
        .len()
        + fleet_failures.len();
    let correct = failed == 0;
    for f in &failures {
        eprintln!(
            "perfbench: FAIL {} {}: {}",
            f.phase,
            plan.reqs[f.req].request.name.as_deref().unwrap_or("?"),
            f.reason
        );
    }
    for f in &fleet_failures {
        eprintln!("perfbench: FAIL {f}");
    }
    if timed[0].result.exhausted {
        eprintln!(
            "perfbench: the window ran out of prepared requests after {:.3} s",
            timed[0].result.window_s
        );
    }

    // End-to-end metrics, from the untraced window.
    let w = &timed[0];
    let window_us = w.result.window_s * 1e6;
    let all = latencies_ms(w.result.samples.iter());
    let ok: Vec<&Sample> = w.result.samples.iter().filter(|s| s.ok()).collect();
    let in_window = ok
        .iter()
        .filter(|s| (s.done_us as f64) <= window_us)
        .count();
    // Median latency of the window's store hits and pipeline runs, and
    // of the unloaded probes of each kind (traced runs).
    let window_p50 = |cached: bool| {
        median(&latencies_ms(
            ok.iter().copied().filter(|s| s.cached() == Some(cached)),
        ))
    };
    let probe_hit_p50_ms = median(&latencies_ms(hits_router.iter()));
    let probe_miss_p50_ms = median(&latencies_ms(misses.iter()));
    let mut e2e = Metrics::default();
    e2e.put("p50_ms", median(&all), "ms");
    e2e.put(
        "throughput_rps",
        in_window as f64 / w.result.window_s,
        "1/s",
    );
    e2e.put("cpu_ms_per_req", w.cpu_ms / ok.len().max(1) as f64, "ms");
    e2e.put("peak_rss_mb", peak_rss_mb, "MiB");
    e2e.put("setup_s", median(&setup_secs), "s");
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let gen_lag_p99_ms = percentile(
        &w.result
            .lag_us
            .iter()
            .map(|&l| l as f64 / 1e3)
            .collect::<Vec<_>>(),
        0.99,
    );

    // Per-layer metrics (traced runs).
    let layer = tracer.as_ref().map(|tracer| {
        let replays = tracer.replays.lock().expect("trace lock");
        per_layer(
            &replays,
            w,
            &timed[1],
            &final_stats,
            (probe_hit_p50_ms, probe_miss_p50_ms),
            (&hits_router, &hits_direct),
            gen_lag_p99_ms,
        )
    });

    // Files: per-request log, results, stats, spans.
    write_request_log(run_dir, &plan, &phases).map_err(|e| format!("request log: {e}"))?;
    let mut csv = String::from("workload,metric,unit,value\n");
    let mut rows: Vec<(String, f64, &str)> = e2e.0.clone();
    // Reported, but not BENCHMARK.json metrics: p99 spreads too widely
    // between runs at a few hundred samples, error_rate reads 0, and
    // with one request in flight a closed loop's per-kind p50 repeats
    // its p50_ms.
    rows.push(("p99_ms".to_owned(), percentile(&all, 0.99), "ms"));
    rows.push(("error_rate".to_owned(), error_rate, "ratio"));
    rows.push(("gen_lag_p99_ms".to_owned(), gen_lag_p99_ms, "ms"));
    for (name, p50) in [
        ("hit_p50_ms", window_p50(true)),
        ("miss_p50_ms", window_p50(false)),
        ("probe_hit_p50_ms", probe_hit_p50_ms),
        ("probe_miss_p50_ms", probe_miss_p50_ms),
    ] {
        // A kind the window or the probes did not have gets no row.
        if p50.is_finite() {
            rows.push((name.to_owned(), p50, "ms"));
        }
    }
    if let Some(layer) = &layer {
        rows.extend(layer.0.iter().cloned());
    }
    for (name, value, unit) in &rows {
        let _ = writeln!(csv, "{},{name},{unit},{value}", args.workload.name());
    }
    std::fs::write(run_dir.join("results.csv"), csv).map_err(|e| e.to_string())?;
    write_stats(run_dir, &timed, &final_stats).map_err(|e| format!("stats: {e}"))?;
    if let Some(tracer) = &tracer {
        write_spans(run_dir, tracer).map_err(|e| format!("spans: {e}"))?;
    }

    eprintln!(
        "perfbench: {} seed {}: {} attempted, {} failed, {} in window, {} replayed",
        args.workload.name(),
        args.seed,
        attempted,
        failed,
        w.result.samples.len(),
        replayed.load(Ordering::Relaxed)
    );
    for (name, value, unit) in &rows {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    let metrics = match &layer {
        Some(layer) => layer.json(&CSV_ONLY),
        None => e2e.json(&[]),
    };
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    Ok((line, correct))
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    replays: &[trace::Replayed],
    untraced: &Timed,
    traced: &Timed,
    final_stats: &[Stats],
    (hit_p50_ms, miss_p50_ms): (f64, f64),
    (hits_router, hits_direct): (&[Sample], &[Sample]),
    gen_lag_p99_ms: f64,
) -> Metrics {
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut job_self: Vec<f64> = Vec::new();
    let mut coverage: Vec<f64> = Vec::new();
    let mut ns_per_insn: Vec<f64> = Vec::new();
    for r in replays {
        let selfs = trace::self_times(&r.spans);
        for (s, self_ns) in r.spans.iter().zip(&selfs) {
            durations.entry(s.name).or_default().push(s.dur_us());
            if s.name == "harness.job" {
                job_self.push(*self_ns as f64 / 1e3);
            }
            if s.name == "dexlego.collect" && r.insns > 0 {
                ns_per_insn.push((s.end_ns - s.start_ns) as f64 / r.insns as f64);
            }
        }
        let base_ms = if r.hit { hit_p50_ms } else { miss_p50_ms };
        coverage.push(trace::attributed_ns(&r.spans) as f64 / 1e6 / base_ms);
    }
    let med = |name: &str| durations.get(name).map_or(0.0, |v| median(v));
    let field = |f: fn(&trace::Replayed) -> usize| {
        median(&replays.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let (b, a) = (&untraced.before, &untraced.after);
    let router = |key: &str| delta(&b[0], &a[0], &format!("router.{key}")) as f64;
    let backends = |key: &str| backend_delta(b, a, key) as f64;
    let held = |key: &str| -> f64 {
        final_stats[1..]
            .iter()
            .map(|s| s.get(key).copied().unwrap_or(0) as f64)
            .sum()
    };
    let p50_us = |s: &[Sample]| median(&latencies_ms(s.iter())) * 1e3;
    let lat_p50 = |t: &Timed| median(&latencies_ms(t.result.samples.iter()));

    let mut m = Metrics::default();
    m.put("router.place_us", med("router.place"), "us");
    m.put(
        "router.hop_us",
        p50_us(hits_router) - p50_us(hits_direct),
        "us",
    );
    let hedges = router("hedges");
    let wins = router("hedge_wins");
    m.put("router.hedges", hedges, "count");
    m.put("router.hedge_wins", wins, "count");
    m.put(
        "router.hedge_waste_ratio",
        if hedges > 0.0 {
            (hedges - wins) / hedges
        } else {
            0.0
        },
        "ratio",
    );
    m.put("router.replica_fills", router("replica_fills"), "count");
    m.put("router.read_repairs", router("read_repairs"), "count");
    m.put(
        "service.encode_request_us",
        med("service.encode_request"),
        "us",
    );
    m.put(
        "service.parse_request_us",
        med("service.parse_request"),
        "us",
    );
    m.put("service.parse_reply_us", med("service.parse_reply"), "us");
    m.put("service.request_bytes", field(|r| r.request_bytes), "bytes");
    m.put("service.reply_bytes", field(|r| r.reply_bytes), "bytes");
    m.put("service.direct_hit_us", p50_us(hits_direct), "us");
    m.put(
        "service.shed",
        backends("shed_overloaded") + backends("shed_deadline"),
        "count",
    );
    m.put("store.hex_encode_us", med("store.hex_encode"), "us");
    m.put("store.hex_decode_us", med("store.hex_decode"), "us");
    m.put("store.get_us", med("store.get"), "us");
    m.put("store.put_us", med("store.put"), "us");
    let (entries, bytes) = (held("store.entries"), held("store.bytes"));
    m.put("store.bytes_per_result", bytes / entries.max(1.0), "bytes");
    m.put("store.hits", backends("hits"), "count");
    m.put("store.misses", backends("misses"), "count");
    m.put("store.entries", entries, "count");
    m.put("store.bytes", bytes, "bytes");
    m.put("dex.read_us", med("dex.read"), "us");
    m.put("dex.write_us", med("dex.write"), "us");
    m.put("dex.bytes_in", field(|r| r.dex_in), "bytes");
    m.put("dex.bytes_out", field(|r| r.dex_out), "bytes");
    m.put("harness.job_key_us", med("harness.job_key"), "us");
    m.put("harness.job_us", med("harness.job"), "us");
    m.put(
        "harness.unattributed_us",
        if job_self.is_empty() {
            0.0
        } else {
            median(&job_self)
        },
        "us",
    );
    m.put("packer.pack_us", med("packer.pack"), "us");
    let insns: Vec<f64> = replays
        .iter()
        .filter(|r| r.insns > 0 && !r.hit)
        .map(|r| r.insns as f64)
        .collect();
    m.put(
        "runtime.insns",
        if insns.is_empty() {
            0.0
        } else {
            median(&insns)
        },
        "count",
    );
    m.put(
        "runtime.ns_per_insn",
        if ns_per_insn.is_empty() {
            0.0
        } else {
            median(&ns_per_insn)
        },
        "ns",
    );
    for (metric, span) in [
        ("dexlego.collect_us", "dexlego.collect"),
        ("dexlego.serialize_us", "dexlego.serialize"),
        ("dexlego.tree_merge_us", "dexlego.tree_merge"),
        ("dexlego.dexgen_us", "dexlego.dexgen"),
        ("dexlego.canonicalize_us", "dexlego.canonicalize"),
        ("dexlego.validate_us", "dexlego.validate"),
        ("verifier.verify_us", "verifier.verify"),
    ] {
        m.put(metric, med(span), "us");
    }
    // From the reports of the window's pipeline runs: a backend's stats
    // also absorb the counters a store hit copies from its original run.
    let vh = report_sum(&untraced.result.samples, "verify_cache_hits");
    let vm = report_sum(&untraced.result.samples, "verify_cache_misses");
    m.put(
        "verifier.cache_hit_ratio",
        if vh + vm > 0.0 { vh / (vh + vm) } else { 0.0 },
        "ratio",
    );
    m.put("verifier.cache_hits", vh, "count");
    m.put("verifier.cache_misses", vm, "count");
    m.put("load.gen_lag_p99_ms", gen_lag_p99_ms, "ms");
    m.put(
        "trace.coverage",
        if coverage.is_empty() {
            0.0
        } else {
            median(&coverage)
        },
        "ratio",
    );
    m.put(
        "trace.overhead",
        lat_p50(traced) / lat_p50(untraced),
        "ratio",
    );
    m.put("trace.requests", replays.len() as f64, "count");
    m
}

/// A counter summed over the job reports of the pipeline runs among
/// `samples`.
fn report_sum(samples: &[Sample], key: &str) -> f64 {
    samples
        .iter()
        .filter_map(|s| s.report.as_deref().and_then(|r| json::parse(r).ok()))
        .map(|report| report.get(key).and_then(json::Value::as_u64).unwrap_or(0) as f64)
        // Not `sum()`: an empty f64 sum is -0.0, which would print as such.
        .fold(0.0, |total, n| total + n)
}

fn write_request_log(dir: &Path, plan: &Plan, phases: &[(&str, &[Sample])]) -> std::io::Result<()> {
    let mut out = String::from(
        "phase,seq,request,kind,insns,packer,due_us,sent_us,done_us,latency_us,outcome,cached,reply_bytes\n",
    );
    for (phase, samples) in phases {
        for (seq, s) in samples.iter().enumerate() {
            let req = &plan.reqs[s.req];
            let app = &plan.apps[req.app];
            let outcome = match &s.outcome {
                Outcome::Ok { .. } if s.mismatch => "mismatch".to_owned(),
                Outcome::Ok { .. } => "ok".to_owned(),
                Outcome::Failed(why) => format!("failed: {}", why.replace([',', '\n'], " ")),
                Outcome::Shed(why) => format!("shed: {why}"),
                Outcome::Missing => "missing".to_owned(),
            };
            let _ = writeln!(
                out,
                "{phase},{seq},{},{},{},{},{},{},{},{},{outcome},{},{}",
                req.request.name.as_deref().unwrap_or(""),
                req.kind.name(),
                app.insns,
                req.request.packer.as_deref().unwrap_or("plain"),
                s.due_us,
                s.sent_us,
                s.done_us,
                s.latency_us(),
                s.cached().map_or("", |c| if c { "true" } else { "false" }),
                s.reply_bytes
            );
        }
    }
    std::fs::write(dir.join("requests.csv"), out)
}

fn stats_json(stats: &[Stats]) -> String {
    let procs: Vec<String> = stats
        .iter()
        .map(|s| {
            let members: Vec<String> = s.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", members.join(", "))
        })
        .collect();
    format!("[{}]", procs.join(", "))
}

fn write_stats(dir: &Path, timed: &[Timed], final_stats: &[Stats]) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, t) in timed.iter().enumerate() {
        let name = if i == 0 { "untraced" } else { "traced" };
        let _ = writeln!(
            out,
            "{{\"window\": \"{name}\", \"before\": {}, \"after\": {}}}",
            stats_json(&t.before),
            stats_json(&t.after)
        );
    }
    let _ = writeln!(
        out,
        "{{\"window\": \"final\", \"after\": {}}}",
        stats_json(final_stats)
    );
    std::fs::write(dir.join("stats.jsonl"), out)
}

fn write_spans(dir: &Path, tracer: &Tracer) -> std::io::Result<()> {
    let replays = tracer.replays.lock().expect("trace lock");
    let mut out = String::new();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for r in replays.iter() {
        let selfs = trace::self_times(&r.spans);
        for (i, (s, self_ns)) in r.spans.iter().zip(&selfs).enumerate() {
            out.push_str(&trace::span_json(i, s, *self_ns));
            out.push('\n');
            if s.on_path && s.parent.is_some() {
                *by_layer.entry(s.layer()).or_default() += *self_ns as f64 / 1e6;
            }
        }
    }
    eprintln!(
        "perfbench: self time by layer over {} replayed requests:",
        replays.len()
    );
    for (layer, ms) in &by_layer {
        eprintln!("  {layer:<12} {ms:>10.2} ms");
    }
    std::fs::write(dir.join("spans.jsonl"), out)
}
