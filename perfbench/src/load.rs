//! The load process: closed and open loops against the router.
//!
//! Request lines are encoded during set-up; in the timed window a loop
//! only splices in the id, writes, reads reply lines and scans each one
//! for its id, status, `cached` flag and DEX member. Full JSON parsing
//! and hex decoding of replies wait until the window has ended, so
//! client work does not compete with the fleet for the two cores.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dexlego_service::protocol::{parse_reply_line, Reply};

use crate::corpus::Req;
use crate::Shape;

/// How long a loop waits for outstanding replies after its window.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Ok {
        cached: bool,
    },
    /// The job ran and failed, or the router answered `error`.
    Failed(String),
    /// `overloaded` or `deadline_exceeded`.
    Shed(String),
    /// No reply before the drain grace ran out.
    Missing,
}

/// One request as the load process saw it.
pub struct Sample {
    /// Index into the run's request list.
    pub req: usize,
    /// Microseconds from window start until the request was due
    /// (closed loop: sent).
    pub due_us: u64,
    pub sent_us: u64,
    pub done_us: u64,
    pub outcome: Outcome,
    pub reply_bytes: usize,
    /// The reply's DEX member (hex), kept for the output checks unless
    /// it already matched the expected bytes.
    pub dex_hex: Option<String>,
    /// The reply DEX differed from what set-up stored for this request.
    pub mismatch: bool,
    /// The job report (JSON) of a reply that ran the pipeline.
    pub report: Option<String>,
}

impl Sample {
    pub fn latency_us(&self) -> u64 {
        self.done_us.saturating_sub(self.due_us)
    }

    pub fn ok(&self) -> bool {
        matches!(self.outcome, Outcome::Ok { .. }) && !self.mismatch
    }

    pub fn cached(&self) -> Option<bool> {
        match self.outcome {
            Outcome::Ok { cached } => Some(cached),
            _ => None,
        }
    }
}

/// A callback on each reply: request index and reply line.
pub type OnReply<'a> = &'a (dyn Fn(usize, &str) + Sync);

/// What each loop needs besides the requests themselves.
pub struct Shared<'a> {
    pub addr: &'a str,
    pub reqs: &'a [Req],
    /// The DEX hex set-up stored for request `i`, when it has one.
    pub expected: &'a (dyn Fn(usize) -> Option<&'a str> + Sync),
    /// Called on the receiving thread after each reply (the traced run
    /// replays sampled requests here); `None` when untraced.
    pub on_reply: Option<OnReply<'a>>,
}

pub struct LoopResult {
    pub samples: Vec<Sample>,
    /// Closed loop: reply-to-next-send turnaround. Open loop: how late
    /// each send left relative to its schedule. Microseconds.
    pub lag_us: Vec<u64>,
    /// Wall time of the window, seconds.
    pub window_s: f64,
    /// The closed loop ran out of prepared requests before the window
    /// ended; `window_s` then stops at the last reply.
    pub exhausted: bool,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 20, stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 20, stream),
        })
    }
}

fn write_req(w: &mut impl Write, req: &Req, id: u64) -> std::io::Result<()> {
    // `{"id": N, ` + the body after its opening brace: exactly the
    // line `encode_with_id` would give, without re-encoding the DEX.
    write!(w, "{{\"id\": {id}, ")?;
    w.write_all(&req.body.as_bytes()[1..])?;
    w.write_all(b"\n")
}

/// A reply line's fields that the window needs, found by scanning the
/// fixed member order `{"id": N, "status": ..., "cached": ..., "dex":
/// "...", "report": ...}` instead of parsing the whole line.
struct Scan<'a> {
    outcome: Outcome,
    dex: Option<&'a str>,
    report: Option<&'a str>,
}

fn scan(line: &str) -> Option<Scan<'_>> {
    let rest = line.strip_prefix("{\"id\": ")?;
    let comma = rest.find(',')?;
    let head = &rest[comma..rest.len().min(comma + 96)];
    if head.starts_with(", \"status\": \"ok\"") {
        let cached = if head.contains("\"cached\": true") {
            true
        } else if head.contains("\"cached\": false") {
            false
        } else {
            return None;
        };
        let start = rest.find("\"dex\": \"")? + 8;
        let end = start + rest[start..].find('"')?;
        let tail = &rest[end..];
        let report = tail
            .find("\"report\": ")
            .map(|i| tail[i + 10..].trim_end())
            .map(|r| r.strip_suffix('}').unwrap_or(r));
        return Some(Scan {
            outcome: Outcome::Ok { cached },
            dex: Some(&rest[start..end]),
            report,
        });
    }
    // Rare statuses: parse properly.
    let (_, reply) = parse_reply_line(line.trim_end()).ok()?;
    let outcome = match reply {
        Reply::Ok(_) => return None,
        Reply::Failed {
            job_status, detail, ..
        } => Outcome::Failed(format!("{job_status}: {}", detail.unwrap_or_default())),
        Reply::Overloaded { .. } => Outcome::Shed("overloaded".to_owned()),
        Reply::DeadlineExceeded { .. } => Outcome::Shed("deadline_exceeded".to_owned()),
        Reply::Error(reason) => Outcome::Failed(format!("error: {reason}")),
    };
    Some(Scan {
        outcome,
        dex: None,
        report: None,
    })
}

/// Reads one whole line into `buf`, riding out read timeouts until
/// `deadline`. `None` on a closed connection or a passed deadline.
fn read_reply<'b>(
    reader: &mut BufReader<TcpStream>,
    buf: &'b mut Vec<u8>,
    deadline: Instant,
) -> Option<&'b str> {
    buf.clear();
    loop {
        match reader.read_until(b'\n', buf) {
            Ok(_) if buf.ends_with(b"\n") => return std::str::from_utf8(buf).ok(),
            Ok(_) => return None,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) && Instant::now() < deadline => {}
            Err(_) => return None,
        }
    }
}

fn micros(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_micros() as u64
}

/// Turns one reply line into a sample of request `req`.
fn record(
    shared: &Shared<'_>,
    req: usize,
    line: &str,
    due_us: u64,
    sent_us: u64,
    done_us: u64,
) -> Sample {
    let mut sample = Sample {
        req,
        due_us,
        sent_us,
        done_us,
        outcome: Outcome::Failed("unreadable reply".to_owned()),
        reply_bytes: line.len(),
        dex_hex: None,
        mismatch: false,
        report: None,
    };
    let Some(s) = scan(line) else {
        return sample;
    };
    if s.outcome == (Outcome::Ok { cached: false }) {
        sample.report = s.report.map(str::to_owned);
    }
    sample.outcome = s.outcome;
    if let Some(dex) = s.dex {
        match (shared.expected)(req) {
            Some(want) if want == dex => {}
            Some(_) => {
                sample.mismatch = true;
                sample.dex_hex = Some(dex.to_owned());
            }
            None => sample.dex_hex = Some(dex.to_owned()),
        }
    }
    sample
}

/// The id every reply to a tagged request starts with.
pub fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\": ")?;
    rest[..rest.find(',')?].parse().ok()
}

fn missing(req: usize, due_us: u64, sent_us: u64, done_us: u64) -> Sample {
    Sample {
        req,
        due_us,
        sent_us,
        done_us,
        outcome: Outcome::Missing,
        reply_bytes: 0,
        dex_hex: None,
        mismatch: false,
        report: None,
    }
}

/// Closed loop: `shape.conns` connections, each keeping `shape.in_flight`
/// requests in flight, taking requests in `order` until `duration` has passed, then
/// draining what is still in flight.
pub fn closed(
    shared: &Shared<'_>,
    order: &[usize],
    shape: Shape,
    duration: Duration,
) -> Result<LoopResult, String> {
    let mut links = Vec::new();
    for _ in 0..shape.conns {
        links.push(Conn::open(shared.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + duration;
    let run = |conn: Conn| closed_conn(shared, order, &next, conn, shape.in_flight, start, end);
    let mut links = links.into_iter();
    let first = links.next().expect("at least one connection");
    let per_conn: Vec<ConnResult> = std::thread::scope(|scope| {
        // One thread per extra connection; this thread drives the first.
        let handles: Vec<_> = links.map(|c| scope.spawn(move || run(c))).collect();
        let mut out = vec![run(first)];
        out.extend(handles.into_iter().map(|h| h.join().expect("load thread")));
        out
    });
    let mut result = LoopResult {
        samples: Vec::new(),
        lag_us: Vec::new(),
        window_s: duration.as_secs_f64(),
        exhausted: false,
    };
    for c in per_conn {
        result.samples.extend(c.samples);
        result.lag_us.extend(c.turnaround_us);
        result.exhausted |= c.exhausted;
    }
    if result.exhausted {
        // The window ends with the last prepared request's reply.
        let last = result.samples.iter().map(|s| s.done_us).max().unwrap_or(0);
        result.window_s = result.window_s.min(last as f64 / 1e6);
    }
    result.samples.sort_by_key(|s| s.sent_us);
    Ok(result)
}

struct ConnResult {
    samples: Vec<Sample>,
    turnaround_us: Vec<u64>,
    exhausted: bool,
}

fn closed_conn(
    shared: &Shared<'_>,
    order: &[usize],
    next: &AtomicUsize,
    mut conn: Conn,
    window: usize,
    start: Instant,
    end: Instant,
) -> ConnResult {
    let mut out = ConnResult {
        samples: Vec::new(),
        turnaround_us: Vec::new(),
        exhausted: false,
    };
    let mut inflight: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut last_reply: Option<Instant> = None;
    let mut buf = Vec::new();
    loop {
        while inflight.len() < window && !out.exhausted && Instant::now() < end {
            let seq = next.fetch_add(1, Ordering::Relaxed);
            let Some(&req) = order.get(seq) else {
                out.exhausted = true;
                break;
            };
            if write_req(&mut conn.writer, &shared.reqs[req], seq as u64).is_err() {
                break;
            }
            let now = Instant::now();
            if let Some(t) = last_reply.take() {
                out.turnaround_us.push(micros(t, now));
            }
            inflight.insert(seq as u64, (req, micros(start, now)));
        }
        if conn.writer.flush().is_err() || inflight.is_empty() {
            break;
        }
        // A reply still owed after the drain grace counts as missing.
        let Some(line) = read_reply(&mut conn.reader, &mut buf, end + DRAIN_GRACE) else {
            break;
        };
        let now = Instant::now();
        let Some((req, sent_us)) = reply_id(line).and_then(|id| inflight.remove(&id)) else {
            continue;
        };
        let done_us = micros(start, now);
        out.samples
            .push(record(shared, req, line, sent_us, sent_us, done_us));
        if let Some(hook) = shared.on_reply {
            hook(req, line);
        }
        last_reply = Some(Instant::now());
    }
    let done_us = micros(start, Instant::now());
    for (_, (req, sent_us)) in inflight {
        out.samples.push(missing(req, sent_us, sent_us, done_us));
    }
    out
}

/// Open loop on one connection split into a sender and a receiver: the
/// sender writes request `schedule[i].1` at `schedule[i].0` seconds into
/// the window whatever the replies do; latency runs from the due time.
pub fn open(
    shared: &Shared<'_>,
    schedule: &[(f64, usize)],
    duration: Duration,
) -> Result<LoopResult, String> {
    let conn = Conn::open(shared.addr).map_err(|e| format!("connect: {e}"))?;
    let Conn { reader, mut writer } = conn;
    let start = Instant::now();
    let due_us = |i: usize| (schedule[i].0 * 1e6) as u64;
    let (sent, samples) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent_us = Vec::with_capacity(schedule.len());
            for (i, &(due, req)) in schedule.iter().enumerate() {
                let target = start + Duration::from_secs_f64(due);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                let ok = write_req(&mut writer, &shared.reqs[req], i as u64)
                    .and_then(|()| writer.flush())
                    .is_ok();
                if !ok {
                    break;
                }
                sent_us.push(micros(start, Instant::now()));
            }
            sent_us
        });
        let mut reader = reader;
        let mut got: Vec<Option<Sample>> = (0..schedule.len()).map(|_| None).collect();
        let mut received = 0usize;
        let mut buf = Vec::new();
        let deadline = start + duration + DRAIN_GRACE;
        while received < schedule.len() {
            let Some(line) = read_reply(&mut reader, &mut buf, deadline) else {
                break;
            };
            let now = Instant::now();
            let Some(id) = reply_id(line) else { continue };
            let i = id as usize;
            if i >= schedule.len() || got[i].is_some() {
                continue;
            }
            let req = schedule[i].1;
            let sample = record(shared, req, line, due_us(i), 0, micros(start, now));
            if let Some(hook) = shared.on_reply {
                hook(req, line);
            }
            got[i] = Some(sample);
            received += 1;
        }
        (sender.join().expect("sender thread"), got)
    });
    let done_us = micros(start, Instant::now());
    let mut lag_us = Vec::with_capacity(sent.len());
    let mut out = Vec::with_capacity(schedule.len());
    for (i, slot) in samples.into_iter().enumerate() {
        let sent_us = sent.get(i).copied().unwrap_or(done_us);
        if i < sent.len() {
            lag_us.push(sent_us.saturating_sub(due_us(i)));
        }
        out.push(match slot {
            Some(mut s) => {
                s.sent_us = sent_us;
                s
            }
            None => missing(schedule[i].1, due_us(i), sent_us, done_us),
        });
    }
    Ok(LoopResult {
        samples: out,
        lag_us,
        window_s: duration.as_secs_f64(),
        exhausted: false,
    })
}

/// One request at a time on a fresh connection to `addr`, each sent once
/// `settle` has returned: the probes.
pub fn serial(
    shared: &Shared<'_>,
    reqs: &[usize],
    settle: &dyn Fn() -> Result<(), String>,
) -> Result<Vec<Sample>, String> {
    let mut conn = Conn::open(shared.addr).map_err(|e| format!("connect: {e}"))?;
    let start = Instant::now();
    let mut out = Vec::with_capacity(reqs.len());
    let mut buf = Vec::new();
    for (i, &req) in reqs.iter().enumerate() {
        settle()?;
        let sent = Instant::now();
        let sent_us = micros(start, sent);
        write_req(&mut conn.writer, &shared.reqs[req], i as u64)
            .and_then(|()| conn.writer.flush())
            .map_err(|e| format!("probe send: {e}"))?;
        let Some(line) = read_reply(&mut conn.reader, &mut buf, sent + DRAIN_GRACE) else {
            out.push(missing(
                req,
                sent_us,
                sent_us,
                micros(start, Instant::now()),
            ));
            break;
        };
        let done_us = micros(start, Instant::now());
        out.push(record(shared, req, line, sent_us, sent_us, done_us));
        if let Some(hook) = shared.on_reply {
            hook(req, line);
        }
    }
    Ok(out)
}
