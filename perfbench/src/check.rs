//! Output checks run after each timed window.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::Path;

use dexlego_dex::reader::read_dex;
use dexlego_harness::check_reveal;
use dexlego_store::hex::from_hex;

use crate::corpus::Req;
use crate::load::{Outcome, Sample};

/// One request that failed a check, with what it got back.
pub struct Failure {
    pub req: usize,
    pub phase: &'static str,
    pub reason: String,
    /// The reply DEX (hex), when there was one.
    pub reply_hex: Option<String>,
}

/// Checks every reply of a run, phase by phase: each must be `ok`, carry
/// the `cached` flag `want_cached(phase)` asks for, match its set-up fill
/// when it has one, and every distinct reply DEX must reveal its
/// original app.
pub fn check_replies(
    reqs: &[Req],
    phases: &[(&'static str, &[Sample])],
    want_cached: impl Fn(&str) -> Option<bool>,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    let mut seen = HashSet::new();
    let mut distinct: Vec<(usize, Vec<u8>, &'static str)> = Vec::new();
    for &(phase, samples) in phases {
        for s in samples {
            let reason = match &s.outcome {
                Outcome::Ok { cached } if s.mismatch => Some(format!(
                    "reply DEX differs from the set-up fill (cached: {cached})"
                )),
                Outcome::Ok { cached } if want_cached(phase).is_some_and(|w| w != *cached) => {
                    Some(format!("reply has cached: {cached}"))
                }
                Outcome::Ok { .. } => None,
                Outcome::Failed(why) => Some(format!("failed reply: {why}")),
                Outcome::Shed(why) => Some(format!("shed: {why}")),
                Outcome::Missing => Some("no reply".to_owned()),
            };
            let hex = match (reason, &s.dex_hex) {
                (Some(reason), _) => {
                    failures.push(Failure {
                        req: s.req,
                        phase,
                        reason,
                        reply_hex: s.dex_hex.clone(),
                    });
                    continue;
                }
                (None, Some(hex)) => hex,
                (None, None) => continue,
            };
            let mut h = std::collections::hash_map::DefaultHasher::new();
            hex.hash(&mut h);
            if !seen.insert((s.req, h.finish())) {
                continue;
            }
            match from_hex(hex) {
                Some(bytes) => distinct.push((s.req, bytes, phase)),
                None => failures.push(Failure {
                    req: s.req,
                    phase,
                    reason: "reply DEX is not hex".to_owned(),
                    reply_hex: Some(hex.clone()),
                }),
            }
        }
    }
    let items: Vec<(usize, &[u8])> = distinct.iter().map(|(r, b, _)| (*r, &b[..])).collect();
    for (i, reason) in check_reveals(reqs, &items) {
        failures.push(Failure {
            req: distinct[i].0,
            phase: distinct[i].2,
            reason,
            reply_hex: None,
        });
    }
    failures
}

/// Parses each revealed DEX and differentially checks it against the
/// original app under the request's own seeds and effective events.
/// Runs on at most two threads; returns `(index into items, reason)`.
fn check_reveals(reqs: &[Req], items: &[(usize, &[u8])]) -> Vec<(usize, String)> {
    let one = |&(req, bytes): &(usize, &[u8])| -> Option<String> {
        let revealed = match read_dex(bytes) {
            Ok(dex) => dex,
            Err(e) => return Some(format!("reply DEX does not parse: {e}")),
        };
        let spec = match reqs[req].request.to_spec("check") {
            Ok(spec) => spec,
            Err(e) => return Some(format!("request does not convert: {e}")),
        };
        check_reveal(
            &spec.dex,
            &revealed,
            &spec.entry,
            &spec.seeds,
            spec.effective_events(),
            spec.fuel,
        )
        .err()
        .map(|diff| format!("check_reveal: {diff}"))
    };
    let half = items.len() / 2;
    let (front, back) = items.split_at(half);
    let (a, b) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| back.iter().map(one).collect::<Vec<_>>());
        let a: Vec<_> = front.iter().map(one).collect();
        (a, worker.join().expect("check thread"))
    });
    a.into_iter()
        .chain(b)
        .enumerate()
        .filter_map(|(i, r)| r.map(|reason| (i, reason)))
        .collect()
}

/// Writes one directory per failed request: its input DEX and its reply.
pub fn write_failures(dir: &Path, reqs: &[Req], failures: &[Failure]) -> std::io::Result<()> {
    for (n, f) in failures.iter().enumerate() {
        let req = &reqs[f.req];
        let label = req.request.name.as_deref().unwrap_or("req");
        let d = dir.join(format!("{n:04}-{}-{label}", f.phase));
        std::fs::create_dir_all(&d)?;
        std::fs::write(d.join("input.dex"), &req.request.dex)?;
        let mut reply = format!("reason: {}\nkind: {}\n", f.reason, req.kind.name());
        if let Some(hex) = &f.reply_hex {
            reply.push_str("dex: ");
            reply.push_str(hex);
            reply.push('\n');
        }
        std::fs::write(d.join("reply.txt"), reply)?;
    }
    Ok(())
}
