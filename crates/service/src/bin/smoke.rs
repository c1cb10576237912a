//! `dexlegod-smoke`: an end-to-end exercise of a running daemon.
//!
//! ```text
//! dexlegod-smoke --addr HOST:PORT [--insns N] [--packer NAME] [--shutdown]
//! ```
//!
//! Pings the daemon and sends it a forged-header DEX, which must get an
//! error reply with the daemon still answering `ping` afterwards. Then
//! submits the same extraction twice and asserts the second reply is a
//! cache hit with a byte-identical revealed DEX, and checks the stats
//! endpoint saw at least one hit. Works the same against a bare
//! `dexlegod` and against a `dexlego-router`. With `--shutdown`, asks
//! the daemon to drain and exit afterwards. Exits 0 on success, 1 on any
//! failed assertion.

use std::process::ExitCode;

use dexlego_dex::writer::write_dex;
use dexlego_droidbench::appgen::corpus_apps;
use dexlego_harness::json::Value;
use dexlego_service::probe::forged_string_count_dex;
use dexlego_service::{Client, ExtractReply, ExtractRequest, Reply};

struct Args {
    addr: String,
    insns: usize,
    packer: Option<String>,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut addr: Option<String> = None;
    let mut insns = 60usize;
    let mut packer = None;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--insns" => {
                insns = value("--insns")?
                    .parse()
                    .map_err(|_| "--insns expects a number".to_owned())?;
            }
            "--packer" => packer = Some(value("--packer")?),
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        addr: addr.ok_or_else(|| "--addr HOST:PORT is required".to_owned())?,
        insns,
        packer,
        shutdown,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;

    let probe = ExtractRequest::new(forged_string_count_dex(), "LMain;");
    client
        .send_line(&probe.encode())
        .map_err(|e| format!("send probe: {e}"))?;
    match client.recv().map_err(|e| format!("probe reply: {e}"))? {
        Reply::Error(reason) => eprintln!("dexlegod-smoke: forged probe refused ({reason})"),
        other => return Err(format!("forged probe got {other:?}, not an error reply")),
    }
    client
        .ping()
        .map_err(|e| format!("ping after the forged probe: {e}"))?;

    let (_, app) = corpus_apps(1, args.insns).into_iter().next().unwrap();
    let dex = write_dex(&app.dex).map_err(|e| format!("serialise app: {e:?}"))?;
    let mut req = ExtractRequest::new(dex, &app.entry);
    req.name = Some("smoke".to_owned());
    req.packer = args.packer.clone();

    let extract = |client: &mut Client, label: &str| -> Result<(bool, Vec<u8>), String> {
        match client.extract(&req).map_err(|e| format!("{label}: {e}"))? {
            ExtractReply::Done { cached, dex, .. } => Ok((cached, dex)),
            ExtractReply::Failed { job_status, detail } => Err(format!(
                "{label}: job failed: {job_status} {}",
                detail.unwrap_or_default()
            )),
            ExtractReply::Overloaded => Err(format!("{label}: daemon overloaded")),
            ExtractReply::DeadlineExceeded { waited_ms } => {
                Err(format!("{label}: deadline exceeded after {waited_ms}ms"))
            }
        }
    };

    let (_, cold_dex) = extract(&mut client, "cold extract")?;
    if cold_dex.is_empty() {
        return Err("cold extract returned an empty DEX".to_owned());
    }
    let (warm_cached, warm_dex) = extract(&mut client, "warm extract")?;
    if !warm_cached {
        return Err("second identical extract was not served from cache".to_owned());
    }
    if warm_dex != cold_dex {
        return Err("cached DEX differs from the fresh extraction".to_owned());
    }
    eprintln!(
        "dexlegod-smoke: warm hit ok ({} bytes, byte-identical)",
        warm_dex.len()
    );

    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let hits = stats.get("hits").and_then(Value::as_u64).unwrap_or(0);
    if hits < 1 {
        return Err(format!("stats report no cache hits: {hits}"));
    }
    eprintln!("dexlegod-smoke: stats ok (hits = {hits})");

    if args.shutdown {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        eprintln!("dexlegod-smoke: shutdown acknowledged");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("dexlegod-smoke: {reason}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("dexlegod-smoke: FAIL: {reason}");
            ExitCode::FAILURE
        }
    }
}
