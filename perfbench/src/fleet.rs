//! The system under test: `dexlego-router` in front of two
//! `dexlegod --workers 1` backends, each a separate process with its own
//! fresh store directory.
//!
//! Separate processes, not in-process daemons: the verify cache and the
//! allocator are per process, and in-process backends would share them.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dexlego_harness::json::Value;
use dexlego_service::Client;

pub const BACKENDS: usize = 2;

pub struct Fleet {
    /// Router first, then the backends.
    procs: Vec<Child>,
    pub router_addr: String,
    pub backend_addrs: Vec<String>,
}

/// Flattened numeric stats: `hits`, `store.entries`, `router.hedges`, ...
pub type Stats = BTreeMap<String, u64>;

impl Fleet {
    /// Starts two backends and the router, and waits until each prints
    /// its listening address.
    pub fn start(bin_dir: &Path, run_dir: &Path) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            procs: Vec::new(),
            router_addr: String::new(),
            backend_addrs: Vec::new(),
        };
        for b in 0..BACKENDS {
            let store = run_dir.join(format!("store-{b}"));
            let mut cmd = Command::new(bin_dir.join("dexlegod"));
            cmd.args(["--addr", "127.0.0.1:0", "--workers", "1", "--store"])
                .arg(&store);
            let (child, addr) = spawn_listening(cmd, "dexlegod: listening on ")?;
            fleet.procs.push(child);
            fleet.backend_addrs.push(addr);
        }
        let mut cmd = Command::new(bin_dir.join("dexlego-router"));
        cmd.args(["--addr", "127.0.0.1:0"]);
        for addr in &fleet.backend_addrs {
            cmd.args(["--backend", addr]);
        }
        let (child, addr) = spawn_listening(cmd, "dexlego-router: listening on ")?;
        fleet.procs.insert(0, child);
        fleet.router_addr = addr;
        Ok(fleet)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Child::id).collect()
    }

    /// Stats of the router (index 0) and of each backend.
    pub fn stats(&self) -> Result<Vec<Stats>, String> {
        let mut out = Vec::new();
        for addr in std::iter::once(&self.router_addr).chain(&self.backend_addrs) {
            let mut client = Client::connect(addr).map_err(|e| format!("stats {addr}: {e}"))?;
            let value = client.stats().map_err(|e| format!("stats {addr}: {e}"))?;
            let mut flat = Stats::new();
            flatten("", &value, &mut flat);
            out.push(flat);
        }
        Ok(out)
    }

    /// Waits until every backend holds `entries` store entries (R=2 on a
    /// two-backend fleet puts every result on both).
    pub fn await_replication(&self, entries: u64, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let stats = self.stats()?;
            let settled = stats[1..]
                .iter()
                .all(|s| s.get("store.entries").copied().unwrap_or(0) >= entries);
            if settled {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "replication did not settle at {entries} entries per backend"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Waits until no backend has a job in flight, so a probe starts on
    /// an idle fleet: a hedged request's losing duplicate runs on after
    /// its reply, and would otherwise share the cores with the next one.
    pub fn await_idle(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let stats = self.stats()?;
            if stats[1..]
                .iter()
                .all(|s| s.get("in_flight").copied().unwrap_or(0) == 0)
            {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("the fleet did not go idle".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// CPU time (utime + stime) of every fleet process, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        self.pids().into_iter().map(proc_cpu_ms).sum()
    }

    /// Sum of the fleet processes' peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(proc_hwm_kb).sum::<f64>() / 1024.0
    }

    /// Graceful drain: `shutdown` to the router and to every backend,
    /// then wait for each process; kill whatever does not exit.
    pub fn stop(mut self) {
        for addr in std::iter::once(&self.router_addr).chain(&self.backend_addrs) {
            if let Ok(mut client) = Client::connect(addr) {
                let _ = client.shutdown();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut self.procs {
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // Drop kills and reaps anything still running.
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.procs {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

fn spawn_listening(mut cmd: Command, marker: &str) -> Result<(Child, String), String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    match (read, line.trim_end().strip_prefix(marker)) {
        (Ok(_), Some(addr)) => Ok((child, addr.to_owned())),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("{cmd:?} did not report a listening address"))
        }
    }
}

fn flatten(prefix: &str, value: &Value, out: &mut Stats) {
    match value {
        Value::Obj(members) => {
            for (k, v) in members {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, v, out);
            }
        }
        v => {
            if let Some(n) = v.as_u64() {
                out.insert(prefix.to_owned(), n);
            }
        }
    }
}

/// `after - before` for one counter (saturating: a gauge may shrink).
pub fn delta(before: &Stats, after: &Stats, key: &str) -> u64 {
    let a = after.get(key).copied().unwrap_or(0);
    let b = before.get(key).copied().unwrap_or(0);
    a.saturating_sub(b)
}

/// `delta` summed over the backends (entries 1..).
pub fn backend_delta(before: &[Stats], after: &[Stats], key: &str) -> u64 {
    (1..after.len())
        .map(|i| delta(&before[i], &after[i], key))
        .sum()
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (the
/// Linux `USER_HZ`, fixed at 100 on every mainstream architecture).
const CLK_TCK: f64 = 100.0;

fn proc_cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime 14, stime 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) * 1000.0 / CLK_TCK
}

fn proc_hwm_kb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// A fresh per-fleet directory under the run directory.
pub fn fleet_dir(run_dir: &Path, index: usize) -> PathBuf {
    run_dir.join(format!("fleet-{index}"))
}
