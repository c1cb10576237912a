//! Structured run reports.
//!
//! Every job produces a [`JobReport`]; [`run_batch`](crate::pool::run_batch)
//! aggregates them into a [`RunReport`]. Both serialise to JSON (hand-rolled
//! — the workspace is dependency-free) so corpus runs can be archived and
//! compared across revisions.

use dexlego_core::RevealOutcome;
use dexlego_packer::PackerId;

use crate::job::JobStatus;
use crate::json::{self, Value};

/// Everything recorded about one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name from the spec.
    pub name: String,
    /// Packer profile display name, if the app was packed.
    pub packer: Option<&'static str>,
    /// Terminal status.
    pub status: JobStatus,
    /// Whether this report was served from the content-addressed result
    /// store instead of a fresh pipeline run (counters and phase timings
    /// then describe the original extraction; `wall_us` is the lookup
    /// time).
    pub cached: bool,
    /// Wall-clock time of the whole job, microseconds.
    pub wall_us: u64,
    /// Bytecode instructions interpreted while driving the app.
    pub insns: u64,
    /// Work counters in recording order, as (name, value): the
    /// interpreter's execution statistics, every [`PipelineMetrics`]
    /// counter, and the verifier errors of a rejected job. A stage the job
    /// never reached records nothing. Read through [`JobReport::counter`].
    /// Counters share the flat JSON namespace with the other members here
    /// and with dexlegod's `stats`, so a counter must not reuse one of
    /// their names.
    ///
    /// [`PipelineMetrics`]: dexlego_core::metrics::PipelineMetrics
    pub counters: Vec<(String, u64)>,
    /// Per-phase pipeline timings in microseconds, in execution order
    /// (collect, serialize, tree_merge, dexgen, canonicalize, verify,
    /// validate).
    pub phases_us: Vec<(String, u64)>,
}

impl JobReport {
    /// A zeroed report carrying only identity; callers fill in what the
    /// job managed to produce before it stopped.
    pub fn empty(name: String, packer: Option<&'static str>) -> JobReport {
        JobReport {
            name,
            packer,
            status: JobStatus::Ok,
            cached: false,
            wall_us: 0,
            insns: 0,
            counters: Vec::new(),
            phases_us: Vec::new(),
        }
    }

    /// Copies every pipeline counter and phase timing out of a reveal
    /// outcome.
    pub fn absorb(&mut self, outcome: &RevealOutcome) {
        for &(name, n) in outcome.metrics.counters() {
            self.count(name, n);
        }
        self.phases_us = outcome
            .metrics
            .phases()
            .iter()
            .map(|&(name, us)| (name.to_owned(), us))
            .collect();
    }

    /// Adds `n` to the counter `name` (appended if new).
    pub fn count(&mut self, name: &str, n: u64) {
        match self.counters.iter_mut().find(|(c, _)| c == name) {
            Some((_, total)) => *total += n,
            None => self.counters.push((name.to_owned(), n)),
        }
    }

    /// Value of the counter `name`; zero when it was never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| c == name)
            .map_or(0, |&(_, n)| n)
    }

    /// Whether the job failed.
    pub fn failed(&self) -> bool {
        !self.status.is_ok()
    }

    /// Timing of a named phase, if recorded.
    pub fn phase_us(&self, phase: &str) -> Option<u64> {
        self.phases_us
            .iter()
            .find(|(name, _)| name == phase)
            .map(|&(_, us)| us)
    }

    /// Reconstructs a report from the parsed JSON object emitted by
    /// [`JobReport::to_json`] — the receive side of a report travelling
    /// over the daemon wire protocol (the routing tier rebuilds batch-run
    /// reports from extract replies). Missing numeric members default to
    /// zero, and every unsigned-integer member other than `wall_us` and
    /// `insns` is taken as a counter; an unknown packer name degrades to
    /// `None` (the display name is reporting identity, not pipeline input).
    ///
    /// # Errors
    ///
    /// A missing `name` or an unrecognisable `status` label.
    pub fn from_json(value: &Value) -> Result<JobReport, String> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "report without \"name\"".to_owned())?
            .to_owned();
        let label = value
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| "report without \"status\"".to_owned())?;
        let detail = value.get("detail").and_then(Value::as_str);
        let status = JobStatus::from_label(label, detail)
            .ok_or_else(|| format!("unknown report status: {label}"))?;
        let packer = value
            .get("packer")
            .and_then(Value::as_str)
            .and_then(PackerId::by_name)
            .map(|id| id.profile().name);
        let num = |key: &str| value.get(key).and_then(Value::as_u64).unwrap_or(0);
        let phases_us = match value.get("phases_us") {
            Some(Value::Obj(members)) => members
                .iter()
                .filter_map(|(phase, us)| us.as_u64().map(|us| (phase.clone(), us)))
                .collect(),
            _ => Vec::new(),
        };
        let counters = match value {
            Value::Obj(members) => members
                .iter()
                .filter(|(key, _)| key != "wall_us" && key != "insns")
                .filter_map(|(key, n)| n.as_u64().map(|n| (key.clone(), n)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(JobReport {
            name,
            packer,
            status,
            cached: value
                .get("cached")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            wall_us: num("wall_us"),
            insns: num("insns"),
            counters,
            phases_us,
        })
    }

    /// This job as a JSON object.
    pub fn to_json(&self) -> String {
        let phases: Vec<(&str, String)> = self
            .phases_us
            .iter()
            .map(|(name, us)| (name.as_str(), us.to_string()))
            .collect();
        let mut members = vec![
            ("name", json::string(&self.name)),
            (
                "packer",
                self.packer.map_or("null".to_owned(), json::string),
            ),
            ("status", json::string(self.status.label())),
            ("cached", self.cached.to_string()),
            (
                "detail",
                self.status
                    .detail()
                    .map_or("null".to_owned(), |d| json::string(&d)),
            ),
            ("wall_us", self.wall_us.to_string()),
            ("insns", self.insns.to_string()),
        ];
        // Counters are flat top-level members, as readers have always
        // found them.
        members.extend(
            self.counters
                .iter()
                .map(|(name, n)| (name.as_str(), n.to_string())),
        );
        members.push(("phases_us", json::object(&phases)));
        json::object(&members)
    }
}

/// Aggregate result of a batch run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole batch, microseconds.
    pub wall_us: u64,
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
}

impl RunReport {
    /// Whether every job succeeded.
    pub fn ok(&self) -> bool {
        self.jobs.iter().all(|j| !j.failed())
    }

    /// The jobs that failed.
    pub fn failed(&self) -> Vec<&JobReport> {
        self.jobs.iter().filter(|j| j.failed()).collect()
    }

    /// How many jobs were served from the result store.
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cached).count()
    }

    /// One-line human summary, plus one line per failed job.
    pub fn summary(&self) -> String {
        let failed = self.failed();
        let hits = self.cache_hits();
        let cached = if hits > 0 {
            format!(", {hits} cached")
        } else {
            String::new()
        };
        let mut out = format!(
            "{} jobs: {} ok, {} failed{cached} ({} workers, {:.1} ms)",
            self.jobs.len(),
            self.jobs.len() - failed.len(),
            failed.len(),
            self.workers,
            self.wall_us as f64 / 1000.0
        );
        for job in failed {
            out.push_str(&format!(
                "\n  FAILED {} [{}]{}",
                job.name,
                job.status.label(),
                job.status
                    .detail()
                    .map_or(String::new(), |d| format!(": {d}"))
            ));
        }
        out
    }

    /// The whole run as a JSON document.
    pub fn to_json(&self) -> String {
        let jobs: Vec<String> = self.jobs.iter().map(JobReport::to_json).collect();
        json::object(&[
            ("workers", self.workers.to_string()),
            ("wall_us", self.wall_us.to_string()),
            ("ok", self.ok().to_string()),
            ("jobs", json::array(&jobs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(status: JobStatus) -> JobReport {
        JobReport {
            status,
            wall_us: 1500,
            phases_us: vec![("collect".to_owned(), 42), ("verify".to_owned(), 7)],
            ..JobReport::empty("j1".to_owned(), Some("360"))
        }
    }

    #[test]
    fn json_includes_status_and_phases() {
        let j = sample_report(JobStatus::Ok).to_json();
        assert!(j.contains("\"status\": \"ok\""), "{j}");
        assert!(j.contains("\"detail\": null"), "{j}");
        assert!(
            j.contains("\"phases_us\": {\"collect\": 42, \"verify\": 7}"),
            "{j}"
        );
        let j = sample_report(JobStatus::Panicked("boom \"quoted\"".to_owned())).to_json();
        assert!(j.contains("\"status\": \"panicked\""), "{j}");
        assert!(j.contains("boom \\\"quoted\\\""), "{j}");
    }

    #[test]
    fn run_report_summarises_failures() {
        let run = RunReport {
            workers: 2,
            wall_us: 2000,
            jobs: vec![
                sample_report(JobStatus::Ok),
                sample_report(JobStatus::Timeout),
            ],
        };
        assert!(!run.ok());
        assert_eq!(run.failed().len(), 1);
        let s = run.summary();
        assert!(s.contains("1 ok, 1 failed"), "{s}");
        assert!(s.contains("FAILED j1 [timeout]"), "{s}");
        assert!(run.to_json().contains("\"ok\": false"));
    }

    #[test]
    fn phase_lookup() {
        let j = sample_report(JobStatus::Ok);
        assert_eq!(j.phase_us("collect"), Some(42));
        assert_eq!(j.phase_us("missing"), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        for status in [
            JobStatus::Ok,
            JobStatus::Timeout,
            JobStatus::Panicked("boom".to_owned()),
            JobStatus::ValidationFailed(vec!["a".to_owned(), "b".to_owned()]),
        ] {
            let mut report = sample_report(status);
            report.cached = true;
            report.insns = 12;
            report.count("typed_insns", 9);
            report.count("verify_cache_hits", 5);
            report.count("verify_cache_misses", 2);
            let value = json::parse(&report.to_json()).expect("emitted JSON parses");
            let back = JobReport::from_json(&value).expect("round trip");
            assert_eq!(back.name, report.name);
            assert_eq!(back.packer, report.packer);
            assert_eq!(back.status.label(), report.status.label());
            assert_eq!(back.status.detail(), report.status.detail());
            assert_eq!(back.cached, report.cached);
            assert_eq!(back.wall_us, report.wall_us);
            assert_eq!(back.insns, report.insns);
            assert_eq!(back.counter("typed_insns"), report.counter("typed_insns"));
            assert_eq!(
                back.counter("verify_cache_hits"),
                report.counter("verify_cache_hits")
            );
            assert_eq!(
                back.counter("verify_cache_misses"),
                report.counter("verify_cache_misses")
            );
            assert_eq!(back.counters, report.counters);
            assert_eq!(back.phases_us, report.phases_us);
        }
        let bad = json::parse(r#"{"name": "x", "status": "warped"}"#).unwrap();
        assert!(JobReport::from_json(&bad).is_err());
        let anonymous = json::parse(r#"{"status": "ok"}"#).unwrap();
        assert!(JobReport::from_json(&anonymous).is_err());
    }
}
