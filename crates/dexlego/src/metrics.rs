//! A lightweight metrics sink threaded through the pipeline.
//!
//! Every [`crate::pipeline::reveal`] produces a [`PipelineMetrics`] inside
//! its [`crate::pipeline::RevealOutcome`]: named phase timings (collect,
//! serialize, tree-merge, dexgen, canonicalize, verify, validate) plus
//! counters (collected methods and instructions, dump size, verifier lints,
//! typed-IR size, verify-cache hits and misses). Counters are carried
//! generically from here to the wire: the batch harness copies every one
//! into its per-job report, the result store keeps them in a key/value
//! section, and `dexlegod` sums them into its `stats` reply, so recording a
//! new counter here is the only edit it needs.

use std::time::Instant;

/// Ordered phase timings and counters for one pipeline run.
///
/// Phases and counters are small append-only association lists rather than
/// hash maps: a pipeline run records fewer than ten of each, lookups are
/// rare, and insertion order (= execution order) is meaningful in reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    phases: Vec<(&'static str, u64)>,
    counters: Vec<(&'static str, u64)>,
}

impl PipelineMetrics {
    /// Creates an empty sink.
    pub fn new() -> PipelineMetrics {
        PipelineMetrics::default()
    }

    /// Times `f`, recording the elapsed microseconds under `phase`, and
    /// returns its result.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record_phase_us(phase, start.elapsed().as_micros() as u64);
        value
    }

    /// Adds `us` microseconds to `phase` (created at the current position
    /// if new).
    pub fn record_phase_us(&mut self, phase: &'static str, us: u64) {
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += us,
            None => self.phases.push((phase, us)),
        }
    }

    /// Adds `n` to `counter` (created at the current position if new).
    pub fn count(&mut self, counter: &'static str, n: u64) {
        match self.counters.iter_mut().find(|(c, _)| *c == counter) {
            Some((_, total)) => *total += n,
            None => self.counters.push((counter, n)),
        }
    }

    /// Phase timings in execution order, as (name, microseconds).
    pub fn phases(&self) -> &[(&'static str, u64)] {
        &self.phases
    }

    /// Counters in recording order, as (name, value).
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Microseconds recorded for `phase`, if any.
    pub fn phase_us(&self, phase: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|&(_, us)| us)
    }

    /// Value of `counter`, if recorded.
    pub fn counter(&self, counter: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map(|&(_, n)| n)
    }

    /// Total time across all recorded phases, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.phases.iter().map(|&(_, us)| us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_keep_order() {
        let mut m = PipelineMetrics::new();
        m.record_phase_us("a", 3);
        m.record_phase_us("b", 5);
        m.record_phase_us("a", 4);
        assert_eq!(m.phases(), &[("a", 7), ("b", 5)]);
        assert_eq!(m.phase_us("b"), Some(5));
        assert_eq!(m.phase_us("missing"), None);
        assert_eq!(m.total_us(), 12);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = PipelineMetrics::new();
        m.count("methods", 2);
        m.count("methods", 3);
        assert_eq!(m.counter("methods"), Some(5));
    }

    #[test]
    fn time_records_and_passes_through() {
        let mut m = PipelineMetrics::new();
        let v = m.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert!(m.phase_us("work").is_some());
    }
}
