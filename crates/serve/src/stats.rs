//! Serving statistics: the registry is the one accounting system.
//!
//! `ServeMetrics` registers every `serve_*` metric once, when the
//! server binds, in the server's own registry. The acceptor and every
//! shard update those shared atomic handles in place (a relaxed add on
//! the hot path, no lock), so the live `Stats` exposition and the
//! end-of-run [`ServerStats`] are two reads of the same numbers:
//! [`Server::join`](crate::Server::join) builds its report field for
//! field from the handles. The two aggregates that are not counters,
//! merged [`TelemetryHealth`] and per-stage [`StageMetrics`], are
//! folded under one mutex once per session model generation, never per
//! frame.

use appclass_metrics::{StageMetrics, TelemetryHealth};
use appclass_obs::{Counter, Gauge, Histogram, Registry};
use parking_lot::Mutex;
use std::fmt;

/// Power-of-two-nanosecond latency histogram, re-exported from the
/// observability layer it was extracted into ([`appclass_obs::hist`]).
/// The serving report's semantics are unchanged: bucket `i` covers
/// durations up to `2^i` nanoseconds and `quantile` reports the upper
/// bound of the bucket holding the requested rank.
pub use appclass_obs::LatencyHistogram;

/// Aggregate statistics for one server lifetime.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Connections admitted to a shard. Counted before the handshake,
    /// so a refused `Hello` is both started and errored.
    pub sessions_started: u64,
    /// Sessions that ran to a clean end (`Bye` or drained shutdown).
    pub sessions_finished: u64,
    /// Connections refused by admission control.
    pub sessions_rejected: u64,
    /// Connections soft-refused with `Busy` while the server was
    /// shedding load (distinct from the hard `sessions_rejected`).
    pub sessions_busy: u64,
    /// Sessions that ended with a protocol or i/o error.
    pub session_errors: u64,
    /// Snapshot frames received across all sessions.
    pub frames_in: u64,
    /// Frames repaired by the per-session guards.
    pub frames_repaired: u64,
    /// Frames dropped by the per-session guards.
    pub frames_dropped: u64,
    /// Snapshot payloads that failed to decode.
    pub frames_malformed: u64,
    /// Frames shed past their deadline budget across all sessions.
    pub frames_deadline_shed: u64,
    /// Verdicts served across all sessions.
    pub verdicts: u64,
    /// Merged telemetry health across all sessions.
    pub health: TelemetryHealth,
    /// Merged per-stage classifier costs.
    pub stage_metrics: StageMetrics,
    /// Merged classify-latency histogram.
    pub classify_latency: LatencyHistogram,
}

/// Every `serve_*` handle of one server, registered once at bind and
/// shared by the acceptor and all shards. Field names follow the
/// [`ServerStats`] fields they report as.
pub(crate) struct ServeMetrics {
    pub(crate) sessions_started: Counter,
    pub(crate) sessions_finished: Counter,
    pub(crate) sessions_rejected: Counter,
    /// Soft `Busy` refusals while shedding.
    pub(crate) sessions_busy: Counter,
    pub(crate) session_errors: Counter,
    pub(crate) swap_total: Counter,
    pub(crate) swap_latency: Histogram,
    pub(crate) frames_deadline_shed: Counter,
    pub(crate) overload_state: Gauge,
    pub(crate) queue_depth: Gauge,
    pub(crate) frames_in: Counter,
    pub(crate) frames_repaired: Counter,
    pub(crate) frames_dropped: Counter,
    pub(crate) frames_malformed: Counter,
    pub(crate) verdicts: Counter,
    pub(crate) classify_latency: Histogram,
    /// Telemetry health and stage costs of every finished model
    /// generation (see `session::finish`).
    pub(crate) generations: Mutex<(TelemetryHealth, StageMetrics)>,
}

impl ServeMetrics {
    /// Registers every serving metric, in exposition order, so a fresh
    /// server's `Stats` reply already names all of them.
    pub(crate) fn register(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            sessions_started: registry.counter("serve_sessions_started_total"),
            sessions_finished: registry.counter("serve_sessions_finished_total"),
            sessions_rejected: registry.counter("serve_sessions_rejected_total"),
            sessions_busy: registry.counter("serve_shed_total"),
            session_errors: registry.counter("serve_session_errors_total"),
            swap_total: registry.counter("serve_model_swap_total"),
            swap_latency: registry.histogram("serve_model_swap_latency"),
            frames_deadline_shed: registry.counter("serve_deadline_shed_total"),
            overload_state: registry.gauge("serve_overload_state"),
            queue_depth: registry.gauge("serve_queue_depth"),
            frames_in: registry.counter("serve_frames_in_total"),
            frames_repaired: registry.counter("serve_frames_repaired_total"),
            frames_dropped: registry.counter("serve_frames_dropped_total"),
            frames_malformed: registry.counter("serve_frames_malformed_total"),
            verdicts: registry.counter("serve_classify_total"),
            classify_latency: registry.histogram("serve_classify_latency"),
            generations: Mutex::new(Default::default()),
        }
    }

    /// The report as the registry reads now.
    pub(crate) fn stats(&self) -> ServerStats {
        let (health, stage_metrics) = self.generations.lock().clone();
        ServerStats {
            sessions_started: self.sessions_started.get(),
            sessions_finished: self.sessions_finished.get(),
            sessions_rejected: self.sessions_rejected.get(),
            sessions_busy: self.sessions_busy.get(),
            session_errors: self.session_errors.get(),
            frames_in: self.frames_in.get(),
            frames_repaired: self.frames_repaired.get(),
            frames_dropped: self.frames_dropped.get(),
            frames_malformed: self.frames_malformed.get(),
            frames_deadline_shed: self.frames_deadline_shed.get(),
            verdicts: self.verdicts.get(),
            health,
            stage_metrics,
            classify_latency: self.classify_latency.snapshot(),
        }
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sessions: {} started, {} finished, {} rejected, {} errored",
            self.sessions_started,
            self.sessions_finished,
            self.sessions_rejected,
            self.session_errors
        )?;
        if self.sessions_busy > 0 {
            writeln!(
                f,
                "busy:     {} connections soft-refused while shedding",
                self.sessions_busy
            )?;
        }
        writeln!(
            f,
            "frames:   {} in, {} repaired, {} dropped, {} malformed",
            self.frames_in, self.frames_repaired, self.frames_dropped, self.frames_malformed
        )?;
        if self.frames_deadline_shed > 0 {
            writeln!(
                f,
                "shed:     {} frames past their deadline budget",
                self.frames_deadline_shed
            )?;
        }
        writeln!(f, "verdicts: {}", self.verdicts)?;
        if self.classify_latency.count() > 0 {
            writeln!(
                f,
                "classify latency: p50 < {:?}, p99 < {:?} ({} rounds)",
                self.classify_latency.quantile(0.50),
                self.classify_latency.quantile(0.99),
                self.classify_latency.count()
            )?;
        }
        if !self.stage_metrics.is_empty() {
            write!(f, "{}", self.stage_metrics)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.quantile(0.0), Duration::ZERO);
        assert_eq!(h.quantile(1.0), Duration::ZERO);
    }

    #[test]
    fn single_bucket_histogram_pins_every_quantile_to_that_bucket() {
        // Regression for the extraction into `appclass-obs`: with every
        // observation in one bucket, p50 and p99 must agree on its bound.
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(Duration::from_nanos(700)); // bucket covering < 1024 ns
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert_eq!(p50, p99);
        assert_eq!(p50, Duration::from_nanos(1023));
    }

    #[test]
    fn quantile_bound_formula_is_bit_identical_to_the_old_local_copy() {
        // The pre-extraction serve-local histogram computed the bucket
        // bound as `(1 << idx) - 1`; a range of magnitudes must still
        // land on exactly those bounds.
        for (nanos, bound) in [(1u64, 1u64), (2, 3), (900, 1023), (1024, 2047), (500_000, 524_287)]
        {
            let mut h = LatencyHistogram::new();
            h.record(Duration::from_nanos(nanos));
            assert_eq!(h.quantile(1.0), Duration::from_nanos(bound), "nanos={nanos}");
        }
    }

    #[test]
    fn quantiles_bracket_observations() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(900)); // bucket 2^10
        }
        h.record(Duration::from_micros(500)); // bucket 2^19
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!(p50 >= Duration::from_nanos(900) && p50 < Duration::from_nanos(2000), "{p50:?}");
        let p99 = h.quantile(0.99);
        assert!(p99 < Duration::from_micros(2), "p99 ranks inside the fast bucket: {p99:?}");
        let p100 = h.quantile(1.0);
        assert!(p100 >= Duration::from_micros(500), "{p100:?}");
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) >= Duration::from_millis(1));
    }

    #[test]
    fn stats_read_the_registry_handles() {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        metrics.sessions_busy.inc();
        metrics.frames_in.add(7);
        metrics.classify_latency.record(Duration::from_micros(3));
        metrics.generations.lock().0.seen = 7;
        let stats = metrics.stats();
        assert_eq!(stats.sessions_busy, 1);
        assert_eq!(stats.frames_in, 7);
        assert_eq!(stats.classify_latency.count(), 1);
        assert_eq!(stats.health.seen, 7);
        let text = registry.render();
        assert!(text.contains("serve_shed_total 1\n"), "{text}");
        assert!(text.contains("serve_frames_in_total 7\n"), "{text}");
    }

    #[test]
    fn display_has_a_verdict_line() {
        let stats = ServerStats { verdicts: 7, ..Default::default() };
        let text = stats.to_string();
        assert!(text.contains("verdicts: 7"), "{text}");
    }
}
