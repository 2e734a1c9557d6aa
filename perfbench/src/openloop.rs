//! Open-loop timing: sessions are due on a schedule, whether or not the
//! generator has a free connection to start them on.
//!
//! Every time here is in nanoseconds from the phase epoch. A session is
//! timed from when it was *due*, not from when the generator got round
//! to it, so a stall that delays later sessions is charged to them; the
//! generator's own lateness is reported separately as lag and backlog.

/// When one scheduled session was due, started, and got its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Scheduled arrival.
    pub due: u64,
    /// When the generator actually began it (connect).
    pub start: u64,
    /// When its verdict arrived; `None` if it was refused or failed.
    pub verdict: Option<u64>,
}

impl Timing {
    /// How late the generator started the session.
    pub fn lag(&self) -> u64 {
        self.start.saturating_sub(self.due)
    }

    /// Due time to verdict, queueing included; `None` without a verdict.
    pub fn session(&self) -> Option<u64> {
        self.verdict.map(|v| v.saturating_sub(self.due))
    }
}

/// Wall-clock due time of a plan arrival at `start_ms` simulated
/// milliseconds when the plan's day is divided by `compression`.
pub fn due_ns(start_ms: u64, compression: f64) -> u64 {
    (start_ms as f64 * 1e6 / compression) as u64
}

/// The generator's backlog at each of `instants`: sessions due by that
/// instant minus sessions started by it.
pub fn backlog_at(timings: &[Timing], instants: impl IntoIterator<Item = u64>) -> Vec<usize> {
    let mut dues: Vec<u64> = timings.iter().map(|t| t.due).collect();
    let mut starts: Vec<u64> = timings.iter().map(|t| t.start).collect();
    dues.sort_unstable();
    starts.sort_unstable();
    instants
        .into_iter()
        .map(|at| {
            let due = dues.partition_point(|&d| d <= at);
            let started = starts.partition_point(|&x| x <= at);
            due.saturating_sub(started)
        })
        .collect()
}

/// `points` evenly spaced instants after the epoch, the last at `span`.
/// Backlog sampled on the clock weighs a burst by how long its queue
/// lasts, not by how many sessions the burst brings.
pub fn clock(span: u64, points: usize) -> impl Iterator<Item = u64> {
    (1..=points).map(move |k| (span as u128 * k as u128 / points as u128) as u64)
}

/// Whether the backlog grew over the phase: the median of its last
/// quarter exceeds the median of its first quarter by more than `slack`
/// sessions. A phase replays a whole simulated day, which starts and
/// ends in the diurnal trough, so a generator that keeps up ends about
/// where it began; one that falls behind ends with a queue. Medians of
/// backlog sampled on the [`clock`] keep a short burst that drains from
/// counting as growth.
pub fn backlog_grows(backlog: &[usize], slack: usize) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let median = |s: &[usize]| {
        let mut v = s.to_vec();
        v.sort_unstable();
        v[v.len() / 2]
    };
    median(&backlog[backlog.len() - q..]) > median(&backlog[..q]) + slack
}

/// What one fixed-rate phase achieved, for the sustained-rate rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseResult {
    /// Sessions due in the phase.
    pub due: usize,
    /// Sessions served with a due-to-verdict time within the limit.
    /// Refused and failed sessions never count here.
    pub within_limit: usize,
    /// Whether the generator's backlog grew over the phase.
    pub backlog_grew: bool,
}

impl PhaseResult {
    /// The phase meets the limit when at least `share` of its due
    /// sessions were served within it and the backlog did not grow.
    pub fn meets(&self, share: f64) -> bool {
        self.due > 0 && self.within_limit as f64 >= share * self.due as f64 && !self.backlog_grew
    }
}

/// Index of the highest-rate phase that meets the limit, with every
/// lower-rate phase meeting it too. `phases` are in increasing rate.
pub fn sustained(phases: &[PhaseResult], share: f64) -> Option<usize> {
    phases.iter().take_while(|p| p.meets(share)).count().checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn session_is_timed_from_due_and_lag_is_separate() {
        let t = Timing { due: 10 * MS, start: 15 * MS, verdict: Some(18 * MS) };
        assert_eq!(t.lag(), 5 * MS);
        assert_eq!(t.session(), Some(8 * MS), "queueing before the start counts");
        let refused = Timing { due: 10 * MS, start: 10 * MS, verdict: None };
        assert_eq!(refused.session(), None);
        let early = Timing { due: 10 * MS, start: 9 * MS, verdict: Some(12 * MS) };
        assert_eq!(early.lag(), 0);
    }

    #[test]
    fn due_times_follow_compression() {
        assert_eq!(due_ns(86_400_000, 86_400.0 / 3.0), 3_000 * MS);
        assert_eq!(due_ns(0, 10.0), 0);
    }

    #[test]
    fn backlog_counts_due_but_unstarted() {
        // Three due at once, started one after another.
        let t = |due, start| Timing { due, start, verdict: None };
        let starts = |ts: &[Timing]| ts.iter().map(|t| t.start).collect::<Vec<_>>();
        let three = [t(0, 0), t(0, 5), t(0, 10)];
        let b = backlog_at(&three, starts(&three));
        assert_eq!(b, vec![2, 1, 0]);
        let on_time = [t(0, 0), t(10, 10), t(20, 20)];
        let on_time = backlog_at(&on_time, starts(&on_time));
        assert_eq!(on_time, vec![0, 0, 0]);
    }

    #[test]
    fn backlog_is_sampled_on_the_clock() {
        let t = |due, start| Timing { due, start, verdict: None };
        // Ten sessions due at 0, started one per ms: a queue that drains.
        let drained: Vec<Timing> = (0..10).map(|k| t(0, k * MS)).collect();
        assert_eq!(backlog_at(&drained, clock(20 * MS, 4)), vec![4, 0, 0, 0]);
        // One due per ms, started at half that pace: a queue that grows.
        let behind: Vec<Timing> = (0..20).map(|k| t(k * MS, 2 * k * MS)).collect();
        let b = backlog_at(&behind, clock(20 * MS, 4));
        assert!(b.windows(2).all(|w| w[0] <= w[1]) && b[3] > b[0], "{b:?}");
        // A burst late in the span that drains within a sample's spacing
        // does not show in the clock-sampled backlog.
        let mut late: Vec<Timing> = (0..40).map(|k| t(k * MS, k * MS)).collect();
        late.extend((0..10).map(|k| t(35 * MS, 35 * MS + k * MS / 10)));
        let peak = backlog_at(&late, late.iter().map(|t| t.start)).into_iter().max();
        assert_eq!(peak, Some(9));
        assert!(!backlog_grows(&backlog_at(&late, clock(40 * MS, 40)), 2));
    }

    #[test]
    fn growing_backlog_is_detected() {
        let steady = vec![1usize, 0, 2, 1, 0, 1, 2, 0, 1, 1, 0, 2];
        assert!(!backlog_grows(&steady, 2));
        let ramp: Vec<usize> = (0..40).collect();
        assert!(backlog_grows(&ramp, 2));
        // A burst in the middle that drains is not growth, nor is a
        // short one at the very end.
        let burst = vec![0usize, 0, 0, 9, 12, 8, 3, 0, 0, 0, 0, 0];
        assert!(!backlog_grows(&burst, 2));
        let late = vec![0usize, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 9, 7, 0, 0];
        assert!(!backlog_grows(&late, 2));
        assert!(!backlog_grows(&[5, 6], 0), "too short to judge");
    }

    #[test]
    fn sustained_rate_needs_limit_and_flat_backlog() {
        let ok = PhaseResult { due: 100, within_limit: 100, backlog_grew: false };
        let late = PhaseResult { due: 100, within_limit: 98, backlog_grew: false };
        let queued = PhaseResult { due: 100, within_limit: 100, backlog_grew: true };
        assert!(ok.meets(0.99));
        assert!(!late.meets(0.99), "98% within the limit misses a 99% share");
        assert!(!queued.meets(0.99), "a growing backlog fails even within the limit");
        assert_eq!(sustained(&[ok, ok, late], 0.99), Some(1));
        assert_eq!(sustained(&[ok, ok, ok], 0.99), Some(2));
        assert_eq!(sustained(&[late, ok, ok], 0.99), None);
        assert_eq!(
            sustained(&[ok, queued, ok], 0.99),
            Some(0),
            "rates above a failure do not count"
        );
    }
}
