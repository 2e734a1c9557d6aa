//! Per-session policy and the reply helpers of the session state
//! machine.
//!
//! A session is one connection with one [`OnlineClassifier`] per model
//! *generation*; the state machine itself runs in the server's shard
//! event loops. Every snapshot passes through the session's own
//! [`FrameGuard`] via `push_guarded`, so a client on a degraded
//! telemetry link degrades only its own verdicts. Sessions survive hot
//! model swaps: when the served model changes, the session folds the
//! old generation's telemetry into its outcome ([`finish`]) and
//! rebuilds against the new pipeline on the same connection. Verdicts
//! carry the fingerprint of the model that produced them, so a client
//! watches its tags flip old → new.
//!
//! [`FrameGuard`]: appclass_metrics::FrameGuard

use crate::feed::{CompositionFeed, FeedEntry};
use crate::proto::write_frame;
use crate::stats::SessionOutcome;
use appclass_core::online::OnlineClassifier;
use appclass_metrics::{ByeReason, ControlFrame};
use appclass_obs::TraceContext;
use std::io::BufWriter;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-session policy knobs, fixed at server construction.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Maximum `Snapshot` frames one session may stream; beyond it the
    /// server ends the session with `Bye(FrameBudget)`.
    pub frame_budget: u64,
    /// Sliding-window length handed to the online classifier
    /// (`None` = full history).
    pub window: Option<usize>,
    /// Per-frame deadline budget, measured from the arrival of a
    /// snapshot frame's first envelope byte. A frame that is already
    /// older than this when fully read (trickled writes, mid-frame
    /// stalls, a shard that fell behind) is *shed*: the server
    /// skips classification and acknowledges with a verdict-less
    /// `Busy` notice (single snapshots) or `Expired` dispositions
    /// (batches) instead of classifying stale telemetry. `None`
    /// disables shedding.
    pub deadline: Option<Duration>,
    /// The `retry_after_ms` hint carried by every `Busy` frame this
    /// session emits.
    pub busy_retry_after: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            frame_budget: 100_000,
            window: None,
            deadline: None,
            busy_retry_after: Duration::from_millis(100),
        }
    }
}

/// Refuses a connection before any session state exists: best-effort
/// `Bye` with the given reason, then the stream drops.
pub fn refuse(stream: TcpStream, reason: ByeReason) {
    let mut writer = BufWriter::new(stream);
    let _ = write_frame(&mut writer, &ControlFrame::Bye { reason });
}

/// Soft-refuses a connection the server is shedding: best-effort `Busy`
/// with a retry hint, then the stream drops. Unlike [`refuse`] with
/// `SessionLimit`, this tells the client the server is alive and worth
/// retrying after a backoff.
pub fn refuse_busy(stream: TcpStream, retry_after: Duration) {
    let mut writer = BufWriter::new(stream);
    let retry_after_ms = retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
    let _ = write_frame(&mut writer, &ControlFrame::Busy { retry_after_ms });
}

/// Whether a frame that arrived at `arrival` has overrun the session's
/// per-frame deadline budget.
pub(crate) fn deadline_exceeded(config: &SessionConfig, arrival: Instant) -> bool {
    config.deadline.is_some_and(|d| arrival.elapsed() > d)
}

/// The `Busy` frame this session sends, with the configured retry hint.
pub(crate) fn busy_frame(config: &SessionConfig) -> ControlFrame {
    let retry_after_ms = config.busy_retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
    ControlFrame::Busy { retry_after_ms }
}

/// Builds the `Verdict` frame for the classifier's current state, tagged
/// with the fingerprint of the model generation that produced it and
/// echoing the request's [`TraceContext`] so the client can tie the
/// verdict to its trace. Before the first usable snapshot the verdict is
/// the honest "no idea": class `Idle`, confidence `0.0`, all-zero
/// composition.
pub(crate) fn verdict_frame(
    classifier: &OnlineClassifier<'_>,
    model_id: u64,
    ctx: Option<TraceContext>,
) -> ControlFrame {
    use appclass_core::AppClass;
    let class = classifier.current_class().unwrap_or(AppClass::Idle);
    let composition = classifier.composition();
    let mut fractions = [0.0f64; 5];
    if classifier.in_state() > 0 {
        for (i, slot) in fractions.iter_mut().enumerate() {
            *slot = composition.fraction(AppClass::from_index(i).expect("i < 5"));
        }
    }
    ControlFrame::Verdict {
        class: class.index() as u8,
        confidence: classifier.confidence(),
        composition: fractions,
        model: model_id,
        ctx,
    }
}

/// Publishes the classifier's running verdict to the serve→cluster feed
/// (no-op before the first usable snapshot, so the controller never sees
/// the all-zero "no idea" state as an observation).
pub(crate) fn publish_feed(
    feed: Option<&CompositionFeed>,
    session_id: u32,
    classifier: &OnlineClassifier<'_>,
    model_id: u64,
    trace: u64,
) {
    let Some(feed) = feed else { return };
    let Some(class) = classifier.current_class() else { return };
    feed.publish(FeedEntry {
        session: session_id,
        class,
        composition: classifier.composition(),
        confidence: classifier.confidence(),
        frames: classifier.in_state() as u64,
        model: model_id,
        trace,
    });
}

/// Folds the classifier's end-of-generation reports into the outcome.
/// Merging (not replacing) is what lets a session's telemetry survive a
/// hot swap: every generation contributes its counts.
pub(crate) fn finish(outcome: &mut SessionOutcome, classifier: &OnlineClassifier<'_>) {
    outcome.health.merge(classifier.telemetry());
    outcome.stage_metrics.merge(classifier.stage_metrics());
}
