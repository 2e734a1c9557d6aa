//! The serve→cluster composition feed.
//!
//! The paper's loop runs monitoring → classification → scheduling; the
//! serve stack covers the first two legs and this module is the splice
//! to the third. Every session publishes its classifier's running
//! verdict — majority class, five-class composition, confidence — into
//! a shared [`CompositionFeed`] keyed by session id. The cluster
//! controller polls the feed to learn what each VM *looks like* from
//! live telemetry, which is exactly the knowledge §4.3 says should
//! "assist future resource scheduling". Nothing in the feed is ground
//! truth: a misclassifying pipeline feeds the scheduler wrong classes,
//! and the placement regret that causes is measurable end-to-end.

use appclass_core::{AppClass, ClassComposition};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One session's latest classification observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedEntry {
    /// Session id the server assigned at admission.
    pub session: u32,
    /// Majority class over the session's (windowed) snapshot history.
    pub class: AppClass,
    /// Five-class composition over the same history.
    pub composition: ClassComposition,
    /// Majority-vote confidence in `[0, 1]`.
    pub confidence: f64,
    /// Snapshots contributing to the verdict.
    pub frames: u64,
    /// Fingerprint of the model generation that produced the verdict.
    pub model: u64,
    /// Trace id the publishing session last saw on its telemetry stream
    /// (`0` = untraced). Lets a cluster placement decision link back to
    /// the distributed trace of the telemetry that motivated it.
    pub trace: u64,
}

/// Most sessions a [`CompositionFeed`] remembers. Once full, publishing
/// for a session it does not hold forgets the lowest session id; the
/// server hands ids out in increasing order, so that is the oldest
/// session. Without the bound, a server nobody polls would keep an entry
/// for every session it ever served. It sits far above the server's
/// admission limit (8 live sessions by default), so the sessions
/// forgotten are ones that have already ended.
pub const FEED_CAPACITY: usize = 4096;

/// Shared, cheaply clonable map of the latest observation per session.
///
/// Handles clone like `Arc`: every clone sees every publish. Entries are
/// keyed by session id and overwritten in place, so the feed holds the
/// *current* belief about each streaming VM, not a history — for at most
/// [`FEED_CAPACITY`] sessions.
#[derive(Clone, Default)]
pub struct CompositionFeed {
    inner: Arc<Mutex<BTreeMap<u32, FeedEntry>>>,
}

impl CompositionFeed {
    /// An empty feed.
    pub fn new() -> Self {
        CompositionFeed::default()
    }

    /// Publishes (or overwrites) a session's latest observation.
    pub fn publish(&self, entry: FeedEntry) {
        let mut sessions = self.inner.lock();
        if sessions.len() >= FEED_CAPACITY && !sessions.contains_key(&entry.session) {
            sessions.pop_first();
        }
        sessions.insert(entry.session, entry);
    }

    /// The latest observation for one session.
    pub fn get(&self, session: u32) -> Option<FeedEntry> {
        self.inner.lock().get(&session).copied()
    }

    /// A point-in-time copy of every session's latest observation, in
    /// session-id order.
    pub fn entries(&self) -> Vec<FeedEntry> {
        self.inner.lock().values().copied().collect()
    }

    /// Number of sessions with an observation.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no session has published yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Forgets one session (e.g. after its VM is torn down).
    pub fn remove(&self, session: u32) -> Option<FeedEntry> {
        self.inner.lock().remove(&session)
    }

    /// Forgets everything.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(session: u32, class: AppClass) -> FeedEntry {
        FeedEntry {
            session,
            class,
            composition: ClassComposition::from_labels(&[class]),
            confidence: 1.0,
            frames: 1,
            model: 7,
            trace: 0,
        }
    }

    #[test]
    fn publish_overwrites_per_session() {
        let feed = CompositionFeed::new();
        assert!(feed.is_empty());
        feed.publish(entry(3, AppClass::Cpu));
        feed.publish(entry(3, AppClass::Io));
        assert_eq!(feed.len(), 1);
        assert_eq!(feed.get(3).unwrap().class, AppClass::Io);
    }

    #[test]
    fn full_feed_forgets_the_oldest_session() {
        let feed = CompositionFeed::new();
        for session in 0..FEED_CAPACITY as u32 {
            feed.publish(entry(session, AppClass::Cpu));
        }
        // Overwriting a held session evicts nothing.
        feed.publish(entry(0, AppClass::Io));
        assert_eq!(feed.len(), FEED_CAPACITY);
        assert_eq!(feed.get(0).unwrap().class, AppClass::Io);
        // A new session makes room by forgetting the oldest.
        let newest = FEED_CAPACITY as u32;
        feed.publish(entry(newest, AppClass::Net));
        assert_eq!(feed.len(), FEED_CAPACITY);
        assert!(feed.get(0).is_none());
        assert_eq!(feed.get(1).unwrap().class, AppClass::Cpu);
        assert_eq!(feed.get(newest).unwrap().class, AppClass::Net);
    }

    #[test]
    fn clones_share_state_and_order_is_stable() {
        let feed = CompositionFeed::new();
        let other = feed.clone();
        feed.publish(entry(9, AppClass::Net));
        other.publish(entry(2, AppClass::Mem));
        let sessions: Vec<u32> = feed.entries().iter().map(|e| e.session).collect();
        assert_eq!(sessions, vec![2, 9]);
        assert_eq!(other.remove(9).unwrap().class, AppClass::Net);
        feed.clear();
        assert!(other.is_empty());
    }
}
