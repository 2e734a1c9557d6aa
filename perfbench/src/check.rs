//! The correctness gate: what the server must have answered.

use appclass::core::online::OnlineClassifier;
use appclass::core::{AppClass, ClassComposition, ClassifierPipeline};
use appclass::metrics::Snapshot;
use appclass::serve::VerdictReport;

/// The verdict an in-process `OnlineClassifier::push_guarded` replay of
/// a stream produces, shaped the way a client decodes it off the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    class: AppClass,
    confidence: f64,
    composition: ClassComposition,
}

/// Replays `stream` through a fresh online classifier under `model`.
pub fn replay(model: &ClassifierPipeline, stream: &[Snapshot]) -> Result<Expected, String> {
    let mut online = OnlineClassifier::new(model);
    for snapshot in stream {
        online.push_guarded(snapshot).map_err(|e| format!("in-process replay: {e}"))?;
    }
    // The server sends the running composition as five fractions (all
    // zero before the first usable frame); the client rebuilds them.
    let mut fractions = [0.0f64; 5];
    if online.in_state() > 0 {
        let composition = online.composition();
        for (class, slot) in AppClass::ALL.iter().zip(fractions.iter_mut()) {
            *slot = composition.fraction(*class);
        }
    }
    let [idle, io, cpu, net, mem] = fractions;
    let composition = ClassComposition::from_fractions(idle, io, cpu, net, mem)
        .ok_or("replayed composition is not a distribution")?;
    Ok(Expected {
        class: online.current_class().unwrap_or(AppClass::Idle),
        confidence: online.confidence(),
        composition,
    })
}

/// Whether a served verdict equals the replay bit for bit: class,
/// confidence bits and every composition fraction's bits.
pub fn same_verdict(served: &VerdictReport, expected: &Expected) -> bool {
    served.class == expected.class
        && served.confidence.to_bits() == expected.confidence.to_bits()
        && AppClass::ALL.iter().all(|&c| {
            served.composition.fraction(c).to_bits() == expected.composition.fraction(c).to_bits()
        })
}

/// Counts the server's `Stats` exposition must agree with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Snapshot frames sent in acknowledged batches.
    pub frames_in: u64,
    /// Sessions the server admitted (load, swaps and stats scrapes).
    pub sessions_started: u64,
    /// `Busy` refusals the generator received.
    pub shed: u64,
    /// Hard refusals the generator received.
    pub rejected: u64,
    /// Swaps that changed the served model.
    pub swaps: u64,
}

impl Accounting {
    /// Adds another tally.
    pub fn add(&mut self, other: &Accounting) {
        self.frames_in += other.frames_in;
        self.sessions_started += other.sessions_started;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.swaps += other.swaps;
    }

    /// Fails unless the server's counters equal the generator's exactly.
    pub fn reconcile(&self, server: &crate::server::Scraped) -> Result<(), String> {
        let pairs = [
            ("serve_frames_in_total", server.frames_in, self.frames_in),
            ("serve_sessions_started_total", server.sessions_started, self.sessions_started),
            ("serve_shed_total", server.shed, self.shed),
            ("serve_sessions_rejected_total", server.rejected, self.rejected),
            ("serve_model_swap_total", server.swaps, self.swaps),
        ];
        for (name, got, want) in pairs {
            if got != want {
                return Err(format!("accounting: server {name} = {got}, generator counted {want}"));
            }
        }
        Ok(())
    }
}
