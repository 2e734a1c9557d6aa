//! Fleet replay: drives a [`FleetPlan`] of simulated VMs against a live
//! classification server and reports what the fleet experienced.
//!
//! [`sim::fleet`](crate::sim::fleet) decides *when* each VM arrives and
//! *what* it streams; this module puts those arrivals on the wall clock
//! (compressed — a simulated day replays in seconds) and runs one real
//! client session per VM: connect, stream the snapshot batch, ask for
//! the verdict, leave. The per-VM outcomes fold into a [`FleetReport`]
//! with the numbers the serving benchmarks gate on: aggregate goodput
//! in frames per second, the p99 session latency, and the goodput
//! ratio showing how gracefully the server sheds when the fleet
//! overruns its capacity.
//!
//! [`FleetPlan`]: crate::sim::fleet::FleetPlan

use crate::metrics::{NodeId, Snapshot};
use crate::serve::{ClientConfig, ServeClient, ServeError};
use crate::sim::fleet::FleetPlan;
use crate::sim::runner::run_spec;
use crate::sim::workload::registry::training_specs;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Snapshot cadence of replayed streams, in simulated seconds — matches
/// the monitoring daemon's sampling period elsewhere in the workspace.
const CADENCE_SECS: u64 = 5;

/// How one VM's session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VmEnd {
    /// Admitted: streamed, got a verdict, left cleanly.
    Served,
    /// Softly refused with a `Busy` hint (the server was shedding).
    Busy,
    /// Hard refusal (session limit or shutdown).
    Rejected,
    /// Anything else — protocol or transport failure.
    Failed,
}

/// One VM's contribution to the fleet totals.
#[derive(Debug, Clone, Copy)]
struct VmResult {
    end: VmEnd,
    offered: u64,
    acked: u64,
    session_ms: f64,
}

/// Aggregate outcome of a fleet replay.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// VMs in the plan.
    pub vms: usize,
    /// Sessions served to a verdict.
    pub served: usize,
    /// Sessions refused softly (`Busy` + retry hint).
    pub busy: usize,
    /// Sessions refused hard (limit/shutdown).
    pub rejected: usize,
    /// Sessions that failed mid-flight.
    pub failed: usize,
    /// Snapshot frames the fleet wanted to stream (including refused
    /// sessions' frames — the offered load).
    pub frames_offered: u64,
    /// Frames the server's guard admitted (accepted + repaired).
    pub frames_acked: u64,
    /// Wall clock from first arrival to last session completion.
    pub elapsed: Duration,
    /// Aggregate admitted frames per second over the replay.
    pub goodput_fps: f64,
    /// `frames_acked / frames_offered`: 1.0 when nothing was shed,
    /// collapsing toward 0 only if overload takes down *served*
    /// sessions too — the graceful-degradation signal.
    pub goodput_ratio: f64,
    /// p50 of served sessions' connect→verdict latency, milliseconds.
    pub p50_session_ms: f64,
    /// p99 of served sessions' connect→verdict latency, milliseconds.
    pub p99_session_ms: f64,
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} VMs -> {} served, {} busy, {} rejected, {} failed",
            self.vms, self.served, self.busy, self.rejected, self.failed
        )?;
        writeln!(
            f,
            "frames: {}/{} admitted ({:.1}% goodput ratio)",
            self.frames_acked,
            self.frames_offered,
            self.goodput_ratio * 100.0
        )?;
        writeln!(f, "goodput: {:.0} frames/s over {:.2?}", self.goodput_fps, self.elapsed)?;
        write!(
            f,
            "session latency: p50 {:.1} ms, p99 {:.1} ms",
            self.p50_session_ms, self.p99_session_ms
        )
    }
}

/// Builds the per-workload base telemetry streams a plan's `workload`
/// indices select from: one simulated run per training spec, cycled and
/// re-timestamped per VM at replay time. Streams are generated once —
/// the expensive part — and shared read-only across the fleet.
pub fn workload_streams(seed: u64) -> Vec<Arc<Vec<Snapshot>>> {
    training_specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let rec = run_spec(spec, NodeId(200 + i as u32), seed ^ (i as u64) << 32);
            Arc::new(rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect())
        })
        .collect()
}

/// A VM's concrete stream: its workload's base run, cycled out to
/// `frames` samples on a clean cadence so the server's frame guard sees
/// one uninterrupted session.
fn vm_stream(base: &[Snapshot], vm: u32, frames: usize) -> Vec<Snapshot> {
    (0..frames)
        .map(|i| {
            let mut s = base[i % base.len()].clone();
            s.node = NodeId(vm);
            s.time = CADENCE_SECS * i as u64;
            s
        })
        .collect()
}

/// Replays `plan` against the server at `addr`.
///
/// `compression` divides the plan's simulated timeline: a day-long plan
/// with `compression = 100_000` lands on the wall clock in under a
/// second (an arrival herd), while small factors preserve the diurnal
/// pacing. `batch` is the snapshot coalescing factor per control frame
/// (1 = single-frame path).
///
/// Every VM is one OS thread sleeping until its compressed start time —
/// the same one-thread-per-client shape as the serving tests, so hundreds
/// of VMs are fine. Refused VMs (`Busy`/`Bye`) do not retry: the report
/// counts them so the caller can reason about shedding behaviour.
pub fn run_fleet(
    addr: SocketAddr,
    plan: &FleetPlan,
    streams: &[Arc<Vec<Snapshot>>],
    compression: f64,
    batch: usize,
) -> FleetReport {
    assert!(compression > 0.0, "compression must be positive");
    assert!(!streams.is_empty(), "need at least one workload stream");
    let epoch = Instant::now();
    let handles: Vec<_> = plan
        .arrivals
        .iter()
        .map(|a| {
            let arrival = *a;
            let base = Arc::clone(&streams[arrival.workload % streams.len()]);
            std::thread::spawn(move || {
                let start = Duration::from_millis((arrival.start_ms as f64 / compression) as u64);
                if let Some(wait) = start.checked_sub(epoch.elapsed()) {
                    std::thread::sleep(wait);
                }
                let snaps = vm_stream(&base, arrival.vm, arrival.frames);
                let offered = snaps.len() as u64;
                let t0 = Instant::now();
                let config = ClientConfig::default();
                let mut client = match ServeClient::connect(addr, config) {
                    Ok(c) => c,
                    Err(ServeError::Busy { .. }) => {
                        return VmResult { end: VmEnd::Busy, offered, acked: 0, session_ms: 0.0 }
                    }
                    Err(ServeError::Rejected { .. }) => {
                        return VmResult {
                            end: VmEnd::Rejected,
                            offered,
                            acked: 0,
                            session_ms: 0.0,
                        }
                    }
                    Err(_) => {
                        return VmResult { end: VmEnd::Failed, offered, acked: 0, session_ms: 0.0 }
                    }
                };
                let served = (|| -> crate::serve::error::Result<u64> {
                    let report = client.stream_batch(&snaps, batch)?;
                    client.classify()?;
                    client.bye()?;
                    Ok(report.accepted + report.repaired)
                })();
                let session_ms = t0.elapsed().as_secs_f64() * 1e3;
                match served {
                    Ok(acked) => VmResult { end: VmEnd::Served, offered, acked, session_ms },
                    Err(_) => VmResult { end: VmEnd::Failed, offered, acked: 0, session_ms },
                }
            })
        })
        .collect();

    let results: Vec<VmResult> =
        handles.into_iter().map(|h| h.join().expect("fleet VM thread must not panic")).collect();
    let elapsed = epoch.elapsed();

    let mut report = FleetReport {
        vms: results.len(),
        served: 0,
        busy: 0,
        rejected: 0,
        failed: 0,
        frames_offered: 0,
        frames_acked: 0,
        elapsed,
        goodput_fps: 0.0,
        goodput_ratio: 0.0,
        p50_session_ms: 0.0,
        p99_session_ms: 0.0,
    };
    let mut latencies: Vec<f64> = Vec::new();
    for r in &results {
        report.frames_offered += r.offered;
        report.frames_acked += r.acked;
        match r.end {
            VmEnd::Served => {
                report.served += 1;
                latencies.push(r.session_ms);
            }
            VmEnd::Busy => report.busy += 1,
            VmEnd::Rejected => report.rejected += 1,
            VmEnd::Failed => report.failed += 1,
        }
    }
    if !elapsed.is_zero() {
        report.goodput_fps = report.frames_acked as f64 / elapsed.as_secs_f64();
    }
    if report.frames_offered > 0 {
        report.goodput_ratio = report.frames_acked as f64 / report.frames_offered as f64;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    if !latencies.is_empty() {
        report.p50_session_ms = latencies[(latencies.len() - 1) / 2];
        report.p99_session_ms = latencies[(latencies.len() - 1) * 99 / 100];
    }
    report
}
