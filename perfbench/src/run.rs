//! The measured part of each workload.

use crate::check::{replay, same_verdict, Accounting, Expected};
use crate::inputs::{vm_stream, Inputs, FLEET_PHASES, POOL_TARGET};
use crate::openloop::{backlog_at, backlog_grows, clock, due_ns, PhaseResult, Timing};
use crate::server::{Admission, Attempts, ProcSample, Scraped, Server};
use crate::trace::Tracer;
use appclass::core::ClassifierPipeline;
use appclass::metrics::filter::PerformanceFilter;
use appclass::metrics::Snapshot;
use appclass::serve::{BatchReport, ClientConfig, ServeClient, ServeError, VerdictReport};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Snapshots per `SnapshotBatch` frame on the batched paths.
pub const BATCH: usize = 32;
/// Limit on a fleet session's due-to-verdict time, milliseconds.
pub const SESSION_LIMIT_MS: f64 = 50.0;
/// Share of a phase's due sessions that must meet the limit.
pub const SERVED_SHARE: f64 = 0.99;
/// Instants per fleet phase at which the backlog is sampled for the
/// growth rule.
const BACKLOG_POINTS: usize = 200;
/// Scheduled model swaps per fleet phase.
const SWAPS_PER_PHASE: usize = 16;

/// Everything one measured run yields.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall-clock seconds the load ran.
    pub wall_s: f64,
    /// Acknowledged snapshot frames (fleet: of sessions served within the
    /// limit at the top roomy rate; offline: pool snapshots filtered).
    pub frames: u64,
    /// Snapshots classified.
    pub samples: u64,
    /// Per acknowledged round trip (offline: per `classify` call), µs.
    pub latency_us: Vec<f64>,
    /// Per session, from due time to verdict, ms.
    pub session_ms: Vec<f64>,
    /// Per model swap, ms.
    pub swap_ms: Vec<f64>,
    /// Sessions due.
    pub due: u64,
    /// Sessions that reached a verdict.
    pub served: u64,
    /// Sessions per second at the sustained rate.
    pub sustained_vms_per_s: f64,
    /// Operations attempted (sessions and swaps).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// `Busy` refusals.
    pub busy: u64,
    /// Hard refusals.
    pub rejected: u64,
    /// Generator lag per scheduled event, ms (open loop only).
    pub lag_ms: Vec<f64>,
    /// Largest generator backlog seen.
    pub backlog_max: usize,
    /// Per-phase summaries (fleet only), for the detail line.
    pub phases: Vec<String>,
    /// Server-side readings, one per server process the run used.
    pub servers: Vec<ServerSide>,
    /// The snapshot streams of the sessions the run sent, for the
    /// per-layer replay.
    pub sent: Vec<Arc<Vec<Snapshot>>>,
    /// Index into `servers` whose histograms represent the run.
    pub main_server: usize,
    /// The run's windows (closed-loop slices, fleet rounds), each
    /// summarised on its own so the result can report medians over them.
    pub windows: Vec<Window>,
}

/// One window of a run.
#[derive(Debug, Default)]
pub struct Window {
    /// Frames, samples and sessions per second over the window (the
    /// sessions are the sustained rate for the fleet), and the share of
    /// due sessions served.
    pub rates: [f64; 4],
    /// The window's round-trip latencies, µs.
    pub latency_us: Vec<f64>,
    /// The window's session times, ms.
    pub session_ms: Vec<f64>,
}

impl Measured {
    /// Appends a later slice of the same load.
    pub fn absorb(&mut self, other: Measured) {
        if other.wall_s > 0.0 {
            self.windows.push(Window {
                rates: [
                    other.frames as f64 / other.wall_s,
                    other.samples as f64 / other.wall_s,
                    other.sustained_vms_per_s,
                    other.served as f64 / other.due.max(1) as f64,
                ],
                latency_us: other.latency_us.clone(),
                session_ms: other.session_ms.clone(),
            });
        }
        self.wall_s += other.wall_s;
        self.frames += other.frames;
        self.samples += other.samples;
        self.latency_us.extend(other.latency_us);
        self.session_ms.extend(other.session_ms);
        self.swap_ms.extend(other.swap_ms);
        self.due += other.due;
        self.served += other.served;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.rejected += other.rejected;
        self.lag_ms.extend(other.lag_ms);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.phases.extend(other.phases);
        if self.servers.is_empty() {
            self.main_server = other.main_server;
        }
        self.servers.extend(other.servers);
        if self.sent.is_empty() {
            self.sent = other.sent;
        }
    }
}

/// What a server process reported about the measured load.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSide {
    /// CPU seconds and context switches spent during the load.
    pub during: ProcSample,
    /// Its exposition after the load.
    pub scraped: Scraped,
    /// VmHWM, MiB.
    pub peak_rss_mb: f64,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Reads the server's CPU counters, scrapes and reconciles its
/// accounting against the generator's, then stops it.
pub fn finish_server(
    server: Server,
    before: ProcSample,
    mut acct: Accounting,
) -> Result<ServerSide, String> {
    let after = server.sample()?;
    let (text, attempts) = server.scrape()?;
    acct.add(&attempts_accounting(&attempts));
    let scraped = crate::server::parse_stats(&text)?;
    acct.reconcile(&scraped)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop();
    Ok(ServerSide {
        during: ProcSample {
            cpu_s: after.cpu_s - before.cpu_s,
            ctx_switches: after.ctx_switches - before.ctx_switches,
        },
        scraped,
        peak_rss_mb,
    })
}

fn attempts_accounting(a: &Attempts) -> Accounting {
    Accounting {
        sessions_started: a.started,
        shed: a.busy,
        rejected: a.rejected,
        ..Accounting::default()
    }
}

/// Streams `chunk` as one acknowledged `SnapshotBatch` and checks that
/// every item was acknowledged as usable.
fn send_batch(client: &mut ServeClient, chunk: &[Snapshot], width: usize) -> Result<(), String> {
    let report: BatchReport = client.stream_batch(chunk, width).map_err(|e| e.to_string())?;
    let n = chunk.len() as u64;
    if report.sent != n || report.batches != 1 || report.malformed != 0 || report.expired != 0 {
        return Err(format!("batch of {n} acknowledged as {report:?}"));
    }
    Ok(())
}

/// Memoised in-process replays, keyed by stream identity and model.
#[derive(Default)]
struct Replays(HashMap<(usize, usize, usize), Expected>);

impl Replays {
    fn check(
        &mut self,
        key: (usize, usize),
        model: usize,
        inputs: &Inputs,
        stream: &[Snapshot],
        served: &VerdictReport,
    ) -> Result<(), String> {
        if served.model != inputs.ids[model] {
            return Err(format!(
                "verdict came from model {:#018x}, expected {:#018x}",
                served.model, inputs.ids[model]
            ));
        }
        let expected = match self.0.get(&(key.0, key.1, model)) {
            Some(e) => e.clone(),
            None => {
                let e = replay(&inputs.models[model], stream)?;
                self.0.insert((key.0, key.1, model), e.clone());
                e
            }
        };
        if same_verdict(served, &expected) {
            Ok(())
        } else {
            Err(format!(
                "served verdict {served:?} differs from the in-process replay {expected:?}"
            ))
        }
    }
}

/// The closed loop of `stream-batch` / `stream-single`: one connection at
/// a time, one session per test-app stream, cycling through the apps;
/// each stream goes out as acknowledged frames of `width` snapshots with
/// one frame in flight. After each full cycle the session that closes it
/// swaps the served model for the other one.
pub struct StreamLoad<'a> {
    inputs: &'a Inputs,
    server: Server,
    width: usize,
    before: ProcSample,
    tally: Tally,
    /// Which model the server serves now.
    in_force: usize,
    /// Next test app to stream.
    app: usize,
    sid: u64,
    /// (app, model, verdict) of every served session.
    served: Vec<(usize, usize, VerdictReport)>,
}

impl<'a> StreamLoad<'a> {
    /// Takes over a started server.
    pub fn new(inputs: &'a Inputs, server: Server, width: usize) -> StreamLoad<'a> {
        StreamLoad {
            inputs,
            before: server.sample().unwrap_or_default(),
            server,
            width,
            tally: Tally::default(),
            in_force: 0,
            app: 0,
            sid: 0,
            served: Vec::new(),
        }
    }

    /// Runs the loop for `seconds`, continuing the app cycle and model
    /// state where the previous call left them.
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Measured, String> {
        let inputs = self.inputs;
        let mut m = Measured::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let app = self.app;
            let stream = &inputs.streams[app];
            self.app = (app + 1) % inputs.streams.len();
            self.sid += 1;
            m.due += 1;
            m.attempted += 1;
            let swap_to = (self.app == 0).then(|| inputs.jsons[1 - self.in_force].as_str());
            if swap_to.is_some() {
                m.attempted += 1;
            }
            let root = tracer.open("serve.client.session", self.sid, 0);
            let t0 = Instant::now();
            let outcome = session(
                self.server.addr,
                stream,
                self.width,
                swap_to,
                &mut self.tally,
                tracer,
                (self.sid, root),
            );
            tracer.close(root, stream.len() as u64);
            match outcome {
                Session::Served { verdict, at, swapped } => {
                    m.session_ms.push(at.duration_since(t0).as_secs_f64() * 1e3);
                    self.served.push((app, self.in_force, verdict));
                    m.served += 1;
                    m.frames += stream.len() as u64;
                    if let Some((old, new)) = swapped {
                        if old != inputs.ids[self.in_force] || new != inputs.ids[1 - self.in_force]
                        {
                            return Err(format!("swap acknowledged {old:#x} -> {new:#x}"));
                        }
                        self.in_force = 1 - self.in_force;
                    }
                }
                other => {
                    m.failed += 1;
                    eprintln!("stream session {} failed: {other:?}", self.sid);
                }
            }
        }
        m.latency_us = std::mem::take(&mut self.tally.latency_us);
        m.swap_ms = std::mem::take(&mut self.tally.swap_ms);
        m.wall_s = start.elapsed().as_secs_f64();
        m.samples = m.frames;
        m.sustained_vms_per_s = m.served as f64 / m.wall_s;
        m.sent = inputs.streams.clone();
        Ok(m)
    }

    /// Stops the load: reconciles and stops the server, then checks every
    /// served verdict against its in-process replay.
    pub fn finish(self, mut m: Measured) -> Result<Measured, String> {
        m.servers.push(finish_server(self.server, self.before, self.tally.acct)?);
        let mut replays = Replays::default();
        for (app, model, verdict) in &self.served {
            replays
                .check((*app, 0), *model, self.inputs, &self.inputs.streams[*app], verdict)
                .map_err(|e| format!("{}: {e}", self.inputs.names[*app]))?;
        }
        Ok(m)
    }
}

/// What a generator connection collects across its sessions.
#[derive(Default)]
struct Tally {
    /// Per acknowledged round trip, µs.
    latency_us: Vec<f64>,
    /// Per model swap, ms.
    swap_ms: Vec<f64>,
    /// Counts the server must agree with.
    acct: Accounting,
}

/// How one session ended.
#[derive(Debug)]
enum Session {
    /// A verdict, when it arrived, and the swap acknowledgement.
    Served { verdict: VerdictReport, at: Instant, swapped: Option<(u64, u64)> },
    /// Refused by admission with `Busy`.
    Busy,
    /// Refused by admission outright.
    Rejected,
    /// An operation returned an error.
    Failed(String),
}

/// One session: connect, stream as acknowledged frames of `width`,
/// classify, optionally swap the model, leave.
fn session(
    addr: SocketAddr,
    stream: &[Snapshot],
    width: usize,
    swap_to: Option<&str>,
    tally: &mut Tally,
    tracer: &mut Tracer,
    (sid, root): (u64, u64),
) -> Session {
    let t0 = Instant::now();
    let mut client = match ServeClient::connect(addr, ClientConfig::default()) {
        Ok(c) => c,
        Err(ServeError::Busy { .. }) => {
            tally.acct.shed += 1;
            return Session::Busy;
        }
        Err(ServeError::Rejected { .. }) => {
            tally.acct.rejected += 1;
            return Session::Rejected;
        }
        Err(e) => return Session::Failed(e.to_string()),
    };
    tracer.record("serve.client.connect", sid, root, t0, 1);
    tally.acct.sessions_started += 1;
    let result = (|| -> Result<Session, String> {
        for chunk in stream.chunks(width) {
            let t = Instant::now();
            tally.acct.frames_in += chunk.len() as u64;
            send_batch(&mut client, chunk, width)?;
            tally.latency_us.push(us_since(t));
            tracer.record("serve.client.call", sid, root, t, chunk.len() as u64);
        }
        let t = Instant::now();
        let verdict = client.classify().map_err(|e| e.to_string())?;
        let at = Instant::now();
        tracer.record("serve.client.classify", sid, root, t, 1);
        let swapped = match swap_to {
            Some(json) => {
                let t = Instant::now();
                let ack = client.swap_model(json).map_err(|e| format!("swap: {e}"))?;
                tally.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tracer.record("serve.client.swap", sid, root, t, 1);
                if ack.0 != ack.1 {
                    tally.acct.swaps += 1;
                }
                Some(ack)
            }
            None => None,
        };
        let t = Instant::now();
        client.bye().map_err(|e| format!("bye: {e}"))?;
        tracer.record("serve.client.bye", sid, root, t, 1);
        Ok(Session::Served { verdict, at, swapped })
    })();
    result.unwrap_or_else(Session::Failed)
}

/// One scheduled event of a fleet phase.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A VM session: plan arrival index.
    Vm(usize),
    /// A model swap to model `0` or `1`.
    Swap(usize),
}

/// How a fleet event ended.
#[derive(Debug, Clone)]
enum End {
    Served(VerdictReport),
    Busy,
    Rejected,
    Swapped { send: u64, ack: u64, to: usize },
    Failed(String),
}

/// One fleet event's record.
#[derive(Debug)]
struct Record {
    event: usize,
    timing: Timing,
    end: End,
}

/// What one generator connection's thread collected.
#[derive(Default)]
struct WorkerOut {
    records: Vec<Record>,
    tally: Tally,
    spans: Option<Tracer>,
}

/// Everything the fleet's generator threads share read-only.
struct PhasePlan<'a> {
    inputs: &'a Inputs,
    events: Vec<(u64, Event)>,
    streams: Vec<Arc<Vec<Snapshot>>>,
    addr: SocketAddr,
    epoch: Instant,
    next: AtomicUsize,
    sid_base: u64,
    traced: bool,
}

/// Where a fleet round runs and how.
pub struct FleetSetup<'a> {
    /// The `appclass` binary.
    pub bin: &'a Path,
    /// The first model's file.
    pub model_path: &'a Path,
    /// Seconds per phase.
    pub phase_s: f64,
    /// Generator connections (one thread each).
    pub connections: usize,
    /// CPU the servers are confined to.
    pub cpu: Option<usize>,
}

/// One round of the open loop of `fleet-diurnal`: four phases, one
/// server process each, each replaying its own diurnal plan at a fixed
/// mean rate on the generator's connections. `first`, when given, serves
/// the first phase; session ids continue from `sid_base`.
pub fn fleet_round(
    inputs: &Inputs,
    setup: &FleetSetup<'_>,
    round: usize,
    mut first: Option<Server>,
    sid_base: &mut u64,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let FleetSetup { bin, model_path, phase_s, connections, cpu } = *setup;
    let mut m = Measured::default();
    // Outcomes of the roomy phases, lowest rate first, and their indices.
    let (mut ladder, mut rungs) = (Vec::new(), Vec::new());
    // Per phase: goodput, session times and served rate.
    let mut phase_load: Vec<Measured> = Vec::new();
    let mut replays = Replays::default();
    let plans = &inputs.plans[round * FLEET_PHASES.len()..][..FLEET_PHASES.len()];
    for (p, (phase, plan)) in FLEET_PHASES.iter().zip(plans).enumerate() {
        let server = match first.take() {
            Some(s) => s,
            None => Server::start(bin, model_path, fleet_admission(phase.tight, connections), cpu)?,
        };
        let compression = plan.day_ms as f64 / (phase_s * 1e3);
        let phase_ns = (phase_s * 1e9) as u64;
        let mut events: Vec<(u64, Event)> = plan
            .arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| (due_ns(a.start_ms, compression), Event::Vm(i)))
            .collect();
        for k in 0..SWAPS_PER_PHASE {
            let due = phase_ns * (k as u64 + 1) / (SWAPS_PER_PHASE as u64 + 1);
            events.push((due, Event::Swap((k + 1) % 2)));
        }
        events.sort_by_key(|e| e.0);
        let streams: Vec<Arc<Vec<Snapshot>>> = plan
            .arrivals
            .iter()
            .map(|a| Arc::new(vm_stream(&inputs.streams[a.workload], a.vm, a.frames)))
            .collect();
        let before = server.sample()?;
        let shared = PhasePlan {
            inputs,
            events,
            streams,
            addr: server.addr,
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            sid_base: *sid_base,
            traced: tracer.on(),
        };
        let outs: Vec<WorkerOut> = std::thread::scope(|s| {
            let helpers: Vec<_> =
                (1..connections).map(|_| s.spawn(|| fleet_worker(&shared))).collect();
            let mut outs = vec![fleet_worker(&shared)];
            outs.extend(helpers.into_iter().map(|h| h.join().expect("generator thread panicked")));
            outs
        });
        *sid_base += shared.events.len() as u64;

        let mut acct = Accounting::default();
        let mut records = Vec::new();
        for out in outs {
            acct.add(&out.tally.acct);
            m.latency_us.extend(out.tally.latency_us);
            m.swap_ms.extend(out.tally.swap_ms);
            if let Some(spans) = out.spans {
                tracer.absorb(spans);
            }
            records.extend(out.records);
        }
        records.sort_by_key(|r| r.event);
        m.servers.push(finish_server(server, before, acct)?);

        // Outcomes of the phase.
        let swaps: Vec<(u64, u64, usize)> = records
            .iter()
            .filter_map(|r| match r.end {
                End::Swapped { send, ack, to } => Some((send, ack, to)),
                _ => None,
            })
            .collect();
        let timings: Vec<Timing> = records.iter().map(|r| r.timing).collect();
        let backlog = backlog_at(&timings, timings.iter().map(|t| t.start));
        m.backlog_max = m.backlog_max.max(backlog.iter().copied().max().unwrap_or(0));
        m.lag_ms.extend(timings.iter().map(|t| t.lag() as f64 / 1e6));
        let wall_ns = records.iter().map(|r| r.timing.verdict.unwrap_or(r.timing.start)).max();
        let wall_s = wall_ns.unwrap_or(phase_ns) as f64 / 1e9;
        let mut session_ms = Vec::new();
        let (mut due, mut served, mut within, mut frames) = (0u64, 0u64, 0usize, 0u64);
        for r in &records {
            m.attempted += 1;
            let Event::Vm(i) = shared.events[r.event].1 else {
                if let End::Failed(e) = &r.end {
                    m.failed += 1;
                    eprintln!("fleet swap failed: {e}");
                }
                continue;
            };
            due += 1;
            match &r.end {
                End::Served(verdict) => {
                    served += 1;
                    let stream = &shared.streams[i];
                    let ms = r.timing.session().unwrap_or(0) as f64 / 1e6;
                    session_ms.push(ms);
                    if ms <= SESSION_LIMIT_MS {
                        within += 1;
                        frames += stream.len() as u64;
                    }
                    check_fleet_verdict(
                        &mut replays,
                        inputs,
                        &plan.arrivals[i],
                        stream,
                        r.timing,
                        &swaps,
                        verdict,
                    )?;
                }
                End::Busy => m.busy += 1,
                End::Rejected => m.rejected += 1,
                End::Failed(e) => {
                    m.failed += 1;
                    eprintln!("fleet session failed: {e}");
                }
                End::Swapped { .. } => unreachable!("VM events never swap"),
            }
        }
        let result = PhaseResult {
            due: due as usize,
            within_limit: within,
            backlog_grew: backlog_grows(
                &backlog_at(&timings, clock(phase_ns, BACKLOG_POINTS)),
                connections,
            ),
        };
        m.phases.push(format!(
            "{{\"round\":{round},\"rate\":{},\"tight\":{},\"due\":{due},\"served\":{served},\"within_limit\":{within},\
             \"session_p50_ms\":{:.4},\"session_max_ms\":{:.3},\"backlog_max\":{},\"backlog_grew\":{},\"wall_s\":{wall_s:.4},\"meets\":{}}}",
            phase.rate,
            phase.tight,
            crate::stats::percentile(&session_ms, 0.5).map_or(0.0, |p| p.value),
            session_ms.iter().copied().fold(0.0, f64::max),
            backlog.iter().max().unwrap_or(&0),
            result.backlog_grew,
            result.meets(SERVED_SHARE)
        ));
        if !phase.tight {
            ladder.push(result);
            rungs.push(p);
        }
        phase_load.push(Measured {
            wall_s,
            frames,
            samples: frames,
            session_ms,
            due,
            served,
            sustained_vms_per_s: served as f64 / wall_s,
            ..Measured::default()
        });
        if p == 0 && round == 0 {
            m.sent = shared.streams.iter().take(200).cloned().collect();
        }
    }
    // Goodput describes the top roomy rate, a fixed load. Session times
    // describe the lowest: near the top rate queueing multiplies any
    // change in service time several times over, host noise included, so
    // the median there swung by a fifth between sets of runs. The
    // sustained rate is the served rate of the highest roomy phase that
    // meets the limit (0 when none does); the served share counts every
    // phase, the tight one's refusals included. Batch round trips are
    // pooled over the round's phases.
    let top = *rungs.last().expect("the fleet has roomy phases");
    let chosen = crate::openloop::sustained(&ladder, SERVED_SHARE);
    m.sustained_vms_per_s = chosen.map_or(0.0, |i| phase_load[rungs[i]].sustained_vms_per_s);
    m.due = phase_load.iter().map(|p| p.due).sum();
    m.served = phase_load.iter().map(|p| p.served).sum();
    m.session_ms = std::mem::take(&mut phase_load[rungs[0]].session_ms);
    m.wall_s = phase_load[top].wall_s;
    m.frames = phase_load[top].frames;
    m.samples = phase_load[top].samples;
    m.main_server = top;
    Ok(m)
}

/// Admission of one fleet phase's server. A tight phase admits fewer
/// sessions than the generator has connections and queues none, so
/// overlapping sessions are refused.
fn fleet_admission(tight: bool, connections: usize) -> Admission {
    if tight {
        Admission { max_sessions: connections.saturating_sub(1).max(1), backlog: 0 }
    } else {
        Admission::ROOMY
    }
}

/// The correctness rule for one served fleet session: a session that
/// overlapped a swap must carry one of the two models; any other must
/// carry the model in force and equal its replay.
fn check_fleet_verdict(
    replays: &mut Replays,
    inputs: &Inputs,
    arrival: &appclass::sim::fleet::VmArrival,
    stream: &[Snapshot],
    timing: Timing,
    swaps: &[(u64, u64, usize)],
    verdict: &VerdictReport,
) -> Result<(), String> {
    let end = timing.verdict.unwrap_or(timing.start);
    if swaps.iter().any(|&(send, ack, _)| timing.start < ack && end > send) {
        return if inputs.ids.contains(&verdict.model) {
            Ok(())
        } else {
            Err(format!("session across a swap carried unknown model {:#x}", verdict.model))
        };
    }
    let in_force = swaps
        .iter()
        .filter(|&&(_, ack, _)| ack <= timing.start)
        .max_by_key(|&&(_, ack, _)| ack)
        .map_or(0, |&(_, _, to)| to);
    replays.check((arrival.workload, arrival.frames), in_force, inputs, stream, verdict)
}

/// One generator connection: takes the next due event, waits for its due
/// time, runs it, repeats.
fn fleet_worker(plan: &PhasePlan<'_>) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut tracer = Tracer::new(plan.traced);
    loop {
        let idx = plan.next.fetch_add(1, Ordering::SeqCst);
        let Some(&(due, event)) = plan.events.get(idx) else { break };
        let target = plan.epoch + Duration::from_nanos(due);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let start = plan.epoch.elapsed().as_nanos() as u64;
        let sid = plan.sid_base + idx as u64 + 1;
        let root = tracer.open("serve.client.session", sid, 0);
        let (end, verdict_at) = match event {
            Event::Vm(i) => {
                match session(
                    plan.addr,
                    &plan.streams[i],
                    BATCH,
                    None,
                    &mut out.tally,
                    &mut tracer,
                    (sid, root),
                ) {
                    Session::Served { verdict, at, .. } => (
                        End::Served(verdict),
                        Some(at.duration_since(plan.epoch).as_nanos() as u64),
                    ),
                    Session::Busy => (End::Busy, None),
                    Session::Rejected => (End::Rejected, None),
                    Session::Failed(e) => (End::Failed(e), None),
                }
            }
            Event::Swap(to) => (swap_session(plan, to, &mut out, &mut tracer, (sid, root)), None),
        };
        tracer.close(root, 1);
        out.records.push(Record {
            event: idx,
            timing: Timing { due, start, verdict: verdict_at },
            end,
        });
    }
    out.spans = plan.traced.then_some(tracer);
    out
}

fn swap_session(
    plan: &PhasePlan<'_>,
    to: usize,
    out: &mut WorkerOut,
    tracer: &mut Tracer,
    (sid, root): (u64, u64),
) -> End {
    // A swap is an operator action: it retries through refusals.
    let mut client = loop {
        let t0 = Instant::now();
        match ServeClient::connect(plan.addr, ClientConfig::default()) {
            Ok(c) => {
                tracer.record("serve.client.connect", sid, root, t0, 1);
                break c;
            }
            Err(ServeError::Busy { .. }) => out.tally.acct.shed += 1,
            Err(ServeError::Rejected { .. }) => out.tally.acct.rejected += 1,
            Err(e) => return End::Failed(e.to_string()),
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    out.tally.acct.sessions_started += 1;
    let t = Instant::now();
    let send = plan.epoch.elapsed().as_nanos() as u64;
    let ack = match client.swap_model(&plan.inputs.jsons[to]) {
        Ok(ack) => ack,
        Err(e) => return End::Failed(format!("swap: {e}")),
    };
    let acked = plan.epoch.elapsed().as_nanos() as u64;
    out.tally.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
    tracer.record("serve.client.swap", sid, root, t, 1);
    if ack.1 != plan.inputs.ids[to] {
        return End::Failed(format!("swap installed {:#x}", ack.1));
    }
    if ack.0 != ack.1 {
        out.tally.acct.swaps += 1;
    }
    if let Err(e) = client.bye() {
        return End::Failed(format!("swap bye: {e}"));
    }
    End::Swapped { send, ack: acked, to }
}

/// The §5.3 experiment without I/O: filter each pool down to its target
/// VM, classify the extracted run, and install the other model (parsed
/// from its JSON, as a swap does) before every pool.
pub struct OfflineLoad<'a> {
    inputs: &'a Inputs,
    model: Arc<ClassifierPipeline>,
    in_force: usize,
    /// Next pool to classify.
    pool: usize,
    sid: u64,
    /// First class vector seen per (pool, model); later passes must
    /// reproduce it.
    seen: HashMap<(usize, usize), Vec<appclass::core::AppClass>>,
}

impl<'a> OfflineLoad<'a> {
    /// Starts with the first model installed.
    pub fn new(inputs: &'a Inputs) -> OfflineLoad<'a> {
        OfflineLoad {
            inputs,
            model: Arc::clone(&inputs.models[0]),
            in_force: 0,
            pool: 0,
            sid: 0,
            seen: HashMap::new(),
        }
    }

    /// Runs for `seconds`, continuing where the previous call stopped.
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Measured, String> {
        let inputs = self.inputs;
        let mut m = Measured::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let i = self.pool;
            let pool = &inputs.pools[i];
            self.pool = (i + 1) % inputs.pools.len();
            self.sid += 1;
            let sid = self.sid;
            let root = tracer.open("offline.session", sid, 0);
            m.attempted += 1;
            let t = Instant::now();
            let next = ClassifierPipeline::from_json(&inputs.jsons[1 - self.in_force])
                .map_err(|e| format!("model install: {e}"))?;
            self.model = Arc::new(next);
            m.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.record("core.pipeline.from_json", sid, root, t, 1);
            self.in_force = 1 - self.in_force;
            if self.model.model_id() != inputs.ids[self.in_force] {
                return Err("installed model has the wrong fingerprint".to_string());
            }
            m.due += 1;
            m.attempted += 1;
            let t0 = Instant::now();
            let (raw, report) =
                PerformanceFilter.extract(pool, POOL_TARGET).map_err(|e| format!("filter: {e}"))?;
            tracer.record("metrics.filter.extract", sid, root, t0, pool.len() as u64);
            let t1 = Instant::now();
            let result = self.model.classify(&raw).map_err(|e| format!("classify: {e}"))?;
            m.latency_us.push(us_since(t1));
            tracer.record("core.pipeline.classify", sid, root, t1, raw.rows() as u64);
            m.session_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tracer.close(root, raw.rows() as u64);
            if report.extracted != raw.rows() || raw.rows() != crate::inputs::POOL_SAMPLES {
                return Err(format!("filter extracted {} rows", raw.rows()));
            }
            match self.seen.get(&(i, self.in_force)) {
                Some(v) if *v != result.class_vector => {
                    return Err(format!("pool {i}: class vector changed between passes"));
                }
                Some(_) => {}
                None => {
                    self.seen.insert((i, self.in_force), result.class_vector);
                }
            }
            m.served += 1;
            m.frames += pool.len() as u64;
            m.samples += raw.rows() as u64;
        }
        m.wall_s = start.elapsed().as_secs_f64();
        m.sustained_vms_per_s = m.served as f64 / m.wall_s;
        Ok(m)
    }

    /// Checks that every batched class vector equals per-row k-NN bit
    /// for bit, and hands the pools' target streams to the replay.
    pub fn finish(self, mut m: Measured) -> Result<Measured, String> {
        let inputs = self.inputs;
        for (&(i, model_idx), classes) in &self.seen {
            let model = &inputs.models[model_idx];
            let (raw, _) = PerformanceFilter
                .extract(&inputs.pools[i], POOL_TARGET)
                .map_err(|e| e.to_string())?;
            let projected = model.project(&raw).map_err(|e| e.to_string())?;
            for (r, &class) in classes.iter().enumerate() {
                let single = model.knn().classify(projected.row(r)).map_err(|e| e.to_string())?;
                if single != class {
                    return Err(format!(
                        "pool {i} row {r}: batch says {class:?}, per-row k-NN says {single:?}"
                    ));
                }
            }
        }
        m.sent = inputs
            .pools
            .iter()
            .take(2)
            .map(|p| {
                Arc::new(p.snapshots().iter().filter(|s| s.node == POOL_TARGET).cloned().collect())
            })
            .collect();
        Ok(m)
    }
}
