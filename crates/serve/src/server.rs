//! The classification server: one acceptor plus the shard fabric.
//!
//! One acceptor thread owns the [`TcpListener`], parks in `poll(2)`,
//! and applies admission control: a hard `SessionLimit` cap first, then
//! soft `Busy` shedding driven by the [`OverloadMachine`]. Admitted
//! connections are dealt round-robin to `config.shards` readiness-driven
//! event loops (the `shard` module), each of which serves every connection
//! it owns concurrently over nonblocking sockets. No async runtime: the
//! event loops are plain loops on plain threads.

use crate::error::{Result, ServeError};
use crate::feed::CompositionFeed;
use crate::model::ModelSlot;
use crate::overload::{OverloadMachine, OverloadState};
use crate::session::{refuse, refuse_busy, SessionConfig};
use crate::shard::shard_loop;
use crate::stats::{ServeMetrics, ServerStats};
use appclass_core::ClassifierPipeline;
use appclass_metrics::ByeReason;
use appclass_obs::span::SpanName;
use appclass_obs::Observability;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-wide policy, fixed at bind time.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission target: how many connections the server expects to hold
    /// at once. Every admitted connection is served concurrently; the
    /// admissions beyond this many are the queue depth the shedding
    /// watermarks are measured against.
    pub max_sessions: usize,
    /// Admissions allowed beyond `max_sessions` before admission control
    /// starts refusing with `Bye(SessionLimit)`.
    pub backlog: usize,
    /// Stop accepting after this many admitted sessions and let
    /// [`Server::join`] return naturally (`None` = serve until
    /// [`Server::shutdown`]).
    pub accept_limit: Option<u64>,
    /// Unit of the mid-frame stall budget: a connection whose pending
    /// frame stays incomplete for
    /// [`MID_FRAME_TIMEOUT_BUDGET`](crate::proto::MID_FRAME_TIMEOUT_BUDGET)
    /// times this long is failed.
    pub read_timeout: Duration,
    /// Low watermark of the overload state machine: queue depth at or
    /// above it marks the server `Degraded`, and an active shedding
    /// episode does not end until the queue drains back to it.
    pub shed_low_watermark: usize,
    /// High watermark: queue depth at or above it flips the server into
    /// `Shedding`, where new connections get a soft `Busy` refusal
    /// instead of being admitted. Kept below `backlog` by default so soft
    /// refusals engage before the hard `SessionLimit` cap.
    pub shed_high_watermark: usize,
    /// The `retry_after_ms` hint carried by `Busy` refusals.
    pub busy_retry_after: Duration,
    /// Event-loop count: admitted connections are dealt round-robin
    /// across this many shards, each owning its session table outright.
    pub shards: usize,
    /// Per-session policy.
    pub session: SessionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            backlog: 8,
            accept_limit: None,
            read_timeout: Duration::from_millis(50),
            shed_low_watermark: 4,
            shed_high_watermark: 6,
            busy_retry_after: Duration::from_millis(100),
            shards: 2,
            session: SessionConfig::default(),
        }
    }
}

/// State shared by the acceptor, every shard, and the handle.
pub(crate) struct Shared {
    pub(crate) slot: Arc<ModelSlot>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Set by the acceptor as it exits, so [`Server::shutdown`]'s
    /// bounded wait can return as soon as admission has stopped.
    acceptor_done: AtomicBool,
    /// Connections admitted (dealt to a shard) and not yet retired.
    pub(crate) in_flight: AtomicUsize,
    pub(crate) next_session: AtomicU32,
    /// Watermark-driven overload state over the admission-queue depth.
    overload: Mutex<OverloadMachine>,
    pub(crate) obs: Observability,
    /// Every `serve_*` metric, registered once in `obs.registry`.
    pub(crate) metrics: ServeMetrics,
    /// Span name of the `Classify` reply, registered once.
    pub(crate) classify_span: SpanName,
    /// Latest per-session classification observations, for the cluster
    /// controller (see [`crate::feed`]).
    pub(crate) feed: CompositionFeed,
}

/// A running classification server.
///
/// Bind, hand out [`Server::local_addr`] to clients, then either
/// [`Server::join`] (blocks until the accept limit drains) or
/// [`Server::shutdown`] followed by `join`.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the acceptor plus the shard event
    /// loops.
    ///
    /// `addr` may carry port 0 to let the OS pick an ephemeral port;
    /// read the real one back with [`Server::local_addr`]. Each server
    /// instruments into its own [`Observability`] bundle, so its counts
    /// are exactly its own.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        pipeline: Arc<ClassifierPipeline>,
        config: ServerConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let obs = Observability::new();
        let metrics = ServeMetrics::register(&obs.registry);
        let classify_span = obs.tracer.register("classify");
        let shared = Arc::new(Shared {
            slot: Arc::new(ModelSlot::new(pipeline)),
            config,
            shutdown: AtomicBool::new(false),
            acceptor_done: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            next_session: AtomicU32::new(1),
            overload: Mutex::new(OverloadMachine::new(
                config.shed_low_watermark,
                config.shed_high_watermark,
            )),
            obs,
            metrics,
            classify_span,
            feed: CompositionFeed::new(),
        });

        let nshards = config.shards.max(1);
        let mut txs = Vec::with_capacity(nshards);
        let mut shards = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = unbounded::<TcpStream>();
            txs.push(tx);
            let shared = Arc::clone(&shared);
            shards.push(std::thread::spawn(move || shard_loop(&shared, &rx)));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            // The acceptor owns every sender: when it exits, the
            // channels disconnect and drained shards know to stop.
            std::thread::spawn(move || accept_loop(&shared, &listener, txs))
        };

        Ok(Server { local_addr, shared, acceptor: Some(acceptor), shards })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The observability bundle every shard instruments into. Clones
    /// share state, so a returned handle stays live while the server runs.
    pub fn observability(&self) -> &Observability {
        &self.shared.obs
    }

    /// The serve→cluster composition feed every session publishes into:
    /// the latest observed class/composition per session, the input a
    /// class-aware placement controller consumes. Clones share state, so
    /// a returned handle stays live while the server runs.
    pub fn composition_feed(&self) -> CompositionFeed {
        self.shared.feed.clone()
    }

    /// Fingerprint of the model currently served.
    pub fn model_id(&self) -> u64 {
        self.shared.slot.current_id()
    }

    /// The shared model slot every shard polls between frames, so a swap
    /// through a cloned handle behaves exactly like
    /// [`Server::swap_model`] minus the metrics.
    pub fn model_slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.shared.slot)
    }

    /// Hot-swaps the served model. Established sessions on every shard
    /// drain onto the new pipeline at their next frame without dropping
    /// the connection; clients pinned to the old fingerprint stay
    /// admissible through the drain window. Returns `(old_id, new_id)` —
    /// equal when the offered model is already the one served (a no-op).
    pub fn swap_model(&self, pipeline: Arc<ClassifierPipeline>) -> (u64, u64) {
        let start = Instant::now();
        let (old, new) = self.shared.slot.swap(pipeline);
        if old != new {
            self.shared.metrics.swap_total.inc();
            self.shared.metrics.swap_latency.record(start.elapsed());
            self.shared.obs.incident(&format!("server: model swap {old:#018x} -> {new:#018x}"));
        }
        (old, new)
    }

    /// Asks the acceptor and every shard to wind down: established
    /// sessions drain with `Bye(Shutdown)`, the acceptor stops. Returns
    /// once the acceptor has acknowledged (bounded wait); [`Server::join`]
    /// observes the full drain.
    ///
    /// This only sets a flag that the readiness loops observe within one
    /// poll interval. No wake-up connection is made: a self-connect poke
    /// would be indistinguishable from a real client, and when the server
    /// is shedding it would land in the refusal accounting.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..100 {
            if self.shared.acceptor_done.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits for the acceptor and every shard, then reads the server's
    /// registry into one report. Blocks until either
    /// [`Server::shutdown`] is called or the accept limit drains.
    pub fn join(mut self) -> Result<ServerStats> {
        let mut panicked = false;
        for h in self.acceptor.take().into_iter().chain(self.shards.drain(..)) {
            panicked |= h.join().is_err();
        }
        if panicked {
            return Err(ServeError::WorkerPanicked);
        }
        Ok(self.shared.metrics.stats())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped-without-join server must not leak parked threads.
        if self.acceptor.is_some() || !self.shards.is_empty() {
            self.shutdown();
            if let Some(h) = self.acceptor.take() {
                let _ = h.join();
            }
            for h in self.shards.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Recomputes the admission-queue depth (admissions beyond the
/// `max_sessions` target), feeds it through the overload state machine,
/// and mirrors both into the registry gauges. Entering `Shedding`
/// latches one flight-recorder incident per episode.
pub(crate) fn update_overload(shared: &Shared) -> OverloadState {
    let depth =
        shared.in_flight.load(Ordering::SeqCst).saturating_sub(shared.config.max_sessions.max(1));
    let (state, entered_shedding) = shared.overload.lock().update(depth);
    shared.metrics.queue_depth.set(depth as f64);
    shared.metrics.overload_state.set(state.gauge_value());
    if entered_shedding {
        shared.obs.incident(&format!("server: load shedding engaged (queue depth {depth})"));
    }
    state
}

/// How long the acceptor parks in `poll(2)` before re-checking the
/// shutdown flag; the upper bound on shutdown latency for an idle
/// listener.
const ACCEPT_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Readiness-driven acceptor: hard `SessionLimit` cap first, then soft
/// `Busy` shedding, dealing admitted sockets round-robin across the
/// shard channels. Refusals are counted straight into the registry.
fn accept_loop(shared: &Shared, listener: &TcpListener, txs: Vec<Sender<TcpStream>>) {
    let capacity = shared.config.max_sessions.max(1) + shared.config.backlog;
    let mut admitted = 0u64;
    let mut next_shard = 0usize;
    // The listener is nonblocking and the loop parks in poll(2) with a
    // short timeout, so shutdown is observed within one interval without
    // any wake-up connection.
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if shared.config.accept_limit.is_some_and(|limit| admitted >= limit) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let _ = crate::poll::wait_readable(listener, ACCEPT_POLL_INTERVAL);
                continue;
            }
            Err(_) => {
                // Transient accept failure (e.g. the peer aborted the
                // handshake); don't let an unexpected hard error spin.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // A client that lost the race with shutdown gets a clean
            // refusal.
            let _ = stream.set_nonblocking(false);
            refuse(stream, ByeReason::Shutdown);
            break;
        }
        if shared.in_flight.load(Ordering::SeqCst) >= capacity {
            shared.metrics.sessions_rejected.inc();
            let _ = stream.set_nonblocking(false);
            refuse(stream, ByeReason::SessionLimit);
            continue;
        }
        if update_overload(shared) == OverloadState::Shedding {
            shared.metrics.sessions_busy.inc();
            let _ = stream.set_nonblocking(false);
            refuse_busy(stream, shared.config.busy_retry_after);
            continue;
        }
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        admitted += 1;
        if txs[next_shard % txs.len()].send(stream).is_err() {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            break; // shards are gone; nothing can serve
        }
        next_shard = next_shard.wrapping_add(1);
    }
    shared.acceptor_done.store(true, Ordering::SeqCst);
    // Dropping `txs` disconnects the channels; drained shards exit.
}
