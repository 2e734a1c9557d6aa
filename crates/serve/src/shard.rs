//! The shard fabric: readiness-driven event loops over nonblocking
//! sockets, one session table per shard. The [`Server`](crate::Server)
//! acceptor deals admitted connections round-robin to these loops.
//!
//! - **Sharded session table.** Each shard owns its connections
//!   outright — session state never crosses a shard boundary, so there
//!   is no session-table lock anywhere.
//! - **Readiness-driven I/O.** Every socket is nonblocking; each shard
//!   parks in `poll(2)` ([`crate::poll`]) and only touches sockets the
//!   kernel reports ready. No async runtime, per the workspace's
//!   no-tokio stance: the event loop is a plain `loop` on a plain
//!   thread.
//! - **Zero-copy decode.** Frames are parsed in place from the shard's
//!   read buffer with
//!   [`decode_control_borrowed`](wire::decode_control_borrowed):
//!   snapshot datagrams are classified straight out of the buffer the
//!   kernel filled, never copied into per-frame `Vec`s, and replies are
//!   encoded straight into the connection's write buffer
//!   ([`encode_control_into`](wire::encode_control_into)).
//! - **Lock-free stats.** Every serve event is counted once, into the
//!   server registry's atomic `serve_*` handles (`stats::ServeMetrics`),
//!   which all shards share; there is no per-shard copy to merge.
//!   [`Server::join`](crate::Server::join) reads its report from the
//!   same handles after every shard has exited.
//!
//! Ownership rule for the zero-copy path: a borrowed frame lives
//! exactly as long as one call to the per-frame handler — nothing
//! borrowed from the read buffer survives into connection state. The
//! handler either consumes the payload (classification reads the
//! snapshot out of it) or converts to an owned
//! [`ControlFrame`] for the rare control-plane kinds; after it returns,
//! the consumed prefix of the read buffer is discarded.

use crate::error::ServeError;
use crate::model::ModelSlot;
use crate::poll::PollSet;
use crate::proto::{MAX_FRAME_BYTES, MID_FRAME_TIMEOUT_BUDGET};
use crate::server::{update_overload, ServerConfig, Shared};
use crate::session::{busy_frame, deadline_exceeded, finish, publish_feed, refuse, verdict_frame};
use appclass_core::online::OnlineClassifier;
use appclass_core::ClassifierPipeline;
use appclass_metrics::wire::{self, ControlFrameRef};
use appclass_metrics::{ByeReason, ControlFrame, FrameDisposition, FrameVerdict};
use appclass_obs::{Observability, TraceScope};
use crossbeam::channel::{Receiver, TryRecvError};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a shard parks in `poll(2)` when its sockets are quiet; the
/// upper bound on new-connection pickup latency.
const SHARD_POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Sleep cadence of a shard with no connections at all.
const SHARD_IDLE_SLEEP: Duration = Duration::from_millis(1);
/// Read chunk size per `read(2)` call on a ready socket.
const READ_CHUNK: usize = 64 * 1024;
/// Hard cap on un-flushed reply bytes per connection. An event loop
/// cannot apply backpressure by blocking in `write`, so a client that
/// streams requests while never draining its acks is failed once its
/// pending replies cross this bound.
const MAX_WRITE_BACKLOG: usize = 16 * 1024 * 1024;

/// One model generation of one sharded session: an [`OnlineClassifier`]
/// pinned to the pipeline `Arc` it borrows from.
///
/// `OnlineClassifier<'a>` borrows its pipeline, which fits a generation
/// that lives on one stack frame but not an event loop, where
/// per-connection state must be storable. This cell makes the borrow
/// self-referential under a narrow, documented contract.
///
/// SAFETY invariants:
/// - `pipeline` is an `Arc`: the `ClassifierPipeline` lives on the heap
///   and its address is stable for as long as this cell holds the Arc,
///   no matter how the cell itself moves.
/// - The pipeline is never mutated (the classifier takes `&`, and the
///   slot hands out fresh `Arc`s on swap rather than mutating).
/// - Field order: `classifier` is declared before `pipeline`, so it
///   drops first and the fabricated `'static` borrow can never outlive
///   the allocation backing it.
struct Generation {
    classifier: OnlineClassifier<'static>,
    /// Owns the allocation `classifier` borrows; never read, only held.
    #[allow(dead_code)]
    pipeline: Arc<ClassifierPipeline>,
    epoch: u64,
    model_id: u64,
}

impl Generation {
    fn new(slot: &ModelSlot, config: &ServerConfig, obs: &Observability) -> Generation {
        let epoch = slot.epoch();
        let pipeline = slot.current();
        let model_id = pipeline.model_id();
        // SAFETY: see the struct-level invariants — the reference targets
        // the Arc's heap allocation, which outlives `classifier` by field
        // order, is address-stable, and is never mutated.
        let pinned: &'static ClassifierPipeline = unsafe { &*Arc::as_ptr(&pipeline) };
        let mut classifier = match config.session.window {
            Some(w) => OnlineClassifier::with_window(pinned, w),
            None => OnlineClassifier::new(pinned),
        };
        classifier.set_tracer(obs.tracer.clone());
        Generation { classifier, pipeline, epoch, model_id }
    }
}

/// Protocol phase of one sharded connection.
enum Phase {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// Handshake done; streaming frames against the generation.
    Steady,
}

/// Why a connection is being closed, for the shard's accounting.
enum CloseKind {
    Clean,
    Shutdown,
    Failed(ServeError),
}

/// Socket-side state of one connection, kept separate from the session
/// state so a frame borrowed from `read_buf` can be processed while
/// replies append to `write_buf` (disjoint field borrows).
struct ConnIo {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// When the first byte of the currently-pending (unparsed) frame
    /// arrived; `None` while the read buffer is empty. This is what the
    /// mid-frame stall budget and the per-frame deadline measure from.
    frame_started: Option<Instant>,
}

impl ConnIo {
    /// Reads what the socket has ready. Returns `true` if the peer
    /// closed the read side. A read shorter than `tmp` has emptied the
    /// socket, so it returns there rather than paying one more `read`
    /// for the `EAGAIN`; `poll(2)` is level-triggered, so bytes or an EOF
    /// that land after it surface on the next turn.
    fn pump_read(&mut self, tmp: &mut [u8]) -> std::io::Result<bool> {
        loop {
            match self.stream.read(tmp) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    if self.frame_started.is_none() {
                        self.frame_started = Some(Instant::now());
                    }
                    self.read_buf.extend_from_slice(&tmp[..n]);
                    if n < tmp.len() {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Flushes as much pending reply data as the socket accepts.
    fn pump_write(&mut self) -> std::io::Result<()> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(())
    }

    fn has_pending_writes(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

/// Session-side state of one connection.
struct Sess {
    session_id: u32,
    phase: Phase,
    gen: Option<Generation>,
    /// Snapshot frames received, for the frame budget.
    frames_in: u64,
    /// Trace id last seen on this session's telemetry (0 = untraced).
    last_trace: u64,
    /// One flight-recorder incident per degradation episode (see
    /// [`note_degraded`]).
    degraded_noted: bool,
}

struct Conn {
    io: ConnIo,
    sess: Sess,
    closing: Option<CloseKind>,
}

/// What one frame's handler asks the loop to do next.
enum Step {
    Continue,
    Close(CloseKind),
}

/// One shard's event loop: drain the intake channel, poll every owned
/// socket, pump reads, parse-and-serve frames zero-copy, flush writes,
/// retire finished connections.
pub(crate) fn shard_loop(shared: &Shared, rx: &Receiver<TcpStream>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll = PollSet::new();
    let mut tmp = vec![0u8; READ_CHUNK];
    let stall_budget = shared.config.read_timeout.saturating_mul(MID_FRAME_TIMEOUT_BUDGET);

    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);

        // --- intake ------------------------------------------------------
        let mut disconnected = false;
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    if shutting_down {
                        // Admitted before the flag flipped: refuse it
                        // before any session state exists.
                        shared.metrics.sessions_rejected.inc();
                        refuse(stream, ByeReason::Shutdown);
                        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                        update_overload(shared);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        shared.metrics.session_errors.inc();
                        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                        update_overload(shared);
                        continue;
                    }
                    // Replies are small and latency-bound; never let
                    // Nagle sit on them.
                    let _ = stream.set_nodelay(true);
                    let session_id = shared.next_session.fetch_add(1, Ordering::SeqCst);
                    shared.metrics.sessions_started.inc();
                    conns.push(Conn {
                        io: ConnIo {
                            stream,
                            read_buf: Vec::new(),
                            write_buf: Vec::new(),
                            write_pos: 0,
                            frame_started: None,
                        },
                        sess: Sess {
                            session_id,
                            phase: Phase::Handshake,
                            gen: None,
                            frames_in: 0,
                            last_trace: 0,
                            degraded_noted: false,
                        },
                        closing: None,
                    });
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }

        // --- shutdown drain ----------------------------------------------
        if shutting_down {
            for mut conn in conns.drain(..) {
                let kind = match conn.sess.phase {
                    // A client that never said Hello is refused,
                    // which counts as a failure.
                    Phase::Handshake => {
                        CloseKind::Failed(ServeError::Rejected { reason: ByeReason::Shutdown })
                    }
                    Phase::Steady => CloseKind::Shutdown,
                };
                wire::encode_control_into(
                    &ControlFrame::Bye { reason: ByeReason::Shutdown },
                    &mut conn.io.write_buf,
                );
                let _ = conn.io.pump_write(); // best-effort farewell
                retire(conn, kind, shared);
            }
            if disconnected {
                break;
            }
            std::thread::sleep(SHARD_IDLE_SLEEP);
            continue;
        }

        if conns.is_empty() {
            if disconnected {
                break; // accept limit drained and nothing left to serve
            }
            std::thread::sleep(SHARD_IDLE_SLEEP);
            continue;
        }

        // --- readiness ---------------------------------------------------
        poll.clear();
        for conn in &conns {
            poll.push(&conn.io.stream, conn.closing.is_none(), conn.io.has_pending_writes());
        }
        let _ = poll.wait(SHARD_POLL_INTERVAL);

        // --- serve every ready connection --------------------------------
        let mut i = 0;
        while i < conns.len() {
            let readable = poll.readable(i);
            let writable = poll.writable(i);
            serve_conn_turn(&mut conns[i], readable, writable, shared, &mut tmp, stall_budget);
            // Retire once the close decision is made and the farewell
            // (if any) is flushed; failed writes dropped their backlog.
            if conns[i].closing.is_some() && !conns[i].io.has_pending_writes() {
                let mut conn = conns.swap_remove(i);
                let kind = conn.closing.take().unwrap_or(CloseKind::Clean);
                retire(conn, kind, shared);
            } else {
                i += 1;
            }
        }
    }
}

/// One event-loop turn for one connection: pump reads, serve complete
/// frames, poll the swap epoch and the stall budget, flush writes.
fn serve_conn_turn(
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    shared: &Shared,
    tmp: &mut [u8],
    stall_budget: Duration,
) {
    if readable && conn.closing.is_none() {
        match conn.io.pump_read(tmp) {
            Ok(eof) => {
                serve_pending_frames(conn, shared);
                if eof && conn.closing.is_none() {
                    // Peer vanished without Bye.
                    conn.closing = Some(CloseKind::Failed(ServeError::ConnectionClosed));
                }
            }
            Err(e) => {
                if conn.closing.is_none() {
                    conn.closing = Some(CloseKind::Failed(e.into()));
                }
            }
        }
    } else if conn.closing.is_none() {
        // Quiet socket: poll the swap epoch and the mid-frame stall
        // budget.
        rebuild_if_swapped(&mut conn.sess, shared);
        if let Some(started) = conn.io.frame_started {
            if !conn.io.read_buf.is_empty() && started.elapsed() > stall_budget {
                conn.closing = Some(CloseKind::Failed(ServeError::Io(std::io::Error::from(
                    ErrorKind::TimedOut,
                ))));
            }
        }
    }

    if writable || conn.io.has_pending_writes() {
        if let Err(e) = conn.io.pump_write() {
            if conn.closing.is_none() {
                conn.closing = Some(CloseKind::Failed(e.into()));
            }
            // The farewell cannot be delivered; drop the backlog so the
            // connection retires immediately.
            conn.io.write_buf.clear();
            conn.io.write_pos = 0;
        }
    }
    if conn.closing.is_none() && conn.io.write_buf.len() - conn.io.write_pos > MAX_WRITE_BACKLOG {
        conn.closing =
            Some(CloseKind::Failed(ServeError::Io(std::io::Error::from(ErrorKind::WriteZero))));
        conn.io.write_buf.clear();
        conn.io.write_pos = 0;
    }
}

/// Retires a finished connection: folds its last generation into the
/// server totals, counts how it ended, releases its admission slot, and
/// lets the overload machine observe the drain.
fn retire(conn: Conn, kind: CloseKind, shared: &Shared) {
    if let Some(g) = conn.sess.gen.as_ref() {
        finish(&shared.metrics, &g.classifier);
    }
    match &kind {
        CloseKind::Clean | CloseKind::Shutdown => shared.metrics.sessions_finished.inc(),
        CloseKind::Failed(e) => {
            shared.metrics.session_errors.inc();
            shared.obs.incident(&format!("session {} failed: {e}", conn.sess.session_id));
        }
    }
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    update_overload(shared);
}

/// If another session swapped the model, fold this connection's
/// generation into the server totals and rebuild against the new
/// pipeline — same-connection hot swap.
fn rebuild_if_swapped(sess: &mut Sess, shared: &Shared) {
    let Some(gen) = sess.gen.as_ref() else { return };
    if shared.slot.epoch() == gen.epoch {
        return;
    }
    finish(&shared.metrics, &gen.classifier);
    sess.gen = Some(Generation::new(&shared.slot, &shared.config, &shared.obs));
}

/// Parses every complete frame in the connection's read buffer and
/// serves it. Frames are decoded zero-copy: snapshot payloads are
/// classified straight out of `read_buf`.
fn serve_pending_frames(conn: &mut Conn, shared: &Shared) {
    let Conn { io, sess, closing } = conn;
    let ConnIo { read_buf, write_buf, frame_started, .. } = io;
    let mut at = 0usize;
    let mut consumed_any = false;
    loop {
        // Between frames is where swaps are observed.
        rebuild_if_swapped(sess, shared);
        let rest = &read_buf[at..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            *closing = Some(CloseKind::Failed(ServeError::FrameTooLarge {
                size: len,
                max: MAX_FRAME_BYTES,
            }));
            break;
        }
        if rest.len() < 4 + len {
            break;
        }
        let body = &read_buf[at + 4..at + 4 + len];
        // The first frame of a pass aged while its bytes trickled in;
        // later frames in the same buffer were all ready "now".
        let arrival =
            if consumed_any { Instant::now() } else { frame_started.unwrap_or_else(Instant::now) };
        let step = serve_frame(sess, body, arrival, write_buf, shared);
        at += 4 + len;
        consumed_any = true;
        match step {
            Step::Continue => {}
            Step::Close(kind) => {
                *closing = Some(kind);
                break;
            }
        }
    }
    if at > 0 {
        read_buf.drain(..at);
    }
    if read_buf.is_empty() {
        *frame_started = None;
    } else if consumed_any {
        // A new frame's first bytes are pending; its age starts at the
        // last parse boundary, not at the previous frame's arrival.
        *frame_started = Some(Instant::now());
    }
}

/// Serves one frame body (no length prefix) against the session,
/// appending any reply to `write_buf`. The first frame must be a
/// `Hello` (versioned handshake plus model fingerprint check against
/// the shared [`ModelSlot`]); after that the client streams `Snapshot`
/// or `SnapshotBatch` frames and interleaves `Classify`, `Health`,
/// `Stats`, `SwapModel` and finally `Bye`.
fn serve_frame(
    sess: &mut Sess,
    body: &[u8],
    arrival: Instant,
    write_buf: &mut Vec<u8>,
    shared: &Shared,
) -> Step {
    let session_config = shared.config.session;
    let metrics = &shared.metrics;
    let frame = match wire::decode_control_borrowed(body) {
        Ok(frame) => frame,
        Err(_) => {
            // The session envelope itself is corrupt: framing is lost.
            wire::encode_control_into(
                &ControlFrame::Bye { reason: ByeReason::Protocol },
                write_buf,
            );
            if let Some(gen) = sess.gen.as_mut() {
                gen.classifier.note_malformed();
            }
            return Step::Close(CloseKind::Failed(ServeError::Handshake {
                reason: "framing lost",
            }));
        }
    };

    if matches!(sess.phase, Phase::Handshake) {
        return match frame.to_owned_frame() {
            ControlFrame::Hello { model_id, .. } => {
                let served = shared.slot.current_id();
                if !shared.slot.accepts(model_id) {
                    wire::encode_control_into(
                        &ControlFrame::Bye { reason: ByeReason::ModelMismatch },
                        write_buf,
                    );
                    return Step::Close(CloseKind::Failed(ServeError::ModelMismatch {
                        offered: model_id,
                        served,
                    }));
                }
                wire::encode_control_into(
                    &ControlFrame::Hello { session: sess.session_id, model_id: served },
                    write_buf,
                );
                sess.phase = Phase::Steady;
                sess.gen = Some(Generation::new(&shared.slot, &shared.config, &shared.obs));
                Step::Continue
            }
            other => {
                wire::encode_control_into(
                    &ControlFrame::Bye { reason: ByeReason::Protocol },
                    write_buf,
                );
                Step::Close(CloseKind::Failed(ServeError::UnexpectedFrame {
                    expected: "Hello",
                    got: other.name(),
                }))
            }
        };
    }

    let model_id = sess.gen.as_ref().expect("steady phase always has a generation").model_id;
    match frame {
        ControlFrameRef::Snapshot { wire: bytes, ctx } => {
            let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
            if let Some(c) = ctx {
                sess.last_trace = c.trace_id;
            }
            sess.frames_in += 1;
            metrics.frames_in.inc();
            if sess.frames_in > session_config.frame_budget {
                wire::encode_control_into(
                    &ControlFrame::Bye { reason: ByeReason::FrameBudget },
                    write_buf,
                );
                return Step::Close(CloseKind::Clean);
            }
            if deadline_exceeded(&session_config, arrival) {
                metrics.frames_deadline_shed.inc();
                note_degraded(&mut sess.degraded_noted, shared, sess.session_id, "deadline shed");
                let notice = busy_frame(&session_config);
                wire::encode_control_into(&notice, write_buf);
                return Step::Continue;
            }
            // The inner datagram crossed the client's (possibly faulty)
            // telemetry channel unprotected: decode failures here are
            // expected degradation, not protocol errors.
            let gen = sess.gen.as_mut().expect("steady phase always has a generation");
            match wire::decode(bytes) {
                Ok(snapshot) => match gen.classifier.push_guarded(&snapshot) {
                    Ok(FrameVerdict::Repaired { .. }) => {
                        metrics.frames_repaired.inc();
                        note_degraded(
                            &mut sess.degraded_noted,
                            shared,
                            sess.session_id,
                            "repaired",
                        );
                    }
                    Ok(FrameVerdict::Dropped { .. }) => {
                        metrics.frames_dropped.inc();
                        note_degraded(&mut sess.degraded_noted, shared, sess.session_id, "dropped");
                    }
                    Ok(FrameVerdict::Accepted) => {}
                    Err(e) => return Step::Close(CloseKind::Failed(e.into())),
                },
                Err(_) => {
                    gen.classifier.note_malformed();
                    metrics.frames_malformed.inc();
                    note_degraded(&mut sess.degraded_noted, shared, sess.session_id, "malformed");
                }
            }
            publish_feed(
                Some(&shared.feed),
                sess.session_id,
                &gen.classifier,
                model_id,
                sess.last_trace,
            );
            Step::Continue
        }
        ControlFrameRef::SnapshotBatch { wires, ctx } => {
            let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
            if let Some(c) = ctx {
                sess.last_trace = c.trace_id;
            }
            let n = wires.len() as u64;
            sess.frames_in += n;
            metrics.frames_in.add(n);
            if sess.frames_in > session_config.frame_budget {
                wire::encode_control_into(
                    &ControlFrame::Bye { reason: ByeReason::FrameBudget },
                    write_buf,
                );
                return Step::Close(CloseKind::Clean);
            }
            if deadline_exceeded(&session_config, arrival) {
                metrics.frames_deadline_shed.add(n);
                note_degraded(&mut sess.degraded_noted, shared, sess.session_id, "deadline shed");
                let statuses = vec![FrameDisposition::Expired; wires.len()];
                let reply = ControlFrame::VerdictBatch { statuses };
                wire::encode_control_into(&reply, write_buf);
                return Step::Continue;
            }
            let gen = sess.gen.as_mut().expect("steady phase always has a generation");
            let mut statuses = vec![FrameDisposition::Malformed; wires.len()];
            let mut snapshots = Vec::with_capacity(wires.len());
            let mut decoded_slots = Vec::with_capacity(wires.len());
            let mut malformed = 0u64;
            for (i, bytes) in wires.iter().enumerate() {
                match wire::decode(bytes) {
                    Ok(snapshot) => {
                        decoded_slots.push(i);
                        snapshots.push(snapshot);
                    }
                    Err(_) => {
                        malformed += 1;
                        gen.classifier.note_malformed();
                    }
                }
            }
            let verdicts = match gen.classifier.push_batch_guarded(&snapshots) {
                Ok(v) => v,
                Err(e) => return Step::Close(CloseKind::Failed(e.into())),
            };
            let (mut repaired, mut dropped) = (0u64, 0u64);
            for (slot, verdict) in decoded_slots.into_iter().zip(&verdicts) {
                statuses[slot] = match verdict {
                    FrameVerdict::Accepted => FrameDisposition::Accepted,
                    FrameVerdict::Repaired { .. } => {
                        repaired += 1;
                        FrameDisposition::Repaired
                    }
                    FrameVerdict::Dropped { .. } => {
                        dropped += 1;
                        FrameDisposition::Dropped
                    }
                };
            }
            if repaired > 0 {
                metrics.frames_repaired.add(repaired);
                note_degraded(&mut sess.degraded_noted, shared, sess.session_id, "repaired");
            }
            if dropped > 0 {
                metrics.frames_dropped.add(dropped);
                note_degraded(&mut sess.degraded_noted, shared, sess.session_id, "dropped");
            }
            if malformed > 0 {
                metrics.frames_malformed.add(malformed);
                note_degraded(&mut sess.degraded_noted, shared, sess.session_id, "malformed");
            }
            let reply = ControlFrame::VerdictBatch { statuses };
            wire::encode_control_into(&reply, write_buf);
            publish_feed(
                Some(&shared.feed),
                sess.session_id,
                &gen.classifier,
                model_id,
                sess.last_trace,
            );
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Classify { ctx }) => {
            let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
            if let Some(c) = ctx {
                sess.last_trace = c.trace_id;
            }
            let gen = sess.gen.as_ref().expect("steady phase always has a generation");
            let span = shared.obs.tracer.span(shared.classify_span);
            let start = Instant::now();
            let verdict = verdict_frame(&gen.classifier, model_id, ctx);
            wire::encode_control_into(&verdict, write_buf);
            drop(span);
            metrics.classify_latency.record(start.elapsed());
            metrics.verdicts.inc();
            publish_feed(
                Some(&shared.feed),
                sess.session_id,
                &gen.classifier,
                model_id,
                sess.last_trace,
            );
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::SwapModel { json }) => {
            let start = Instant::now();
            let new = match ClassifierPipeline::from_json(&json) {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    // An undecodable model is a protocol-level failure:
                    // nothing was installed, and the typed core error
                    // says why.
                    wire::encode_control_into(
                        &ControlFrame::Bye { reason: ByeReason::Protocol },
                        write_buf,
                    );
                    return Step::Close(CloseKind::Failed(e.into()));
                }
            };
            let (old, new_id) = shared.slot.swap(new);
            if old != new_id {
                metrics.swap_total.inc();
                metrics.swap_latency.record(start.elapsed());
                shared.obs.incident(&format!(
                    "session {}: model swap {old:#018x} -> {new_id:#018x}",
                    sess.session_id
                ));
            }
            let ack = ControlFrame::SwapAck { old_model: old, new_model: new_id };
            wire::encode_control_into(&ack, write_buf);
            if old != new_id {
                // Our own swap: rebuild eagerly rather than waiting for
                // the next frame's epoch poll.
                rebuild_if_swapped(sess, shared);
            }
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Stats { .. }) => {
            let text = shared.obs.registry.render();
            wire::encode_control_into(&ControlFrame::Stats { text }, write_buf);
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Health(_)) => {
            let gen = sess.gen.as_ref().expect("steady phase always has a generation");
            let reply = ControlFrame::Health(gen.classifier.telemetry().clone());
            wire::encode_control_into(&reply, write_buf);
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Bye { .. }) => {
            wire::encode_control_into(&ControlFrame::Bye { reason: ByeReason::Normal }, write_buf);
            Step::Close(CloseKind::Clean)
        }
        ControlFrameRef::Other(other) => {
            wire::encode_control_into(
                &ControlFrame::Bye { reason: ByeReason::Protocol },
                write_buf,
            );
            Step::Close(CloseKind::Failed(ServeError::UnexpectedFrame {
                expected: "Snapshot/SnapshotBatch/Classify/SwapModel/Health/Bye",
                got: other.name(),
            }))
        }
    }
}

/// One flight-recorder incident per session degradation episode: the
/// first degraded frame, not all of them. Takes the latch alone so the
/// caller can hold disjoint borrows into the rest of the session.
fn note_degraded(noted: &mut bool, shared: &Shared, session_id: u32, what: &str) {
    if !*noted {
        *noted = true;
        shared.obs.incident(&format!("session {session_id}: first degraded frame ({what})"));
    }
}
