//! Wire format for metric announcements (gmond's XDR analogue) and the
//! classification service's control frames.
//!
//! Real gmond serializes each metric announcement with XDR before
//! multicasting it. This module provides the equivalent compact binary
//! codec for [`Snapshot`]s: a fixed header (magic, version, node id,
//! timestamp) followed by the 33 metric values as big-endian IEEE-754
//! doubles. Decoding validates the magic, version, frame width and value
//! finiteness, so a corrupted or truncated datagram is rejected instead of
//! poisoning the data pool.
//!
//! Layered on top, [`ControlFrame`] is the session protocol the
//! `appclass-serve` TCP service speaks: a versioned envelope (magic,
//! version, kind byte) around a typed payload, closed by a
//! [`control_checksum`] over everything before it. The checksum makes the
//! control layer strictly stronger than the snapshot datagram layer: any
//! change confined to one aligned 8-byte word of a control frame, every
//! single flipped byte included, is detected and surfaces as a typed
//! [`Error::MalformedWire`], never a panic and never silent corruption.
//! Snapshot announcements travel *inside* [`ControlFrame::Snapshot`] as
//! raw datagram bytes, so a lossy channel can still mangle the inner
//! announcement (that is the fault domain [`crate::repair::FrameGuard`]
//! owns) while the session envelope stays verifiable.
//!
//! Both directions take one pass. [`encode_control_into`] writes a frame
//! (length prefix, envelope, payload, trailer) straight into a
//! caller-owned buffer, and [`BatchEncoder`] builds a
//! [`ControlFrame::SnapshotBatch`] in place as datagrams arrive.
//! [`decode_control_borrowed`] validates a frame once and hands snapshot
//! datagrams back as slices of the input, a batch as a lazy
//! [`BatchItems`] walk.

use crate::error::{Error, Result};
use crate::metric::{MetricFrame, METRIC_COUNT};
use crate::repair::TelemetryHealth;
use crate::snapshot::{NodeId, Snapshot};
use appclass_obs::trace::TRACE_EXT_LEN;
use appclass_obs::TraceContext;
use bytes::{Buf, BufMut, Bytes};

/// Magic bytes opening every announcement ("GMON").
pub const MAGIC: u32 = 0x474D_4F4E;

/// Wire protocol version.
pub const VERSION: u16 = 1;

/// Encoded size of one announcement: header + payload.
pub const WIRE_SIZE: usize = 4 + 2 + 2 + 4 + 8 + METRIC_COUNT * 8;

/// Offset of the first metric value in an announcement.
const VALUES_AT: usize = 20;

/// Magic, version and metric count open every announcement; all three
/// are constants, so they travel as one big-endian word.
const HEADER_WORD: u64 = (MAGIC as u64) << 32 | (VERSION as u64) << 16 | METRIC_COUNT as u64;

/// Encodes a snapshot into its wire representation.
pub fn encode(snapshot: &Snapshot) -> Bytes {
    let mut out = [0u8; WIRE_SIZE];
    encode_into(snapshot, &mut out);
    Bytes::from(out.to_vec())
}

/// Writes a snapshot's announcement into a fixed-size array: one store
/// for the constant header word, one each for the node and the time, one
/// per metric value. A frame narrower than the catalogue (only a
/// malformed deserialized one can be) pads with NaN, so its announcement
/// never decodes.
pub fn encode_into(snapshot: &Snapshot, out: &mut [u8; WIRE_SIZE]) {
    let (header, values) = out.split_at_mut(VALUES_AT);
    header[..8].copy_from_slice(&HEADER_WORD.to_be_bytes());
    header[8..12].copy_from_slice(&snapshot.node.0.to_be_bytes());
    header[12..].copy_from_slice(&snapshot.time.to_be_bytes());
    let frame = snapshot.frame.as_slice();
    for (i, slot) in values.chunks_exact_mut(8).enumerate() {
        let v = frame.get(i).copied().unwrap_or(f64::NAN);
        slot.copy_from_slice(&v.to_be_bytes());
    }
}

/// Decodes a wire announcement back into a snapshot.
///
/// Rejects short buffers, bad magic/version, unexpected metric counts and
/// non-finite values — all as [`Error::MalformedWire`]. The values are
/// parsed into a stack array; the only allocation is the returned
/// [`MetricFrame`].
pub fn decode(data: &[u8]) -> Result<Snapshot> {
    let Some(data) = data.first_chunk::<WIRE_SIZE>() else {
        return Err(Error::MalformedWire { reason: "truncated announcement", offset: data.len() });
    };
    let word = |at: usize| u64::from_be_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let header = word(0);
    if header != HEADER_WORD {
        let (reason, offset) = if (header >> 32) as u32 != MAGIC {
            ("bad magic", 0)
        } else if (header >> 16) as u16 != VERSION {
            ("unsupported version", 4)
        } else {
            ("unexpected metric count", 6)
        };
        return Err(Error::MalformedWire { reason, offset });
    }
    let node = NodeId((word(8) >> 32) as u32);
    let time = word(12);
    let mut values = [0.0f64; METRIC_COUNT];
    for (i, slot) in values.iter_mut().enumerate() {
        let offset = VALUES_AT + i * 8;
        let v = f64::from_bits(word(offset));
        if !v.is_finite() {
            return Err(Error::MalformedWire { reason: "non-finite metric value", offset });
        }
        *slot = v;
    }
    let frame = MetricFrame::from_values(&values)
        .ok_or(Error::MalformedWire { reason: "frame width mismatch", offset: VALUES_AT })?;
    Ok(Snapshot::new(node, time, frame))
}

// --- Control frames (the appclass-serve session protocol) -----------------

/// Magic bytes opening every control frame ("APCS").
pub const CONTROL_MAGIC: u32 = 0x4150_4353;

/// Control protocol version negotiated by the `Hello` handshake. Version
/// 2 closes frames with [`control_checksum`]; a version-1 peer (byte-wise
/// [`fnv1a64`] trailer) is refused by version, before its checksum is
/// looked at.
pub const CONTROL_VERSION: u16 = 2;

/// Envelope overhead: magic + version + kind in front, checksum behind.
const CONTROL_HEADER: usize = 4 + 2 + 1;
const CONTROL_TRAILER: usize = 8;

/// Byte-stream length prefix in front of each encoded control frame.
const LENGTH_PREFIX: usize = 4;

/// Upper bound on a [`ControlFrame::Stats`] exposition text, in bytes.
/// 64 KiB holds thousands of metric lines — far beyond what the registry
/// emits — while still letting transports bound their reads.
pub const MAX_STATS_TEXT: usize = 64 * 1024;

/// Upper bound on the serialized pipeline JSON a [`ControlFrame::SwapModel`]
/// may carry. A paper-config pipeline (33-metric preprocessor, 8-component
/// PCA basis, ~150 projected training points) serializes to well under
/// 64 KiB; 256 KiB leaves headroom for larger training pools without
/// letting a hostile peer demand unbounded allocations.
pub const MAX_MODEL_JSON: usize = 256 * 1024;

/// Upper bound on an encoded control frame (the largest payload is a
/// [`ControlFrame::SwapModel`] pipeline dump). Transport layers use this
/// to bound reads.
pub const MAX_CONTROL_SIZE: usize = CONTROL_HEADER + 4 + MAX_MODEL_JSON + CONTROL_TRAILER;

// The stats exposition must also fit the read bound.
const _: () = assert!(CONTROL_HEADER + 4 + MAX_STATS_TEXT + CONTROL_TRAILER <= MAX_CONTROL_SIZE);

/// Upper bound on the snapshots one [`ControlFrame::SnapshotBatch`] may
/// carry. 128 datagrams of [`WIRE_SIZE`] bytes (plus per-item length
/// prefixes) stay comfortably inside [`MAX_CONTROL_SIZE`], which the
/// transport already uses to bound reads.
pub const MAX_SNAPSHOT_BATCH: usize = 128;

// A full batch (plus a trace extension) must fit the existing read bound.
const _: () = assert!(
    CONTROL_HEADER + 2 + MAX_SNAPSHOT_BATCH * (2 + WIRE_SIZE) + TRACE_EXT_LEN + CONTROL_TRAILER
        <= MAX_CONTROL_SIZE
);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash, one byte per round — the basis of deterministic
/// model fingerprints and of the appdb and modelstore trailers, whose
/// bytes must never drift. Flipping any single input byte always changes
/// the digest (every round is a bijection of the state).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The control-frame checksum: FNV-1a over 8-byte big-endian words, the
/// last word zero-padded, with the body length folded in as a final
/// round. Each round (xor a word, multiply by the odd FNV prime) is a
/// bijection of the state, so any change confined to one aligned 8-byte
/// word, every single-byte flip included, changes the digest. The length
/// round is what tells a body from the same body cut short inside its
/// zero padding. One multiply per eight bytes instead of per byte.
pub fn control_checksum(body: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut words = body.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_be_bytes(word.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_be_bytes(last);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash ^= body.len() as u64;
    hash.wrapping_mul(FNV_PRIME)
}

/// Why a peer is closing (or refusing) a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByeReason {
    /// Orderly end of session.
    Normal,
    /// The server is shutting down and draining sessions.
    Shutdown,
    /// Admission control refused the session (max sessions / backlog).
    SessionLimit,
    /// The session exhausted its per-session frame budget.
    FrameBudget,
    /// The peer violated the protocol (unexpected frame, bad handshake).
    Protocol,
    /// The client asked for a model the server is not serving.
    ModelMismatch,
}

impl ByeReason {
    /// Wire code of this reason.
    pub fn code(self) -> u8 {
        match self {
            ByeReason::Normal => 0,
            ByeReason::Shutdown => 1,
            ByeReason::SessionLimit => 2,
            ByeReason::FrameBudget => 3,
            ByeReason::Protocol => 4,
            ByeReason::ModelMismatch => 5,
        }
    }

    /// Reason for a wire code, if valid.
    pub fn from_code(code: u8) -> Option<ByeReason> {
        match code {
            0 => Some(ByeReason::Normal),
            1 => Some(ByeReason::Shutdown),
            2 => Some(ByeReason::SessionLimit),
            3 => Some(ByeReason::FrameBudget),
            4 => Some(ByeReason::Protocol),
            5 => Some(ByeReason::ModelMismatch),
            _ => None,
        }
    }
}

impl std::fmt::Display for ByeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ByeReason::Normal => "normal close",
            ByeReason::Shutdown => "server shutting down",
            ByeReason::SessionLimit => "session limit reached",
            ByeReason::FrameBudget => "frame budget exhausted",
            ByeReason::Protocol => "protocol violation",
            ByeReason::ModelMismatch => "model mismatch",
        };
        f.write_str(s)
    }
}

/// How the server disposed of one snapshot in a batch — the per-item
/// payload of a [`ControlFrame::VerdictBatch`] acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDisposition {
    /// The datagram decoded and the guard admitted it unchanged.
    Accepted,
    /// The guard admitted it after patching damaged values.
    Repaired,
    /// The guard discarded it (duplicate, stale, unrepairable).
    Dropped,
    /// The datagram did not decode at all.
    Malformed,
    /// The item arrived after its per-frame deadline budget and was shed
    /// before classification — a verdict-less acknowledgement, not an
    /// error.
    Expired,
}

impl FrameDisposition {
    /// Wire code of this disposition.
    pub fn code(self) -> u8 {
        match self {
            FrameDisposition::Accepted => 0,
            FrameDisposition::Repaired => 1,
            FrameDisposition::Dropped => 2,
            FrameDisposition::Malformed => 3,
            FrameDisposition::Expired => 4,
        }
    }

    /// Disposition for a wire code, if valid.
    pub fn from_code(code: u8) -> Option<FrameDisposition> {
        match code {
            0 => Some(FrameDisposition::Accepted),
            1 => Some(FrameDisposition::Repaired),
            2 => Some(FrameDisposition::Dropped),
            3 => Some(FrameDisposition::Malformed),
            4 => Some(FrameDisposition::Expired),
            _ => None,
        }
    }
}

/// One message of the classification-service session protocol.
///
/// The lifecycle is `Hello` (both directions, versioned handshake) →
/// any number of `Snapshot` / `SnapshotBatch` / `Classify` / `Health`
/// exchanges → `Bye`. `Verdict`, `VerdictBatch` and `Health` responses
/// flow server→client; `Snapshot`, `SnapshotBatch`, `Classify` and
/// `Health` requests flow client→server.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrame {
    /// Session handshake. The client offers the model fingerprint it
    /// expects (0 = any); the server replies with the assigned session id
    /// and the fingerprint it actually serves.
    Hello {
        /// Session id (0 from the client; assigned by the server).
        session: u32,
        /// Deterministic fingerprint of the trained pipeline.
        model_id: u64,
    },
    /// One snapshot announcement, carried as raw datagram bytes so that
    /// in-flight corruption of the *inner* datagram (the lossy-subnet
    /// fault domain) survives transport and is judged by the server's
    /// [`FrameGuard`](crate::repair::FrameGuard).
    Snapshot {
        /// The (possibly mangled) `wire::encode` bytes.
        wire: Vec<u8>,
        /// Optional distributed trace context, carried as a
        /// trailer-checksummed extension. Absent from old peers.
        ctx: Option<TraceContext>,
    },
    /// Client request for the session's current verdict.
    Classify {
        /// Optional distributed trace context (see
        /// [`ControlFrame::Snapshot::ctx`]).
        ctx: Option<TraceContext>,
    },
    /// Server response to [`ControlFrame::Classify`].
    Verdict {
        /// Majority class code (an `AppClass` index, `< 5`).
        class: u8,
        /// Confidence in the majority, degradation-discounted.
        confidence: f64,
        /// Class-fraction vector in `AppClass` index order.
        composition: [f64; 5],
        /// Fingerprint of the model version that produced this verdict,
        /// so clients can tell which side of a hot swap a verdict
        /// belongs to.
        model: u64,
        /// The trace context of the `Classify` request this verdict
        /// answers, echoed back so the client can confirm trace
        /// continuity end to end.
        ctx: Option<TraceContext>,
    },
    /// Telemetry health, as a client request (payload ignored) or the
    /// server's response (the session's accumulated counters).
    Health(TelemetryHealth),
    /// Observability exposition, as a client request (empty text) or the
    /// server's response: the metric registry rendered as Prometheus-style
    /// `name{label} value` lines. At most [`MAX_STATS_TEXT`] bytes.
    Stats {
        /// The exposition text (empty in the request direction).
        text: String,
    },
    /// Orderly close, with the reason the session ended.
    Bye {
        /// Why the session is over.
        reason: ByeReason,
    },
    /// Up to [`MAX_SNAPSHOT_BATCH`] snapshot announcements coalesced into
    /// one frame — the batched hot path. Each item is raw datagram bytes,
    /// exactly as in [`ControlFrame::Snapshot`], so per-datagram fault
    /// injection still works inside a batch.
    SnapshotBatch {
        /// The (possibly mangled) `wire::encode` byte strings, in
        /// arrival order.
        wires: Vec<Vec<u8>>,
        /// Optional distributed trace context covering the whole batch
        /// (see [`ControlFrame::Snapshot::ctx`]).
        ctx: Option<TraceContext>,
    },
    /// Server acknowledgement of a [`ControlFrame::SnapshotBatch`]: how
    /// each snapshot was disposed of, in the batch's order. The session
    /// verdict itself is still requested via [`ControlFrame::Classify`],
    /// so batching cannot change what a verdict says.
    VerdictBatch {
        /// Per-snapshot dispositions, parallel to the batch items.
        statuses: Vec<FrameDisposition>,
    },
    /// Admin request to hot-swap the served model: the payload is the
    /// serialized `ClassifierPipeline` JSON of the replacement. The server
    /// installs it atomically; in-flight sessions drain onto the new
    /// fingerprint without dropping their connections. At most
    /// [`MAX_MODEL_JSON`] bytes.
    SwapModel {
        /// Serialized pipeline JSON of the replacement model.
        json: String,
    },
    /// Server acknowledgement of a [`ControlFrame::SwapModel`]: the
    /// fingerprints on both sides of the swap. The old fingerprint stays
    /// valid for `Hello` gating until the *next* swap (the drain window).
    SwapAck {
        /// Fingerprint that was being served before the swap.
        old_model: u64,
        /// Fingerprint now being served.
        new_model: u64,
    },
    /// Soft refusal under load: the server is alive but shedding. Unlike
    /// the hard `Bye(SessionLimit)` rejection, a `Busy` carries a
    /// retry-after hint and invites the client to come back — at
    /// admission time it refuses the whole connection, mid-session it
    /// acknowledges a deadline-shed snapshot without a verdict.
    Busy {
        /// How long the server suggests the client wait before retrying.
        retry_after_ms: u32,
    },
}

impl ControlFrame {
    /// Wire code of this frame kind.
    fn kind(&self) -> u8 {
        match self {
            ControlFrame::Hello { .. } => 1,
            ControlFrame::Snapshot { .. } => 2,
            ControlFrame::Classify { .. } => 3,
            ControlFrame::Verdict { .. } => 4,
            ControlFrame::Health(_) => 5,
            ControlFrame::Bye { .. } => 6,
            ControlFrame::Stats { .. } => 7,
            ControlFrame::SnapshotBatch { .. } => 8,
            ControlFrame::VerdictBatch { .. } => 9,
            ControlFrame::SwapModel { .. } => 10,
            ControlFrame::SwapAck { .. } => 11,
            ControlFrame::Busy { .. } => 12,
        }
    }

    /// Human-readable frame-kind name (for protocol errors).
    pub fn name(&self) -> &'static str {
        match self {
            ControlFrame::Hello { .. } => "Hello",
            ControlFrame::Snapshot { .. } => "Snapshot",
            ControlFrame::Classify { .. } => "Classify",
            ControlFrame::Verdict { .. } => "Verdict",
            ControlFrame::Health(_) => "Health",
            ControlFrame::Bye { .. } => "Bye",
            ControlFrame::Stats { .. } => "Stats",
            ControlFrame::SnapshotBatch { .. } => "SnapshotBatch",
            ControlFrame::VerdictBatch { .. } => "VerdictBatch",
            ControlFrame::SwapModel { .. } => "SwapModel",
            ControlFrame::SwapAck { .. } => "SwapAck",
            ControlFrame::Busy { .. } => "Busy",
        }
    }
}

/// Encodes a control frame: envelope, payload, [`control_checksum`]
/// trailer. This is [`encode_control_into`] without the byte-stream
/// length prefix, into a fresh buffer.
///
/// # Panics
///
/// As [`encode_control_into`].
pub fn encode_control(frame: &ControlFrame) -> Bytes {
    let mut out = Vec::new();
    put_control(frame, &mut out);
    Bytes::from(out)
}

/// Appends one control frame to `out` as it travels on a byte stream: a
/// big-endian `u32` length prefix, then the envelope, payload and
/// checksum trailer, all written in place. Nothing in `out` is cleared,
/// so a reply can queue behind unsent ones; a warm buffer encodes
/// without allocating.
///
/// # Panics
///
/// Panics if a payload exceeds its protocol bound: a snapshot datagram
/// larger than [`WIRE_SIZE`] (a faulty channel can only shrink one,
/// never grow it), more than [`MAX_SNAPSHOT_BATCH`] batch items, or text
/// over [`MAX_STATS_TEXT`] / [`MAX_MODEL_JSON`].
pub fn encode_control_into(frame: &ControlFrame, out: &mut Vec<u8>) {
    let start = out.len();
    out.put_u32(0);
    put_control(frame, out);
    patch_length_prefix(out, start);
}

/// Writes the big-endian length of everything after the prefix at
/// `start` into that prefix.
fn patch_length_prefix(out: &mut [u8], start: usize) {
    let len = (out.len() - start - LENGTH_PREFIX) as u32;
    out[start..start + LENGTH_PREFIX].copy_from_slice(&len.to_be_bytes());
}

/// Appends the envelope that opens every control frame of `kind`.
fn put_envelope(out: &mut Vec<u8>, kind: u8) {
    out.put_u32(CONTROL_MAGIC);
    out.put_u16(CONTROL_VERSION);
    out.put_u8(kind);
}

/// Closes the frame whose envelope starts at `start` with the checksum
/// of everything from there on.
fn seal(out: &mut Vec<u8>, start: usize) {
    let checksum = control_checksum(&out[start..]);
    out.put_u64(checksum);
}

/// Appends one batch item: its `u16` length, then the datagram bytes.
fn put_batch_item(out: &mut Vec<u8>, wire: &[u8]) {
    assert!(wire.len() <= WIRE_SIZE, "snapshot datagram larger than WIRE_SIZE");
    out.put_u16(wire.len() as u16);
    out.put_slice(wire);
}

/// Appends envelope, payload and checksum: the one encoder behind
/// [`encode_control`] and [`encode_control_into`].
fn put_control(frame: &ControlFrame, out: &mut Vec<u8>) {
    let start = out.len();
    put_envelope(out, frame.kind());
    match frame {
        ControlFrame::Hello { session, model_id } => {
            out.put_u32(*session);
            out.put_u64(*model_id);
        }
        ControlFrame::Snapshot { wire, ctx } => {
            put_batch_item(out, wire);
            put_trace_ext(out, ctx);
        }
        ControlFrame::Classify { ctx } => put_trace_ext(out, ctx),
        ControlFrame::Verdict { class, confidence, composition, model, ctx } => {
            out.put_u8(*class);
            out.put_f64(*confidence);
            for &f in composition {
                out.put_f64(f);
            }
            out.put_u64(*model);
            put_trace_ext(out, ctx);
        }
        ControlFrame::Health(h) => {
            for v in [
                h.seen,
                h.accepted,
                h.repaired,
                h.dropped,
                h.duplicates,
                h.reordered,
                h.gaps,
                h.missed_frames,
                h.values_patched,
                h.malformed,
            ] {
                out.put_u64(v);
            }
            out.put_u32(h.max_repair_streak);
            out.put_u16(h.dead_metrics.len() as u16);
            for &m in &h.dead_metrics {
                out.put_u16(m as u16);
            }
        }
        ControlFrame::Bye { reason } => out.put_u8(reason.code()),
        ControlFrame::Stats { text } => {
            assert!(text.len() <= MAX_STATS_TEXT, "stats exposition larger than MAX_STATS_TEXT");
            out.put_u32(text.len() as u32);
            out.put_slice(text.as_bytes());
        }
        ControlFrame::SnapshotBatch { wires, ctx } => {
            assert!(wires.len() <= MAX_SNAPSHOT_BATCH, "batch larger than MAX_SNAPSHOT_BATCH");
            out.put_u16(wires.len() as u16);
            for wire in wires {
                put_batch_item(out, wire);
            }
            put_trace_ext(out, ctx);
        }
        ControlFrame::VerdictBatch { statuses } => {
            assert!(statuses.len() <= MAX_SNAPSHOT_BATCH, "batch larger than MAX_SNAPSHOT_BATCH");
            out.put_u16(statuses.len() as u16);
            for s in statuses {
                out.put_u8(s.code());
            }
        }
        ControlFrame::SwapModel { json } => {
            assert!(json.len() <= MAX_MODEL_JSON, "model json larger than MAX_MODEL_JSON");
            out.put_u32(json.len() as u32);
            out.put_slice(json.as_bytes());
        }
        ControlFrame::SwapAck { old_model, new_model } => {
            out.put_u64(*old_model);
            out.put_u64(*new_model);
        }
        ControlFrame::Busy { retry_after_ms } => out.put_u32(*retry_after_ms),
    }
    seal(out, start);
}

/// A [`ControlFrame::SnapshotBatch`] built in place: each datagram is
/// appended straight into the length-prefixed frame as it arrives, and
/// [`finish`](BatchEncoder::finish) fills in the item count, the trace
/// extension and the checksum. The bytes are exactly those
/// [`encode_control_into`] writes for the owned frame holding the same
/// datagrams, without ever building that frame. The buffer is reused
/// from batch to batch.
#[derive(Debug, Default)]
pub struct BatchEncoder {
    buf: Vec<u8>,
    count: usize,
}

/// Offset of the item count in a [`BatchEncoder`] frame: after the
/// length prefix and the envelope.
const BATCH_COUNT_AT: usize = LENGTH_PREFIX + CONTROL_HEADER;

impl BatchEncoder {
    /// An empty encoder; the first push allocates its buffer.
    pub fn new() -> BatchEncoder {
        BatchEncoder::default()
    }

    /// Datagrams in the batch being built.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no datagram has been pushed since the last
    /// [`finish`](BatchEncoder::finish).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends one datagram to the batch.
    ///
    /// # Panics
    ///
    /// Panics if the datagram is larger than [`WIRE_SIZE`] or the batch
    /// already holds [`MAX_SNAPSHOT_BATCH`] items.
    pub fn push(&mut self, wire: &[u8]) {
        assert!(self.count < MAX_SNAPSHOT_BATCH, "batch larger than MAX_SNAPSHOT_BATCH");
        if self.count == 0 {
            self.begin();
        }
        put_batch_item(&mut self.buf, wire);
        self.count += 1;
    }

    /// Closes the batch with `ctx` and returns the whole frame, length
    /// prefix first, ready for one `write_all`. The next push starts a
    /// new batch.
    pub fn finish(&mut self, ctx: Option<TraceContext>) -> &[u8] {
        if self.count == 0 {
            self.begin();
        }
        let count = (self.count as u16).to_be_bytes();
        self.buf[BATCH_COUNT_AT..BATCH_COUNT_AT + 2].copy_from_slice(&count);
        put_trace_ext(&mut self.buf, &ctx);
        seal(&mut self.buf, LENGTH_PREFIX);
        patch_length_prefix(&mut self.buf, 0);
        self.count = 0;
        &self.buf
    }

    /// Starts a frame: length-prefix and item-count placeholders around
    /// the envelope.
    fn begin(&mut self) {
        self.buf.clear();
        self.buf.put_u32(0);
        put_envelope(&mut self.buf, 8);
        self.buf.put_u16(0);
    }
}

/// Decodes a control frame, validating envelope, checksum, payload shape
/// and payload semantics. Every failure is a typed
/// [`Error::MalformedWire`]; the decoder never panics on hostile input.
pub fn decode_control(data: &[u8]) -> Result<ControlFrame> {
    match decode_control_borrowed(data)? {
        ControlFrameRef::Other(frame) => Ok(frame),
        borrowed => Ok(borrowed.to_owned_frame()),
    }
}

/// Parses the payload of every kind except the two snapshot kinds, which
/// [`decode_control_borrowed`] parses in place. `rest` is the body after
/// the envelope's kind byte, already checksum-verified.
fn decode_other(kind: u8, mut rest: &[u8]) -> Result<ControlFrame> {
    let frame = match kind {
        1 => {
            expect_len(rest.len(), 12)?;
            ControlFrame::Hello { session: rest.get_u32(), model_id: rest.get_u64() }
        }
        3 => ControlFrame::Classify { ctx: decode_trace_ext(rest)? },
        4 => {
            if rest.len() < 1 + 8 + 5 * 8 + 8 {
                return Err(Error::MalformedWire {
                    reason: "truncated verdict payload",
                    offset: CONTROL_HEADER,
                });
            }
            let class = rest.get_u8();
            if class >= 5 {
                return Err(Error::MalformedWire {
                    reason: "bad verdict class code",
                    offset: CONTROL_HEADER,
                });
            }
            let confidence = rest.get_f64();
            let mut composition = [0.0; 5];
            for slot in &mut composition {
                *slot = rest.get_f64();
            }
            if !confidence.is_finite() || composition.iter().any(|f| !f.is_finite()) {
                return Err(Error::MalformedWire {
                    reason: "non-finite verdict value",
                    offset: CONTROL_HEADER + 1,
                });
            }
            let model = rest.get_u64();
            ControlFrame::Verdict {
                class,
                confidence,
                composition,
                model,
                ctx: decode_trace_ext(rest)?,
            }
        }
        5 => {
            if rest.len() < 10 * 8 + 4 + 2 {
                return Err(Error::MalformedWire {
                    reason: "truncated health payload",
                    offset: CONTROL_HEADER,
                });
            }
            let mut h = TelemetryHealth {
                seen: rest.get_u64(),
                accepted: rest.get_u64(),
                repaired: rest.get_u64(),
                dropped: rest.get_u64(),
                duplicates: rest.get_u64(),
                reordered: rest.get_u64(),
                gaps: rest.get_u64(),
                missed_frames: rest.get_u64(),
                values_patched: rest.get_u64(),
                malformed: rest.get_u64(),
                dead_metrics: Vec::new(),
                max_repair_streak: rest.get_u32(),
            };
            let ndead = rest.get_u16() as usize;
            if ndead > METRIC_COUNT {
                return Err(Error::MalformedWire {
                    reason: "too many dead metrics",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), 2 * ndead)?;
            let mut prev: Option<u16> = None;
            for _ in 0..ndead {
                let m = rest.get_u16();
                if m as usize >= METRIC_COUNT || prev.is_some_and(|p| p >= m) {
                    return Err(Error::MalformedWire {
                        reason: "bad dead-metric list",
                        offset: CONTROL_HEADER,
                    });
                }
                prev = Some(m);
                h.dead_metrics.push(m as usize);
            }
            ControlFrame::Health(h)
        }
        6 => {
            expect_len(rest.len(), 1)?;
            let reason = ByeReason::from_code(rest.get_u8())
                .ok_or(Error::MalformedWire { reason: "bad bye reason", offset: CONTROL_HEADER })?;
            ControlFrame::Bye { reason }
        }
        7 => {
            if rest.len() < 4 {
                return Err(Error::MalformedWire {
                    reason: "truncated stats payload",
                    offset: CONTROL_HEADER,
                });
            }
            let len = rest.get_u32() as usize;
            if len > MAX_STATS_TEXT {
                return Err(Error::MalformedWire {
                    reason: "oversized stats payload",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), len)?;
            let text = std::str::from_utf8(rest)
                .map_err(|_| Error::MalformedWire {
                    reason: "stats payload not utf-8",
                    offset: CONTROL_HEADER + 4,
                })?
                .to_string();
            ControlFrame::Stats { text }
        }
        9 => {
            if rest.len() < 2 {
                return Err(Error::MalformedWire {
                    reason: "truncated batch payload",
                    offset: CONTROL_HEADER,
                });
            }
            let count = rest.get_u16() as usize;
            if count > MAX_SNAPSHOT_BATCH {
                return Err(Error::MalformedWire {
                    reason: "oversized verdict batch",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), count)?;
            let mut statuses = Vec::with_capacity(count);
            for _ in 0..count {
                let code = rest.get_u8();
                let status = FrameDisposition::from_code(code).ok_or(Error::MalformedWire {
                    reason: "bad disposition code",
                    offset: CONTROL_HEADER,
                })?;
                statuses.push(status);
            }
            ControlFrame::VerdictBatch { statuses }
        }
        10 => {
            if rest.len() < 4 {
                return Err(Error::MalformedWire {
                    reason: "truncated swap payload",
                    offset: CONTROL_HEADER,
                });
            }
            let len = rest.get_u32() as usize;
            if len > MAX_MODEL_JSON {
                return Err(Error::MalformedWire {
                    reason: "oversized swap payload",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), len)?;
            let json = std::str::from_utf8(rest)
                .map_err(|_| Error::MalformedWire {
                    reason: "swap payload not utf-8",
                    offset: CONTROL_HEADER + 4,
                })?
                .to_string();
            ControlFrame::SwapModel { json }
        }
        11 => {
            expect_len(rest.len(), 16)?;
            ControlFrame::SwapAck { old_model: rest.get_u64(), new_model: rest.get_u64() }
        }
        12 => {
            expect_len(rest.len(), 4)?;
            ControlFrame::Busy { retry_after_ms: rest.get_u32() }
        }
        _ => {
            return Err(Error::MalformedWire { reason: "unknown control kind", offset: 6 });
        }
    };
    Ok(frame)
}

fn expect_len(got: usize, want: usize) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(Error::MalformedWire { reason: "control payload length mismatch", offset: got })
    }
}

/// Appends the optional [`TraceContext`] extension after the payload
/// proper. An absent context appends nothing, so untraced frames are
/// byte-identical to the pre-extension encoding.
fn put_trace_ext(out: &mut Vec<u8>, ctx: &Option<TraceContext>) {
    if let Some(ctx) = ctx {
        ctx.encode(out);
    }
}

/// Parses the optional trace extension from the bytes remaining after a
/// frame's fixed payload. Empty tail (an old peer) decodes to `None`;
/// anything else must be one well-formed extension.
fn decode_trace_ext(tail: &[u8]) -> Result<Option<TraceContext>> {
    TraceContext::decode_tail(tail)
        .map_err(|reason| Error::MalformedWire { reason, offset: CONTROL_HEADER })
}

/// A control frame decoded without copying payload bytes out of the
/// input buffer.
///
/// The two frame kinds that dominate a serving session's hot path —
/// [`ControlFrame::Snapshot`] and [`ControlFrame::SnapshotBatch`] — carry
/// raw snapshot datagrams that the session immediately re-parses with
/// [`decode`]. The owning decoder copies every datagram into a fresh
/// `Vec<u8>` first; at hundreds of thousands of frames per second those
/// copies are pure overhead. This borrowed view keeps the datagrams as
/// slices into the caller's read buffer instead, and a batch as a
/// [`BatchItems`] view walked lazily, so decoding a snapshot frame does
/// not allocate. Every other kind is decoded into its owned
/// [`ControlFrame`] form (control-plane frames are rare and tiny, so
/// borrowing buys nothing there).
///
/// There is one decoder: [`decode_control`] is
/// [`decode_control_borrowed`] followed by
/// [`to_owned_frame`](ControlFrameRef::to_owned_frame), so the two accept
/// and reject exactly the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrameRef<'a> {
    /// Kind 2: one snapshot datagram, borrowed from the input buffer.
    Snapshot {
        /// Raw datagram bytes, valid for the life of the input buffer.
        wire: &'a [u8],
        /// Optional distributed-trace context.
        ctx: Option<TraceContext>,
    },
    /// Kind 8: a batch of snapshot datagrams, each borrowed from the
    /// input buffer.
    SnapshotBatch {
        /// Raw datagram byte slices, in arrival order.
        wires: BatchItems<'a>,
        /// Optional distributed-trace context.
        ctx: Option<TraceContext>,
    },
    /// Any other frame kind, decoded exactly as [`decode_control`] would.
    Other(ControlFrame),
}

impl ControlFrameRef<'_> {
    /// Converts the borrowed view into the owning [`ControlFrame`],
    /// copying any borrowed datagram bytes.
    pub fn to_owned_frame(&self) -> ControlFrame {
        match self {
            ControlFrameRef::Snapshot { wire, ctx } => {
                ControlFrame::Snapshot { wire: wire.to_vec(), ctx: *ctx }
            }
            ControlFrameRef::SnapshotBatch { wires, ctx } => ControlFrame::SnapshotBatch {
                wires: wires.iter().map(<[u8]>::to_vec).collect(),
                ctx: *ctx,
            },
            ControlFrameRef::Other(frame) => frame.clone(),
        }
    }
}

/// The datagrams of a borrowed [`ControlFrameRef::SnapshotBatch`]: a view
/// over the frame's item bytes (each a `u16` length, then that many
/// datagram bytes). [`decode_control_borrowed`] validates every item
/// once; iterating walks them again in place and allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BatchItems<'a> {
    bytes: &'a [u8],
    count: usize,
}

impl<'a> BatchItems<'a> {
    /// Number of datagrams in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The datagrams, in arrival order.
    pub fn iter(&self) -> BatchItemsIter<'a> {
        BatchItemsIter { rest: self.bytes, left: self.count }
    }
}

impl std::fmt::Debug for BatchItems<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for BatchItems<'a> {
    type Item = &'a [u8];
    type IntoIter = BatchItemsIter<'a>;

    fn into_iter(self) -> BatchItemsIter<'a> {
        self.iter()
    }
}

/// Iterator over the datagrams of a [`BatchItems`] view.
#[derive(Debug, Clone)]
pub struct BatchItemsIter<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for BatchItemsIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        // The view was validated at decode, so neither `?` ever fires.
        let (len, rest) = self.rest.split_first_chunk::<2>()?;
        let item = rest.get(..usize::from(u16::from_be_bytes(*len)))?;
        self.rest = &rest[item.len()..];
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Reads one item's `u16` length off the front of `rest`, checking that
/// the datagram it announces is no larger than [`WIRE_SIZE`] and fits in
/// what remains. `truncated` names the failure when it does not fit.
fn item_len(rest: &mut &[u8], truncated: &'static str) -> Result<usize> {
    if rest.len() < 2 {
        return Err(Error::MalformedWire { reason: truncated, offset: CONTROL_HEADER });
    }
    let len = rest.get_u16() as usize;
    if len > WIRE_SIZE {
        return Err(Error::MalformedWire {
            reason: "oversized snapshot payload",
            offset: CONTROL_HEADER,
        });
    }
    if rest.len() < len {
        return Err(Error::MalformedWire { reason: truncated, offset: CONTROL_HEADER });
    }
    Ok(len)
}

/// Decodes a control frame without copying snapshot payloads: validates
/// the envelope and checksum once, returns snapshot datagrams as slices
/// borrowing from `data` (a batch as a [`BatchItems`] view), and parses
/// every other kind into its owned form. [`decode_control`] is this plus
/// a copy.
pub fn decode_control_borrowed(data: &[u8]) -> Result<ControlFrameRef<'_>> {
    if data.len() < CONTROL_HEADER + CONTROL_TRAILER {
        return Err(Error::MalformedWire { reason: "truncated control frame", offset: data.len() });
    }
    let (body, trailer) = data.split_at(data.len() - CONTROL_TRAILER);
    let mut rest = body;
    let magic = rest.get_u32();
    if magic != CONTROL_MAGIC {
        return Err(Error::MalformedWire { reason: "bad control magic", offset: 0 });
    }
    let version = rest.get_u16();
    if version != CONTROL_VERSION {
        return Err(Error::MalformedWire { reason: "unsupported control version", offset: 4 });
    }
    let mut check = trailer;
    if check.get_u64() != control_checksum(body) {
        return Err(Error::MalformedWire {
            reason: "control checksum mismatch",
            offset: body.len(),
        });
    }
    let kind = rest.get_u8();
    match kind {
        2 => {
            let len = item_len(&mut rest, "truncated snapshot payload")?;
            let (wire, tail) = rest.split_at(len);
            Ok(ControlFrameRef::Snapshot { wire, ctx: decode_trace_ext(tail)? })
        }
        8 => {
            if rest.len() < 2 {
                return Err(Error::MalformedWire {
                    reason: "truncated batch payload",
                    offset: CONTROL_HEADER,
                });
            }
            let count = rest.get_u16() as usize;
            if count > MAX_SNAPSHOT_BATCH {
                return Err(Error::MalformedWire {
                    reason: "oversized snapshot batch",
                    offset: CONTROL_HEADER,
                });
            }
            let items = rest;
            for _ in 0..count {
                let len = item_len(&mut rest, "truncated batch item")?;
                rest = &rest[len..];
            }
            let bytes = &items[..items.len() - rest.len()];
            let wires = BatchItems { bytes, count };
            Ok(ControlFrameRef::SnapshotBatch { wires, ctx: decode_trace_ext(rest)? })
        }
        _ => decode_other(kind, rest).map(ControlFrameRef::Other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricId;
    use bytes::BytesMut;

    fn snapshot() -> Snapshot {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, 42.25);
        f.set(MetricId::SwapOut, 1234.5);
        Snapshot::new(NodeId(7), 12345, f)
    }

    #[test]
    fn roundtrip() {
        let s = snapshot();
        let wire = encode(&s);
        assert_eq!(wire.len(), WIRE_SIZE);
        let back = decode(&wire).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_rejected() {
        let wire = encode(&snapshot());
        for cut in [0, 1, 10, WIRE_SIZE - 1] {
            let err = decode(&wire[..cut]).unwrap_err();
            assert!(matches!(err, Error::MalformedWire { .. }), "cut={cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = encode(&snapshot()).to_vec();
        wire[0] ^= 0xFF;
        assert!(matches!(decode(&wire), Err(Error::MalformedWire { reason: "bad magic", .. })));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = encode(&snapshot()).to_vec();
        wire[5] = 99;
        assert!(matches!(
            decode(&wire),
            Err(Error::MalformedWire { reason: "unsupported version", .. })
        ));
    }

    #[test]
    fn corrupted_payload_nan_rejected() {
        let mut wire = encode(&snapshot()).to_vec();
        // Overwrite the first metric value with a NaN bit pattern.
        let nan = f64::NAN.to_be_bytes();
        wire[20..28].copy_from_slice(&nan);
        assert!(matches!(
            decode(&wire),
            Err(Error::MalformedWire { reason: "non-finite metric value", .. })
        ));
    }

    #[test]
    fn values_survive_exactly() {
        // Bit-exact round trip for awkward doubles.
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::BytesIn, f64::MIN_POSITIVE);
        f.set(MetricId::BytesOut, 1.0e308);
        f.set(MetricId::LoadOne, -0.0);
        let s = Snapshot::new(NodeId(u32::MAX), u64::MAX, f);
        let back = decode(&encode(&s)).unwrap();
        assert_eq!(back.node, NodeId(u32::MAX));
        assert_eq!(back.time, u64::MAX);
        assert_eq!(back.frame.get(MetricId::BytesOut), 1.0e308);
        assert!(back.frame.get(MetricId::LoadOne).to_bits() == (-0.0f64).to_bits());
    }

    // --- Control frames ---------------------------------------------------

    fn control_samples() -> Vec<ControlFrame> {
        let health = TelemetryHealth {
            seen: 120,
            accepted: 100,
            repaired: 10,
            dropped: 10,
            dead_metrics: vec![3, 17],
            max_repair_streak: 4,
            ..TelemetryHealth::default()
        };
        let traced = TraceContext { trace_id: 0xAB54_A98C_EB1F_0AD2, parent_span: 7, flags: 1 };
        vec![
            ControlFrame::Hello { session: 7, model_id: 0xDEAD_BEEF },
            ControlFrame::Snapshot { wire: encode(&snapshot()).to_vec(), ctx: None },
            ControlFrame::Snapshot { wire: Vec::new(), ctx: None },
            ControlFrame::Snapshot { wire: encode(&snapshot()).to_vec(), ctx: Some(traced) },
            ControlFrame::Classify { ctx: None },
            ControlFrame::Classify { ctx: Some(traced) },
            ControlFrame::Classify {
                ctx: Some(TraceContext { trace_id: u64::MAX, parent_span: 0, flags: 0 }),
            },
            ControlFrame::Verdict {
                class: 2,
                confidence: 0.875,
                composition: [0.0, 0.125, 0.875, 0.0, 0.0],
                model: 0x1234_5678_9ABC_DEF0,
                ctx: None,
            },
            ControlFrame::Verdict {
                class: 2,
                confidence: 0.875,
                composition: [0.0, 0.125, 0.875, 0.0, 0.0],
                model: 0x1234_5678_9ABC_DEF0,
                ctx: Some(traced),
            },
            ControlFrame::Health(health),
            ControlFrame::Stats { text: String::new() },
            ControlFrame::Stats {
                text: "classify_total 3\nlatency{quantile=\"0.5\"} 1023 µs\n".to_string(),
            },
            ControlFrame::Bye { reason: ByeReason::FrameBudget },
            ControlFrame::SnapshotBatch { wires: Vec::new(), ctx: None },
            ControlFrame::SnapshotBatch {
                wires: vec![
                    encode(&snapshot()).to_vec(),
                    Vec::new(),
                    encode(&snapshot())[..40].to_vec(),
                ],
                ctx: None,
            },
            ControlFrame::SnapshotBatch {
                wires: vec![encode(&snapshot()).to_vec()],
                ctx: Some(traced),
            },
            ControlFrame::VerdictBatch { statuses: Vec::new() },
            ControlFrame::VerdictBatch {
                statuses: vec![
                    FrameDisposition::Accepted,
                    FrameDisposition::Repaired,
                    FrameDisposition::Dropped,
                    FrameDisposition::Malformed,
                    FrameDisposition::Expired,
                ],
            },
            ControlFrame::SwapModel { json: String::new() },
            ControlFrame::SwapModel { json: "{\"preprocessor\":{},\"knn\":{}}".to_string() },
            ControlFrame::SwapAck { old_model: 0xDEAD_BEEF, new_model: 0xFEED_FACE },
            ControlFrame::Busy { retry_after_ms: 0 },
            ControlFrame::Busy { retry_after_ms: 250 },
            ControlFrame::Busy { retry_after_ms: u32::MAX },
        ]
    }

    #[test]
    fn control_roundtrip_every_kind() {
        for frame in control_samples() {
            let bytes = encode_control(&frame);
            assert!(bytes.len() <= MAX_CONTROL_SIZE, "{} too big", frame.name());
            let back = decode_control(&bytes).unwrap_or_else(|e| panic!("{}: {e}", frame.name()));
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn borrowed_decode_matches_owning_decode_every_kind() {
        for frame in control_samples() {
            let bytes = encode_control(&frame);
            let borrowed =
                decode_control_borrowed(&bytes).unwrap_or_else(|e| panic!("{}: {e}", frame.name()));
            assert_eq!(borrowed.to_owned_frame(), frame);
        }
    }

    #[test]
    fn borrowed_decode_rejects_exactly_what_owning_decode_rejects() {
        for frame in control_samples() {
            let bytes = encode_control(&frame).to_vec();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                assert_eq!(
                    decode_control(&bad).is_err(),
                    decode_control_borrowed(&bad).is_err(),
                    "{} flip at {i}: decoders must agree",
                    frame.name()
                );
            }
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_control(&bytes[..cut]).is_err(),
                    decode_control_borrowed(&bytes[..cut]).is_err(),
                    "{} cut at {cut}: decoders must agree",
                    frame.name()
                );
            }
        }
    }

    #[test]
    fn encode_into_appends_a_length_prefixed_encode_control() {
        let mut out = vec![0xEE];
        for frame in control_samples() {
            let start = out.len();
            encode_control_into(&frame, &mut out);
            let bytes = encode_control(&frame);
            assert_eq!(out[start..start + 4], (bytes.len() as u32).to_be_bytes());
            assert_eq!(&out[start + 4..], &bytes[..], "{}", frame.name());
        }
        assert_eq!(out[0], 0xEE, "earlier bytes are left alone");
    }

    #[test]
    fn batch_encoder_writes_the_owned_frames_bytes() {
        let traced = Some(TraceContext { trace_id: 77, parent_span: 5, flags: 1 });
        let full = encode(&snapshot()).to_vec();
        let batches: [(Vec<Vec<u8>>, Option<TraceContext>); 4] = [
            (Vec::new(), None),
            (vec![full.clone()], traced),
            (vec![full.clone(), Vec::new(), full[..40].to_vec()], None),
            (vec![full; MAX_SNAPSHOT_BATCH], traced),
        ];
        let mut enc = BatchEncoder::new();
        for (wires, ctx) in batches {
            for w in &wires {
                enc.push(w);
            }
            assert_eq!(enc.len(), wires.len());
            let mut want = Vec::new();
            encode_control_into(&ControlFrame::SnapshotBatch { wires, ctx }, &mut want);
            assert_eq!(enc.finish(ctx), &want[..]);
            assert!(enc.is_empty(), "finish starts the next batch");
        }
    }

    #[test]
    #[should_panic(expected = "MAX_SNAPSHOT_BATCH")]
    fn batch_encoder_refuses_an_item_past_the_bound() {
        let mut enc = BatchEncoder::new();
        for _ in 0..=MAX_SNAPSHOT_BATCH {
            enc.push(&[]);
        }
    }

    #[test]
    fn borrowed_batch_items_walk_the_datagrams_in_order() {
        let wires = vec![encode(&snapshot()).to_vec(), Vec::new(), vec![1, 2, 3]];
        let frame = ControlFrame::SnapshotBatch { wires: wires.clone(), ctx: None };
        let bytes = encode_control(&frame);
        let ControlFrameRef::SnapshotBatch { wires: items, .. } =
            decode_control_borrowed(&bytes).unwrap()
        else {
            panic!("a batch must decode as one");
        };
        assert_eq!(items.len(), 3);
        let walked: Vec<&[u8]> = items.into_iter().collect();
        let want: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
        assert_eq!(walked, want);
        assert_eq!(format!("{items:?}"), format!("{want:?}"));
    }

    #[test]
    fn borrowed_snapshot_payload_points_into_input() {
        let wire = encode(&snapshot());
        let frame = ControlFrame::Snapshot { wire: wire.to_vec(), ctx: None };
        let bytes = encode_control(&frame);
        match decode_control_borrowed(&bytes).unwrap() {
            ControlFrameRef::Snapshot { wire: borrowed, ctx: None } => {
                assert_eq!(borrowed, &wire[..]);
                // The slice must alias the input buffer, not a copy.
                let input = bytes.as_ptr() as usize;
                let got = borrowed.as_ptr() as usize;
                assert!(got >= input && got < input + bytes.len());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn control_any_single_flip_is_detected() {
        for frame in control_samples() {
            let bytes = encode_control(&frame).to_vec();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                let err = decode_control(&bad)
                    .expect_err(&format!("{} flip at {i} must not decode", frame.name()));
                assert!(matches!(err, Error::MalformedWire { .. }), "{err}");
            }
        }
    }

    #[test]
    fn control_truncation_is_detected() {
        let bytes = encode_control(&ControlFrame::Hello { session: 1, model_id: 2 });
        for cut in 0..bytes.len() {
            assert!(decode_control(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn control_rejects_semantic_garbage() {
        // A well-checksummed frame with a bad class code must still fail.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(4); // Verdict
        buf.put_u8(9); // class out of range
        buf.put_f64(1.0);
        for _ in 0..5 {
            buf.put_f64(0.2);
        }
        buf.put_u64(1); // model tag
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "bad verdict class code", .. })
        ));
    }

    #[test]
    fn stats_frame_rejects_bad_utf8() {
        // A well-checksummed Stats frame whose payload is not UTF-8.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(7); // Stats
        buf.put_u32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "stats payload not utf-8", .. })
        ));
    }

    #[test]
    fn stats_frame_rejects_oversized_declared_length() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(7);
        buf.put_u32((MAX_STATS_TEXT + 1) as u32);
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "oversized stats payload", .. })
        ));
    }

    #[test]
    fn stats_frame_at_max_size_roundtrips() {
        let frame = ControlFrame::Stats { text: "x".repeat(MAX_STATS_TEXT) };
        let bytes = encode_control(&frame);
        assert!(bytes.len() <= MAX_CONTROL_SIZE);
        assert_eq!(decode_control(&bytes).unwrap(), frame);
    }

    #[test]
    #[should_panic(expected = "MAX_STATS_TEXT")]
    fn stats_frame_over_max_panics_on_encode() {
        encode_control(&ControlFrame::Stats { text: "x".repeat(MAX_STATS_TEXT + 1) });
    }

    #[test]
    fn full_snapshot_batch_roundtrips_within_bounds() {
        let wires = vec![encode(&snapshot()).to_vec(); MAX_SNAPSHOT_BATCH];
        let frame = ControlFrame::SnapshotBatch {
            wires,
            ctx: Some(TraceContext { trace_id: 1, parent_span: 2, flags: 1 }),
        };
        let bytes = encode_control(&frame);
        assert!(bytes.len() <= MAX_CONTROL_SIZE, "full batch exceeds transport bound");
        assert_eq!(decode_control(&bytes).unwrap(), frame);
    }

    #[test]
    #[should_panic(expected = "MAX_SNAPSHOT_BATCH")]
    fn oversized_snapshot_batch_panics_on_encode() {
        encode_control(&ControlFrame::SnapshotBatch {
            wires: vec![Vec::new(); MAX_SNAPSHOT_BATCH + 1],
            ctx: None,
        });
    }

    #[test]
    fn traced_and_untraced_classify_differ_only_by_extension() {
        // An untraced frame is byte-identical to the pre-extension
        // encoding, so old peers keep decoding it; a traced one just
        // appends the extension before the trailer.
        let plain = encode_control(&ControlFrame::Classify { ctx: None });
        let traced = encode_control(&ControlFrame::Classify {
            ctx: Some(TraceContext { trace_id: 9, parent_span: 3, flags: 1 }),
        });
        assert_eq!(traced.len(), plain.len() + TRACE_EXT_LEN);
        assert_eq!(
            &traced[..plain.len() - CONTROL_TRAILER],
            &plain[..plain.len() - CONTROL_TRAILER]
        );
    }

    #[test]
    fn trace_extension_with_zero_trace_id_is_rejected() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(3); // Classify
        let mut ext = Vec::new();
        TraceContext { trace_id: 7, parent_span: 0, flags: 0 }.encode(&mut ext);
        ext[1..9].copy_from_slice(&0u64.to_le_bytes()); // forge trace_id = 0
        buf.put_slice(&ext);
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "trace extension zero trace id", .. })
        ));
    }

    #[test]
    fn snapshot_batch_rejects_lying_counts() {
        // Well-checksummed frames whose declared counts/lengths disagree
        // with the actual payload must fail shape validation.
        let seal = |mut buf: BytesMut| {
            let checksum = control_checksum(&buf);
            buf.put_u64(checksum);
            buf.freeze()
        };
        // Declares 2 items, carries 1.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(8);
        buf.put_u16(2);
        buf.put_u16(0);
        assert!(matches!(
            decode_control(&seal(buf)),
            Err(Error::MalformedWire { reason: "truncated batch item", .. })
        ));
        // Declares an item longer than the frame holds.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(8);
        buf.put_u16(1);
        buf.put_u16(50);
        buf.put_slice(&[0xAB; 10]);
        assert!(matches!(
            decode_control(&seal(buf)),
            Err(Error::MalformedWire { reason: "truncated batch item", .. })
        ));
        // Declares more batch items than the protocol allows.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(8);
        buf.put_u16((MAX_SNAPSHOT_BATCH + 1) as u16);
        assert!(matches!(
            decode_control(&seal(buf)),
            Err(Error::MalformedWire { reason: "oversized snapshot batch", .. })
        ));
        // Trailing garbage after the declared items: too short to be a
        // trace extension, so the extension parser rejects it.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(8);
        buf.put_u16(0);
        buf.put_u8(0xCC);
        assert!(matches!(
            decode_control(&seal(buf)),
            Err(Error::MalformedWire { reason: "trace extension length mismatch", .. })
        ));
    }

    #[test]
    fn swap_frame_rejects_oversized_declared_length() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(10); // SwapModel
        buf.put_u32((MAX_MODEL_JSON + 1) as u32);
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "oversized swap payload", .. })
        ));
    }

    #[test]
    fn swap_frame_rejects_bad_utf8() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(10); // SwapModel
        buf.put_u32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "swap payload not utf-8", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "MAX_MODEL_JSON")]
    fn swap_frame_over_max_panics_on_encode() {
        encode_control(&ControlFrame::SwapModel { json: "x".repeat(MAX_MODEL_JSON + 1) });
    }

    #[test]
    fn verdict_batch_rejects_bad_disposition() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(9);
        buf.put_u16(2);
        buf.put_u8(1);
        buf.put_u8(7); // no such disposition
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "bad disposition code", .. })
        ));
    }

    #[test]
    fn disposition_codes_roundtrip() {
        for d in [
            FrameDisposition::Accepted,
            FrameDisposition::Repaired,
            FrameDisposition::Dropped,
            FrameDisposition::Malformed,
            FrameDisposition::Expired,
        ] {
            assert_eq!(FrameDisposition::from_code(d.code()), Some(d));
        }
        assert_eq!(FrameDisposition::from_code(5), None);
    }

    #[test]
    fn busy_frame_truncation_at_every_byte_is_detected() {
        let bytes = encode_control(&ControlFrame::Busy { retry_after_ms: 1500 });
        for cut in 0..bytes.len() {
            assert!(decode_control(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn busy_frame_rejects_padded_payload() {
        // A well-checksummed Busy whose payload is longer than the u32
        // hint must fail shape validation, not decode loosely.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(CONTROL_MAGIC);
        buf.put_u16(CONTROL_VERSION);
        buf.put_u8(12); // Busy
        buf.put_u32(100);
        buf.put_u8(0); // trailing garbage
        let checksum = control_checksum(&buf);
        buf.put_u64(checksum);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "control payload length mismatch", .. })
        ));
    }

    #[test]
    fn control_bye_reason_codes_roundtrip() {
        for reason in [
            ByeReason::Normal,
            ByeReason::Shutdown,
            ByeReason::SessionLimit,
            ByeReason::FrameBudget,
            ByeReason::Protocol,
            ByeReason::ModelMismatch,
        ] {
            assert_eq!(ByeReason::from_code(reason.code()), Some(reason));
            assert!(!reason.to_string().is_empty());
        }
        assert_eq!(ByeReason::from_code(99), None);
    }

    #[test]
    fn fnv_changes_on_any_flip() {
        let data = b"appclass control frame";
        let base = fnv1a64(data);
        for i in 0..data.len() {
            let mut d = data.to_vec();
            d[i] ^= 1;
            assert_ne!(fnv1a64(&d), base, "flip at {i}");
        }
    }
}
