//! Cross-process trace propagation and assembly.
//!
//! A span [`Tracer`] is strictly per-process: ids restart
//! at 1, times count from a process-local epoch, and nothing connects a
//! client's `client_classify` span to the server's `classify` span that
//! served it. This module closes that gap with three small pieces:
//!
//! * [`TraceContext`] — the compact context (trace id, parent span id,
//!   flags) a client stamps onto outgoing frames. It rides the control
//!   wire as an optional fixed-size extension appended to the payload
//!   *before* the checksum trailer, so it is covered by the existing
//!   checksum and old peers that never send it decode exactly as
//!   before ([`TraceContext::decode_tail`] treats an empty tail as "no
//!   context").
//! * [`SpanDump`] — one process's spans for one trace, exported with
//!   the tracer's wall-clock epoch and the remote parent span (from the
//!   propagated context) so another process can graft them into place.
//! * [`TraceAssembler`] — merges dumps from several processes into one
//!   tree, resolving cross-process parent links and converting each
//!   process's tracer-relative times to a shared wall-clock timeline,
//!   then renders it as JSONL (one span per line, depth-annotated).

use crate::flight::write_json_string;
use crate::span::{Span, Tracer};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Tag byte opening the trace-context wire extension.
const EXT_TAG: u8 = 0x54; // 'T'

/// Encoded size of the extension: tag + trace id + parent span + flags.
pub const TRACE_EXT_LEN: usize = 1 + 8 + 8 + 1;

/// Flag bit: the trace is sampled (always set by current emitters; the
/// field exists so future peers can propagate head-sampling decisions).
pub const TRACE_FLAG_SAMPLED: u8 = 0x01;

/// Compact distributed trace context carried on control frames.
///
/// `trace_id` is nonzero by construction — zero is the wire-level
/// sentinel for "absent" and [`TraceContext::decode_tail`] rejects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Fleet-unique id shared by every span of one logical request flow.
    pub trace_id: u64,
    /// Id of the sender's span that was open when the frame was sent
    /// (0 when the sender had no open span); the receiver's spans for
    /// this frame logically parent under it during assembly.
    pub parent_span: u64,
    /// Propagation flags ([`TRACE_FLAG_SAMPLED`] et al).
    pub flags: u8,
}

impl TraceContext {
    /// A fresh context for a new trace with no parent span yet.
    pub fn new(trace_id: u64) -> Self {
        TraceContext { trace_id, parent_span: 0, flags: TRACE_FLAG_SAMPLED }
    }

    /// The same context re-parented under `span_id`.
    pub fn with_parent(self, span_id: u64) -> Self {
        TraceContext { parent_span: span_id, ..self }
    }

    /// Appends the fixed-size wire extension to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(EXT_TAG);
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.parent_span.to_le_bytes());
        out.push(self.flags);
    }

    /// Parses the optional extension from a payload tail. An empty tail
    /// is a frame from a peer that does not speak the extension —
    /// `Ok(None)`, by design indistinguishable from "tracing off".
    /// Anything else must be exactly one well-formed extension; a bad
    /// tag, a zero trace id, or a length mismatch is a typed error (the
    /// `&'static str` names the defect for the caller's error type).
    pub fn decode_tail(tail: &[u8]) -> Result<Option<TraceContext>, &'static str> {
        if tail.is_empty() {
            return Ok(None);
        }
        if tail.len() != TRACE_EXT_LEN {
            return Err("trace extension length mismatch");
        }
        if tail[0] != EXT_TAG {
            return Err("trace extension bad tag");
        }
        let trace_id = u64::from_le_bytes(tail[1..9].try_into().expect("8 bytes"));
        let parent_span = u64::from_le_bytes(tail[9..17].try_into().expect("8 bytes"));
        let flags = tail[17];
        if trace_id == 0 {
            return Err("trace extension zero trace id");
        }
        Ok(Some(TraceContext { trace_id, parent_span, flags }))
    }
}

static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Generates a fresh, nonzero, fleet-unlikely-to-collide trace id by
/// mixing wall-clock nanoseconds, the process id, and a process-local
/// sequence through a splitmix64 finalizer. Not cryptographic — just
/// spread widely enough that concurrent clients don't collide.
pub fn fresh_trace_id() -> u64 {
    let wall = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15);
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut z =
        wall ^ (u64::from(std::process::id()) << 32) ^ seq.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    // splitmix64 finalizer
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// One process's contribution to a trace: its spans for that trace id,
/// plus the wall-clock epoch needed to place them on a shared timeline
/// and the remote parent span (from the propagated [`TraceContext`])
/// its roots graft under.
#[derive(Debug, Clone)]
pub struct SpanDump {
    /// Human label for the process ("client", "server", a hostname…).
    pub process: String,
    /// The dumping tracer's epoch in ns since `UNIX_EPOCH`.
    pub epoch_unix_ns: u64,
    /// Span id *in another process* under which this dump's root spans
    /// attach — the `parent_span` the process received in its
    /// [`TraceContext`]. `None` for the trace-originating process.
    pub remote_parent: Option<u64>,
    /// Spans belonging to the trace, oldest first.
    pub spans: Vec<Span>,
}

impl SpanDump {
    /// Collects up to `max` recent spans tagged with `trace_id` from a
    /// tracer into a dump.
    pub fn from_tracer(
        process: &str,
        tracer: &Tracer,
        trace_id: u64,
        remote_parent: Option<u64>,
        max: usize,
    ) -> Self {
        let spans = tracer.recent(max).into_iter().filter(|s| s.trace == Some(trace_id)).collect();
        SpanDump {
            process: process.to_string(),
            epoch_unix_ns: tracer.epoch_unix_ns(),
            remote_parent,
            spans,
        }
    }
}

/// One span placed in the assembled cross-process tree.
#[derive(Debug, Clone)]
pub struct AssembledSpan {
    /// Label of the process that recorded the span.
    pub process: String,
    /// The span's id in its own process (unique only per process).
    pub id: u64,
    /// Parent span id, if any — within the same process for local
    /// children, in *another* process for grafted roots.
    pub parent: Option<u64>,
    /// Registered span name.
    pub name: &'static str,
    /// Tree depth: 0 for the trace root(s).
    pub depth: usize,
    /// Start on the shared wall-clock timeline, ns since `UNIX_EPOCH`.
    pub wall_start_ns: u64,
    /// End on the shared wall-clock timeline, ns since `UNIX_EPOCH`.
    pub wall_end_ns: u64,
}

/// Merges [`SpanDump`]s from several processes into one trace tree.
#[derive(Debug, Default)]
pub struct TraceAssembler {
    dumps: Vec<SpanDump>,
}

impl TraceAssembler {
    /// An assembler with no dumps yet.
    pub fn new() -> Self {
        TraceAssembler::default()
    }

    /// Adds one process's dump.
    pub fn add_dump(&mut self, dump: SpanDump) {
        self.dumps.push(dump);
    }

    /// Assembles the tree: local parent links stay as recorded, a
    /// dump's parentless spans graft under its `remote_parent` span in
    /// whichever other dump recorded it, and everything is emitted in
    /// depth-first order (siblings ordered by wall-clock start). Spans
    /// whose parent was overwritten in the ring surface as extra roots
    /// rather than being dropped.
    pub fn assemble(&self) -> Vec<AssembledSpan> {
        // Flatten to nodes keyed by (dump index, span id) — span ids are
        // only unique per process.
        struct Node<'a> {
            dump: usize,
            span: &'a Span,
            children: Vec<usize>,
            // The resolved parent id to report: local parent, or the
            // remote span a grafted root attaches under.
            parent_id: Option<u64>,
        }
        let mut nodes: Vec<Node<'_>> = Vec::new();
        for (di, dump) in self.dumps.iter().enumerate() {
            for span in &dump.spans {
                nodes.push(Node { dump: di, span, children: Vec::new(), parent_id: None });
            }
        }
        let find = |dump: usize, id: u64, nodes: &[Node<'_>]| -> Option<usize> {
            nodes.iter().position(|n| n.dump == dump && n.span.id == id)
        };
        // Link local children, then graft cross-process roots.
        let mut roots: Vec<usize> = Vec::new();
        for i in 0..nodes.len() {
            let (di, span) = (nodes[i].dump, nodes[i].span);
            let local_parent = span.parent.and_then(|p| find(di, p, &nodes));
            let parent = local_parent.or_else(|| {
                let remote = self.dumps[di].remote_parent?;
                // The grafting parent lives in some *other* dump.
                nodes.iter().position(|n| n.dump != di && n.span.id == remote)
            });
            match parent {
                Some(p) => {
                    nodes[i].parent_id = Some(nodes[p].span.id);
                    nodes[p].children.push(i);
                }
                None => roots.push(i),
            }
        }
        let wall = |ni: usize, nodes: &[Node<'_>], t: u64| -> u64 {
            self.dumps[nodes[ni].dump].epoch_unix_ns.saturating_add(t)
        };
        let by_start = |a: &usize, b: &usize, nodes: &[Node<'_>]| {
            wall(*a, nodes, nodes[*a].span.start_ns).cmp(&wall(*b, nodes, nodes[*b].span.start_ns))
        };
        roots.sort_by(|a, b| by_start(a, b, &nodes));
        for i in 0..nodes.len() {
            let mut kids = std::mem::take(&mut nodes[i].children);
            kids.sort_by(|a, b| by_start(a, b, &nodes));
            nodes[i].children = kids;
        }
        // Iterative DFS, emitting depth as we descend.
        let mut out = Vec::with_capacity(nodes.len());
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((ni, depth)) = stack.pop() {
            let node = &nodes[ni];
            let dump = &self.dumps[node.dump];
            out.push(AssembledSpan {
                process: dump.process.clone(),
                id: node.span.id,
                parent: node.parent_id,
                name: node.span.name,
                depth,
                wall_start_ns: dump.epoch_unix_ns.saturating_add(node.span.start_ns),
                wall_end_ns: dump.epoch_unix_ns.saturating_add(node.span.end_ns),
            });
            for &child in node.children.iter().rev() {
                stack.push((child, depth + 1));
            }
        }
        out
    }

    /// Renders the assembled tree as JSONL, one span object per line in
    /// depth-first order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.assemble() {
            out.push_str("{\"process\":");
            write_json_string(&mut out, &span.process);
            let _ = write!(out, ",\"id\":{},\"parent\":", span.id);
            match span.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            write_json_string(&mut out, span.name);
            let _ = write!(
                out,
                ",\"depth\":{},\"wall_start_ns\":{},\"wall_end_ns\":{}}}",
                span.depth, span.wall_start_ns, span.wall_end_ns
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceScope;

    #[test]
    fn context_roundtrips_through_the_extension() {
        let ctx = TraceContext::new(0xDEAD_BEEF).with_parent(42);
        let mut buf = Vec::new();
        ctx.encode(&mut buf);
        assert_eq!(buf.len(), TRACE_EXT_LEN);
        assert_eq!(TraceContext::decode_tail(&buf), Ok(Some(ctx)));
    }

    #[test]
    fn empty_tail_is_an_absent_context() {
        assert_eq!(TraceContext::decode_tail(&[]), Ok(None));
    }

    #[test]
    fn malformed_tails_are_typed_errors() {
        let ctx = TraceContext::new(77);
        let mut buf = Vec::new();
        ctx.encode(&mut buf);
        assert!(TraceContext::decode_tail(&buf[..buf.len() - 1]).is_err(), "truncated");
        let mut bad_tag = buf.clone();
        bad_tag[0] ^= 0xFF;
        assert!(TraceContext::decode_tail(&bad_tag).is_err(), "bad tag");
        let mut zero_id = buf.clone();
        zero_id[1..9].fill(0);
        assert!(TraceContext::decode_tail(&zero_id).is_err(), "zero trace id");
        let mut long = buf.clone();
        long.push(0);
        assert!(TraceContext::decode_tail(&long).is_err(), "trailing garbage");
    }

    #[test]
    fn fresh_trace_ids_are_nonzero_and_distinct() {
        let a = fresh_trace_id();
        let b = fresh_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    /// Two tracers stand in for two processes: the "client" opens a
    /// send span and ships its id; the "server" records classify/stage
    /// spans under its own ids. Assembly grafts the server tree under
    /// the client's span and flattens everything onto one timeline.
    #[test]
    fn assembles_a_two_process_trace_into_one_tree() {
        let trace = fresh_trace_id();

        let client = Tracer::new(32);
        let send = client.register("client_send");
        let client_span_id;
        {
            let _scope = TraceScope::enter(Some(trace));
            let guard = client.span(send);
            client_span_id = guard.id();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        let server = Tracer::new(32);
        let classify = server.register("classify");
        let stage = server.register("stage");
        {
            let _scope = TraceScope::enter(Some(trace));
            let outer = server.span(classify);
            let _ = outer.id();
            drop(server.span(stage));
        }
        // An unrelated span on the server must not leak into the trace.
        drop(server.span(stage));

        let mut asm = TraceAssembler::new();
        asm.add_dump(SpanDump::from_tracer("client", &client, trace, None, 64));
        asm.add_dump(SpanDump::from_tracer("server", &server, trace, Some(client_span_id), 64));
        let spans = asm.assemble();
        assert_eq!(spans.len(), 3, "client_send + classify + stage, nothing else");
        assert_eq!(spans[0].name, "client_send");
        assert_eq!(spans[0].depth, 0);
        let classify_span = spans.iter().find(|s| s.name == "classify").unwrap();
        assert_eq!(classify_span.process, "server");
        assert_eq!(classify_span.depth, 1, "server root grafts under the client span");
        assert_eq!(classify_span.parent, Some(client_span_id));
        let stage_span = spans.iter().find(|s| s.name == "stage").unwrap();
        assert_eq!(stage_span.depth, 2, "stage nests under classify");

        let jsonl = asm.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("process").is_some());
            assert!(v.get("wall_start_ns").is_some());
        }
    }
}
