//! Integration tests of the server's shard fabric: session isolation
//! and exact accounting under heavy concurrency, exact refusal counts
//! through a shedding shutdown, and hot swap across shards.

mod common;

use appclass::metrics::wire::{self, CONTROL_MAGIC};
use appclass::metrics::{ByeReason, ControlFrame, Error, FaultPlan, NodeId, Snapshot};
use appclass::prelude::AppClass;
use appclass::serve::proto::read_frame;
use appclass::serve::{ClientConfig, ServeClient, ServeError, Server, ServerConfig};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::{training_specs, WorkloadSpec};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn snapshots_of(spec: &WorkloadSpec, node: u32, seed: u64) -> Vec<Snapshot> {
    let rec = run_spec(spec, NodeId(node), seed);
    rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect()
}

/// The tentpole scale test: ≥200 concurrent sessions spread across the
/// shards, every session a real TCP client on its own thread. Sessions
/// come in twin groups replaying the *same* snapshot stream — any
/// cross-session state leak inside a shard (shared classifier, mixed-up
/// read buffers) would break the bit-identical-verdict and exact-health
/// invariants. The final merged stats must account for every session
/// and every frame exactly.
#[test]
fn two_hundred_concurrent_sessions_across_shards_stay_isolated() {
    const GROUPS: usize = 10;
    const TWINS: usize = 20; // sessions per group
    const SESSIONS: usize = GROUPS * TWINS; // 200
    const FRAMES: usize = 40; // per session

    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig {
        max_sessions: SESSIONS + 8, // depth stays 0: no shedding here
        backlog: 16,
        shards: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();
    let model = server.model_id();

    // Ten distinct streams (5 workloads × 2 node/seed variants), each
    // replayed by 20 twin sessions.
    let specs = training_specs();
    let streams: Vec<Arc<Vec<Snapshot>>> = (0..GROUPS)
        .map(|g| {
            let spec = &specs[g % specs.len()];
            let mut snaps = snapshots_of(spec, 70 + g as u32, 4000 + g as u64);
            snaps.truncate(FRAMES);
            assert!(snaps.len() >= 10, "stream {g} too short to exercise the classifier");
            Arc::new(snaps)
        })
        .collect();

    let mut handles = Vec::with_capacity(SESSIONS);
    for slot in 0..SESSIONS {
        let snaps = Arc::clone(&streams[slot % GROUPS]);
        handles.push(std::thread::spawn(move || {
            let mut client =
                ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
                    .unwrap();
            client.stream_snapshots(&snaps).unwrap();
            let verdict = client.classify().unwrap();
            let health = client.health().unwrap();
            assert_eq!(client.bye().unwrap(), appclass::metrics::ByeReason::Normal);
            // Exact per-session accounting: every frame this session
            // sent — and only those — passed its guard.
            assert_eq!(
                health.accepted,
                snaps.len() as u64,
                "session {slot}: cross-session frame leakage or loss"
            );
            assert_eq!(verdict.model, model, "session {slot} got a foreign model tag");
            (slot, verdict, health)
        }));
    }
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|(slot, ..)| *slot);

    // Twins (same stream) must read back bit-identical verdicts no
    // matter which shard served them.
    for g in 0..GROUPS {
        let (_, first, _) = &results[g];
        for t in 1..TWINS {
            let (slot, v, _) = &results[t * GROUPS + g];
            assert_eq!(v.class, first.class, "twin {slot} diverged in class");
            assert_eq!(
                v.confidence.to_bits(),
                first.confidence.to_bits(),
                "twin {slot} diverged in confidence bits"
            );
            for class in AppClass::ALL {
                assert_eq!(
                    v.composition.fraction(class).to_bits(),
                    first.composition.fraction(class).to_bits(),
                    "twin {slot} diverged in composition"
                );
            }
        }
    }

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_started, SESSIONS as u64);
    assert_eq!(stats.sessions_finished, SESSIONS as u64);
    assert_eq!(stats.session_errors, 0);
    assert_eq!(stats.sessions_rejected, 0);
    assert_eq!(stats.sessions_busy, 0);
    assert_eq!(stats.verdicts, SESSIONS as u64);
    let total_frames: u64 = streams.iter().map(|s| s.len() as u64 * TWINS as u64).sum();
    assert_eq!(stats.frames_in, total_frames, "merged frame count must be exact");
    assert_eq!(
        stats.health.seen,
        results.iter().map(|(_, _, h)| h.seen).sum::<u64>(),
        "merged health must be the sum of per-session reports"
    );
}

/// Admissions, shedding and shutdown drain all resolve to exact counts.
/// Shutting down a server that is actively shedding must not perturb
/// the busy/refusal counters: the acceptor observes the shutdown flag
/// from `poll(2)`, so no self-connect wake-up is ever counted.
#[test]
fn shard_server_sheds_and_drains_with_exact_counts() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig {
        max_sessions: 1,
        backlog: 32,
        shed_low_watermark: 1,
        shed_high_watermark: 2,
        shards: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    // Shards serve every admitted connection concurrently, so held
    // sessions complete their handshakes while still holding admission
    // slots. Admissions are
    // serialized by the acceptor: held0 (depth 0), held1 (depth 0),
    // held2 (depth 1), then shedding at depth 2.
    let held: Vec<ServeClient> = (0..3)
        .map(|i| {
            ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
                .unwrap_or_else(|e| panic!("held session {i} must be admitted: {e}"))
        })
        .collect();

    // Every further attempt is soft-refused: nothing drains while the
    // held sessions stay open.
    for probe in 0..5 {
        match ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None }) {
            Err(ServeError::Busy { .. }) => {}
            other => panic!("probe {probe} expected Busy, got {other:?}"),
        }
    }

    server.shutdown();
    drop(held);
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_busy, 5, "exactly the five probes were soft-refused");
    assert_eq!(stats.sessions_started, 3);
    assert_eq!(stats.sessions_finished, 3, "held sessions drain as clean shutdowns");
    assert_eq!(stats.sessions_rejected, 0);
    assert_eq!(stats.session_errors, 0);
}

/// Hot model swap through a sharded session: the SwapAck carries both
/// fingerprints, later verdicts wear the new tag, and a concurrent
/// session on another connection drains onto the new model too.
#[test]
fn shard_sessions_survive_a_hot_swap() {
    let pipeline = Arc::new(common::trained_pipeline());
    let retrained = common::trained_pipeline_seeded(1077);
    let config = ServerConfig { max_sessions: 8, shards: 2, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();
    let old_id = server.model_id();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 81, 9100);

    let mut a = ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
        .unwrap();
    let mut b = ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
        .unwrap();
    a.stream_snapshots(&snaps[..10]).unwrap();
    b.stream_snapshots(&snaps[..10]).unwrap();
    assert_eq!(a.classify().unwrap().model, old_id);

    let (from, to) = a.swap_model(&retrained.to_json().unwrap()).unwrap();
    assert_eq!(from, old_id);
    assert_ne!(to, old_id, "retrained pipeline must have a new fingerprint");
    assert_eq!(server.model_id(), to);

    // Both sessions now verdict under the new fingerprint — b's shard
    // observes the epoch bump on its next frame.
    a.stream_snapshots(&snaps[10..20]).unwrap();
    b.stream_snapshots(&snaps[10..20]).unwrap();
    assert_eq!(a.classify().unwrap().model, to);
    assert_eq!(b.classify().unwrap().model, to);

    a.bye().unwrap();
    b.bye().unwrap();
    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_finished, 2);
    assert_eq!(stats.session_errors, 0);
}

/// The registry is the server's one accounting system: every counter
/// field of `join()`'s report must equal the matching line of the final
/// exposition, through a clean session, a lossy one, a refused
/// handshake and a hard `SessionLimit` refusal. One shard keeps the
/// refusal deterministic: the shard retires the mismatched session
/// before it answers the next `Hello`, so two held sessions fill
/// exactly the two admission slots.
#[test]
fn join_stats_are_the_registry_counters() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { max_sessions: 2, backlog: 0, shards: 1, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();
    let obs = server.observability().clone();
    let specs = training_specs();

    let mismatched = ClientConfig { model_id: pipeline.model_id() ^ 1, ..ClientConfig::default() };
    match ServeClient::connect(addr, mismatched) {
        Err(ServeError::Rejected { reason }) => assert_eq!(reason, ByeReason::ModelMismatch),
        other => panic!("mismatched Hello must be refused, got {:?}", other.map(|_| ())),
    }

    let mut clean = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    clean.stream_snapshots(&snapshots_of(&specs[1], 83, 7100)).unwrap();
    clean.classify().unwrap();
    let clean_health = clean.health().unwrap();

    let mut plan = FaultPlan::lossless(5);
    plan.truncate_rate = 0.2;
    plan.corrupt_rate = 0.1;
    let mut lossy =
        ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: Some(plan), tracer: None })
            .unwrap();
    lossy.stream_batch(&snapshots_of(&specs[0], 84, 7200), 16).unwrap();
    lossy.classify().unwrap();
    let lossy_health = lossy.health().unwrap();

    match ServeClient::connect(addr, ClientConfig::default()) {
        Err(ServeError::Rejected { reason }) => assert_eq!(reason, ByeReason::SessionLimit),
        other => panic!("a third session must be refused, got {:?}", other.map(|_| ())),
    }
    assert_eq!(clean.bye().unwrap(), ByeReason::Normal);
    assert_eq!(lossy.bye().unwrap(), ByeReason::Normal);

    server.shutdown();
    let stats = server.join().unwrap();
    let text = obs.registry.render();
    let exposed = |name: &str| -> u64 {
        let line = text.lines().find(|l| l.split(' ').next() == Some(name));
        let value = line.unwrap_or_else(|| panic!("{name} missing from:\n{text}"));
        value.split(' ').nth(1).unwrap().parse().unwrap()
    };
    for (field, value, name) in [
        ("sessions_started", stats.sessions_started, "serve_sessions_started_total"),
        ("sessions_finished", stats.sessions_finished, "serve_sessions_finished_total"),
        ("sessions_rejected", stats.sessions_rejected, "serve_sessions_rejected_total"),
        ("sessions_busy", stats.sessions_busy, "serve_shed_total"),
        ("session_errors", stats.session_errors, "serve_session_errors_total"),
        ("frames_in", stats.frames_in, "serve_frames_in_total"),
        ("frames_repaired", stats.frames_repaired, "serve_frames_repaired_total"),
        ("frames_dropped", stats.frames_dropped, "serve_frames_dropped_total"),
        ("frames_malformed", stats.frames_malformed, "serve_frames_malformed_total"),
        ("frames_deadline_shed", stats.frames_deadline_shed, "serve_deadline_shed_total"),
        ("verdicts", stats.verdicts, "serve_classify_total"),
        ("classify_latency", stats.classify_latency.count(), "serve_classify_latency_count"),
    ] {
        assert_eq!(value, exposed(name), "{field} vs {name}");
    }
    assert_eq!((stats.sessions_started, stats.sessions_finished), (3, 2));
    assert_eq!((stats.sessions_rejected, stats.session_errors, stats.verdicts), (1, 1, 2));
    assert!(
        stats.frames_repaired + stats.frames_dropped + stats.frames_malformed > 0,
        "the lossy link must degrade some frames: {stats}"
    );
    assert_eq!(
        stats.health.seen,
        clean_health.seen + lossy_health.seen,
        "folded health must be the sum of the per-session reports"
    );
}

/// A peer still on control version 1 (byte-wise FNV-1a trailer) is
/// refused by version, not by checksum: its frames decode to a typed
/// `unsupported control version` error, and a server handed its `Hello`
/// answers `Bye(Protocol)` and counts exactly one session error. No
/// panic, no hang.
#[test]
fn a_version_1_hello_is_refused_with_a_protocol_bye() {
    let mut old = CONTROL_MAGIC.to_be_bytes().to_vec();
    old.extend_from_slice(&1u16.to_be_bytes());
    old.push(1); // Hello
    old.extend_from_slice(&0u32.to_be_bytes());
    old.extend_from_slice(&0u64.to_be_bytes());
    let trailer = wire::fnv1a64(&old);
    old.extend_from_slice(&trailer.to_be_bytes());
    match wire::decode_control(&old) {
        Err(Error::MalformedWire { reason, .. }) => {
            assert_eq!(reason, "unsupported control version")
        }
        other => panic!("a version-1 frame must be refused by version, got {other:?}"),
    }

    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { shards: 1, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", pipeline, config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&(old.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(&old).unwrap();
    let reply = read_frame(&mut stream).expect("the server must answer, not hang");
    assert_eq!(reply, ControlFrame::Bye { reason: ByeReason::Protocol });
    drop(stream);

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!((stats.sessions_started, stats.sessions_finished), (1, 0));
    assert_eq!(stats.session_errors, 1, "{stats}");
}
