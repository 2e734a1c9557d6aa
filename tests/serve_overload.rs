//! Overload-resilience integration tests: load shedding with `Busy`
//! refusals, deadline-budget frame shedding, the retry/backoff client
//! with its circuit breaker, and the observability wiring around all of
//! it — gauges, counters, and the flight incident latched on entering
//! the shedding state.

mod common;

use appclass::metrics::{ByeReason, NodeId, Snapshot};
use appclass::serve::chaos::{ChaosPlan, ChaosProxy};
use appclass::serve::retry::{connect_with_retry, CircuitBreaker, RetryPolicy};
use appclass::serve::{ClientConfig, ServeClient, ServeError, Server, ServerConfig, SessionConfig};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::training_specs;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn snapshots(node: u32, seed: u64) -> Vec<Snapshot> {
    let spec = &training_specs()[0];
    let rec = run_spec(spec, NodeId(node), seed);
    rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect()
}

/// A tiny-queue server under a connection pile-up must soft-refuse the
/// overflow with `Busy` (not the hard `SessionLimit`), count it, export
/// the shed counter, and latch exactly one flight incident for the
/// shedding episode; once the pile drains, a retrying client must get
/// in.
#[test]
fn shedding_server_refuses_with_busy_and_recovers() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig {
        max_sessions: 1,
        backlog: 4,
        shed_low_watermark: 0,
        shed_high_watermark: 1,
        busy_retry_after: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    // The occupant's completed handshake proves the admission target is
    // reached.
    let occupant = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    // A raw connection is admitted past the target (it never sends its
    // `Hello`, so it holds its slot) — queue depth becomes 1.
    let parked = TcpStream::connect(addr).unwrap();
    // The next arrival sees depth >= high watermark: soft-refused.
    match ServeClient::connect(addr, ClientConfig::default()) {
        Err(ServeError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
        Err(other) => panic!("expected a Busy refusal, got {other}"),
        Ok(_) => panic!("expected a Busy refusal, but was admitted"),
    }

    // The shedding episode is on the gauges and in the flight recorder.
    let obs = server.observability().clone();
    assert_eq!(obs.registry.counter("serve_shed_total").get(), 1);
    assert_eq!(obs.registry.gauge("serve_overload_state").get(), 2.0, "state gauge = Shedding");
    assert_eq!(obs.registry.gauge("serve_queue_depth").get(), 1.0);
    assert_eq!(obs.flight.len(), 1, "entering Shedding latches one incident");
    assert!(obs.flight.incidents()[0].reason.contains("shedding"));

    // Drain: the occupant leaves, the parked connection dies, and a
    // Busy-aware retrying client gets through on a later attempt.
    assert_eq!(occupant.bye().unwrap(), ByeReason::Normal);
    drop(parked);
    let policy = RetryPolicy {
        max_retries: 20,
        base_backoff: Duration::from_millis(10),
        ..RetryPolicy::default()
    };
    let mut breaker = CircuitBreaker::new(5, Duration::from_millis(200));
    let (client, report) =
        connect_with_retry(addr, &ClientConfig::default(), &policy, &mut breaker).unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    assert_eq!(breaker.trips(), 0, "soft refusals must not trip the breaker");
    assert!(report.attempts >= 1);

    server.shutdown();
    let stats = server.join().unwrap();
    assert!(stats.sessions_busy >= 1, "at least the probed Busy refusal: {stats}");
    assert_eq!(
        obs.registry.gauge("serve_overload_state").get(),
        0.0,
        "drained server ends Healthy"
    );
}

/// A snapshot frame that trickles in past the session deadline budget
/// must be shed — counted, acknowledged with an unsolicited `Busy`
/// notice (which the client's read paths absorb and count), and kept
/// away from the classifier — while on-time frames still classify.
#[test]
fn stale_snapshots_are_shed_before_classification() {
    let pipeline = Arc::new(common::trained_pipeline());
    let mut config = ServerConfig {
        max_sessions: 2,
        session: SessionConfig {
            deadline: Some(Duration::from_millis(60)),
            busy_retry_after: Duration::from_millis(40),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    config.read_timeout = Duration::from_millis(10);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();

    // A mid-frame stall after the handshake (the client→server Hello is
    // 31 bytes; offset 40 lands inside the first snapshot frame) makes
    // exactly one frame arrive older than the 60 ms deadline.
    let plan = ChaosPlan::lossless(11).with_stall(40, Duration::from_millis(200));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();

    let snaps = snapshots(70, 4242);
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    client.stream_snapshots(&snaps).unwrap();
    let verdict = client.classify().unwrap();
    assert!(verdict.confidence >= 0.0); // the session still answers
    assert!(
        client.busy_notices() >= 1,
        "the shed frame's Busy notice must be absorbed and counted"
    );
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);

    let obs = server.observability().clone();
    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert!(
        stats.frames_deadline_shed >= 1,
        "the stalled frame must be shed, not classified: {stats}"
    );
    assert!(
        stats.frames_deadline_shed < snaps.len() as u64,
        "on-time frames must still be classified: {stats}"
    );
    assert_eq!(
        obs.registry.counter("serve_deadline_shed_total").get(),
        stats.frames_deadline_shed,
        "live counter and folded stats must agree"
    );
    assert_eq!(stats.session_errors, 0, "shedding is not an error: {stats}");
}

/// A batch that overruns the deadline is shed whole: every item comes
/// back `Expired` in the acknowledgement, nothing reaches the
/// classifier, and the session keeps going.
#[test]
fn expired_batches_are_acknowledged_not_classified() {
    let pipeline = Arc::new(common::trained_pipeline());
    let mut config = ServerConfig {
        max_sessions: 2,
        session: SessionConfig {
            deadline: Some(Duration::from_millis(50)),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    config.read_timeout = Duration::from_millis(10);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();

    let plan = ChaosPlan::lossless(13).with_stall(40, Duration::from_millis(150));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();

    let snaps = snapshots(71, 4243);
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    let report = client.stream_batch(&snaps, 8).unwrap();
    assert!(report.expired >= 1, "the stalled batch must come back Expired: {report:?}");
    assert!(report.accepted + report.repaired > 0, "later batches must still classify: {report:?}");
    assert_eq!(
        report.sent,
        report.accepted + report.repaired + report.dropped + report.malformed + report.expired,
        "every item must be accounted exactly once: {report:?}"
    );
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);

    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert_eq!(stats.frames_deadline_shed, report.expired);
    assert_eq!(stats.session_errors, 0, "{stats}");
}

/// The breaker trips on repeated hard connect failures, reports
/// `CircuitOpen` without touching the socket while open, then half-opens
/// after the cooldown and closes again once the endpoint heals.
#[test]
fn circuit_breaker_opens_on_hard_failures_and_recloses_after_recovery() {
    // A port with nothing behind it: bind, learn the port, drop.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let policy = RetryPolicy {
        max_retries: 0, // every connect_with_retry call is one attempt
        base_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let mut breaker = CircuitBreaker::new(2, Duration::from_millis(120));

    for _ in 0..2 {
        match connect_with_retry(dead_addr, &ClientConfig::default(), &policy, &mut breaker) {
            Err(err) => {
                assert!(matches!(err, ServeError::Io(_) | ServeError::ConnectionClosed), "{err}")
            }
            Ok(_) => panic!("a dead port cannot be connected to"),
        }
    }
    assert_eq!(breaker.trips(), 1, "two hard failures reach the threshold");
    // While open, the refusal is immediate and typed — no socket work.
    match connect_with_retry(dead_addr, &ClientConfig::default(), &policy, &mut breaker) {
        Err(ServeError::CircuitOpen { cooldown_ms }) => assert!(cooldown_ms <= 120),
        Err(other) => panic!("open breaker must short-circuit, got {other}"),
        Ok(_) => panic!("open breaker must short-circuit, but the connect went through"),
    }

    // The endpoint heals during the cooldown; the half-open probe closes
    // the breaker again.
    std::thread::sleep(Duration::from_millis(150));
    let pipeline = Arc::new(common::trained_pipeline());
    let server = Server::bind(dead_addr, Arc::clone(&pipeline), ServerConfig::default());
    let server = match server {
        Ok(s) => s,
        // The ephemeral port was reused meanwhile — rare, but don't
        // flake; the breaker semantics above are already proven.
        Err(_) => return,
    };
    let (client, _) =
        connect_with_retry(dead_addr, &ClientConfig::default(), &policy, &mut breaker)
            .expect("half-open probe against a healed endpoint must succeed");
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    server.shutdown();
    server.join().unwrap();
}

/// Satellite regression: `Server::shutdown` with zero sessions must
/// complete promptly — the self-connect poke that wakes the parked
/// acceptor is retried until the acceptor confirms it exited, so a
/// single lost poke can no longer wedge `join`.
#[test]
fn shutdown_with_zero_sessions_completes_promptly() {
    let pipeline = Arc::new(common::trained_pipeline());
    // A long read timeout makes any accidental reliance on timeout
    // polling obvious: a wedged join would wait out the full 10 s.
    let config = ServerConfig { read_timeout: Duration::from_secs(10), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();

    let started = std::time::Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let stats = server.join().unwrap();
        tx.send(stats).unwrap();
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown + join with zero sessions must not wedge");
    assert_eq!(stats.sessions_started, 0);
    assert!(started.elapsed() < Duration::from_secs(5), "shutdown took {:?}", started.elapsed());
}
