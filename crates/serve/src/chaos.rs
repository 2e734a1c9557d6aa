//! A socket-level chaos proxy: a TCP man-in-the-middle that injects the
//! transport faults PR 2's frame-layer plans cannot express.
//!
//! [`ChaosProxy`] sits between a [`ServeClient`](crate::ServeClient) and
//! a [`Server`](crate::Server), forwarding bytes in both directions
//! while mangling the client→server direction according to a seeded
//! [`ChaosPlan`]: partial writes (frames torn across many tiny TCP
//! segments), mid-frame stalls (calibrated against
//! [`MID_FRAME_TIMEOUT_BUDGET`](crate::proto::MID_FRAME_TIMEOUT_BUDGET)),
//! abrupt connection aborts, and byte flips on the stream. Every fault
//! decision is drawn from a splitmix64 stream seeded per connection, and
//! every injected fault is recorded as a [`FaultEvent`] — two runs of
//! the same plan over the same byte stream mangle identically, which is
//! what lets the chaos suite assert bitwise reproducibility per seed.
//!
//! The contract under test: whatever this proxy does to the stream, the
//! server's shard survives to serve the next session and the client gets
//! a typed error (or a clean retry) — never a panic, never a wedge.

use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to the client→server byte stream.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Seed of the per-connection fault stream (connection `i` draws
    /// from `seed + i`, so multi-connection runs stay reproducible).
    pub seed: u64,
    /// Per-byte probability of XOR-ing a random nonzero mask into the
    /// forwarded stream.
    pub flip_rate: f64,
    /// Forward at most this many bytes per write (with a flush and a
    /// short pause between chunks), tearing frames across TCP segments.
    pub chunk: Option<usize>,
    /// After this many forwarded bytes, pause forwarding once for
    /// [`ChaosPlan::stall`] — a mid-frame stall when it lands inside a
    /// frame.
    pub stall_after: Option<u64>,
    /// Length of the one-shot stall.
    pub stall: Duration,
    /// After this many forwarded bytes, abort both connections abruptly
    /// (socket shutdown with bytes still in flight — on Linux a close
    /// with unread data pending answers further traffic with RST).
    pub rst_after: Option<u64>,
}

impl ChaosPlan {
    /// A faithful forwarder: every byte through, untouched. The starting
    /// point the `with_*` builders perturb.
    pub fn lossless(seed: u64) -> Self {
        ChaosPlan {
            seed,
            flip_rate: 0.0,
            chunk: None,
            stall_after: None,
            stall: Duration::ZERO,
            rst_after: None,
        }
    }

    /// Flip bits in roughly this fraction of forwarded bytes.
    pub fn with_flip_rate(mut self, rate: f64) -> Self {
        self.flip_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Tear writes into chunks of at most `bytes`.
    pub fn with_chunk(mut self, bytes: usize) -> Self {
        self.chunk = Some(bytes.max(1));
        self
    }

    /// Stall once for `pause` after `offset` forwarded bytes.
    pub fn with_stall(mut self, offset: u64, pause: Duration) -> Self {
        self.stall_after = Some(offset);
        self.stall = pause;
        self
    }

    /// Abort the connection after `offset` forwarded bytes.
    pub fn with_rst(mut self, offset: u64) -> Self {
        self.rst_after = Some(offset);
        self
    }
}

/// One injected fault, with the uplink byte offset it landed on. The
/// event log is the reproducibility witness: same seed, same stream →
/// identical log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A byte at `offset` was XOR-ed with `mask`.
    Flip {
        /// Uplink byte offset of the flipped byte.
        offset: u64,
        /// The nonzero XOR mask applied.
        mask: u8,
    },
    /// Forwarding paused at `offset` for the plan's stall duration.
    Stall {
        /// Uplink byte offset the stall landed before.
        offset: u64,
    },
    /// Both directions were aborted at `offset`.
    Rst {
        /// Uplink byte offset the abort landed before.
        offset: u64,
    },
}

/// Deterministic fault stream: splitmix64 over an incrementing counter,
/// the same construction the vendored rand shim seeds with.
struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn gen_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn gen_mask(&mut self) -> u8 {
        // 1..=255: a mask of zero would be a no-op "fault".
        (self.next_u64() % 255) as u8 + 1
    }
}

/// The running man-in-the-middle. Dropping it shuts the listener down
/// and joins every pump thread.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<FaultEvent>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and forwards every accepted
    /// connection to `upstream` under the plan's faults.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let events = Arc::clone(&events);
            std::thread::spawn(move || accept_loop(&listener, upstream, plan, &shutdown, &events))
        };
        Ok(ChaosProxy { local_addr, shutdown, events, acceptor: Some(acceptor) })
    }

    /// Where clients should connect instead of the real server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The faults injected so far, in uplink order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }

    /// Stops accepting, aborts the pumps, and joins the acceptor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the acceptor out of `accept`; retry briefly — the same
        // hardening the server's shutdown poke carries.
        for _ in 0..10 {
            if TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(50)).is_ok() {
                break;
            }
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: ChaosPlan,
    shutdown: &Arc<AtomicBool>,
    events: &Arc<Mutex<Vec<FaultEvent>>>,
) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    let mut conn_index = 0u64;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the poke connection
        }
        let server = match TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) {
            Ok(s) => s,
            Err(_) => continue, // upstream gone; drop the client too
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        // Each connection draws its own deterministic fault stream.
        let mut conn_plan = plan;
        conn_plan.seed = plan.seed.wrapping_add(conn_index);
        conn_index += 1;
        let up = {
            let (client, server) = match (client.try_clone(), server.try_clone()) {
                (Ok(c), Ok(s)) => (c, s),
                _ => continue,
            };
            let shutdown = Arc::clone(shutdown);
            let events = Arc::clone(events);
            std::thread::spawn(move || pump_faulty(client, server, conn_plan, &shutdown, &events))
        };
        let down = {
            let shutdown = Arc::clone(shutdown);
            std::thread::spawn(move || pump_clean(server, client, &shutdown))
        };
        pumps.push(up);
        pumps.push(down);
    }
    for h in pumps {
        let _ = h.join();
    }
}

/// Polling cadence of the pump reads; also how quickly a pump notices
/// the proxy shutting down.
const PUMP_TIMEOUT: Duration = Duration::from_millis(20);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Forwards server→client bytes untouched. A dead direction shuts the
/// paired write half so the peer observes EOF instead of hanging.
fn pump_clean(mut from: TcpStream, to: TcpStream, shutdown: &AtomicBool) {
    let mut to = to;
    let _ = from.set_read_timeout(Some(PUMP_TIMEOUT));
    let mut buf = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).and_then(|_| to.flush()).is_err() {
                    break;
                }
            }
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

/// Forwards client→server bytes through the fault plan.
fn pump_faulty(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: ChaosPlan,
    shutdown: &AtomicBool,
    events: &Mutex<Vec<FaultEvent>>,
) {
    let _ = from.set_read_timeout(Some(PUMP_TIMEOUT));
    let mut rng = ChaosRng::new(plan.seed);
    let mut offset = 0u64; // uplink bytes forwarded so far
    let mut stall_armed = plan.stall_after;
    let mut buf = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        };
        let chunk = &mut buf[..n];
        // Abort lands before the byte at `rst_after`: forward the prefix
        // (possibly mangled), then tear the connection down with bytes
        // still moving.
        let abort_at = plan
            .rst_after
            .and_then(|at| (offset + n as u64 > at).then(|| (at - offset.min(at)) as usize));
        let keep = abort_at.unwrap_or(n).min(n);
        // Byte flips over what will actually be forwarded.
        if plan.flip_rate > 0.0 {
            for (i, byte) in chunk[..keep].iter_mut().enumerate() {
                if rng.gen_unit() < plan.flip_rate {
                    let mask = rng.gen_mask();
                    *byte ^= mask;
                    events.lock().push(FaultEvent::Flip { offset: offset + i as u64, mask });
                }
            }
        }
        // One-shot stall, torn into the middle of this chunk: the bytes
        // before the mark are forwarded, the pump pauses, then the rest
        // follows — so whatever frame is in flight arrives mid-frame
        // stalled, exactly the fault the deadline budget must absorb.
        let mut split = keep;
        if let Some(at) = stall_armed {
            if offset + keep as u64 > at {
                stall_armed = None;
                split = at.saturating_sub(offset) as usize;
            }
        }
        let sent = if split < keep {
            let mut r = send_bytes(&mut to, &chunk[..split], plan.chunk);
            if r.is_ok() {
                events.lock().push(FaultEvent::Stall { offset: offset + split as u64 });
                std::thread::sleep(plan.stall);
                r = send_bytes(&mut to, &chunk[split..keep], plan.chunk);
            }
            r
        } else {
            send_bytes(&mut to, &chunk[..keep], plan.chunk)
        };
        if sent.is_err() {
            break;
        }
        offset += keep as u64;
        if abort_at.is_some() {
            events.lock().push(FaultEvent::Rst { offset });
            // Abort both directions with traffic still in flight; the
            // peers see a hard transport failure, not a clean EOF.
            let _ = to.shutdown(Shutdown::Both);
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

/// Forwards `data`, torn into `chunk`-byte segments when the plan asks
/// for partial writes, or as one write otherwise.
fn send_bytes(to: &mut TcpStream, data: &[u8], chunk: Option<usize>) -> std::io::Result<()> {
    match chunk {
        Some(step) => write_torn(to, data, step),
        None => {
            to.write_all(data)?;
            to.flush()
        }
    }
}

/// Writes `data` in `step`-byte segments, flushing and briefly pausing
/// between them so each lands in its own TCP segment — the "partial
/// write" fault class.
fn write_torn(to: &mut TcpStream, data: &[u8], step: usize) -> std::io::Result<()> {
    for piece in data.chunks(step.max(1)) {
        to.write_all(piece)?;
        to.flush()?;
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let mut a = ChaosRng::new(99);
        let mut b = ChaosRng::new(99);
        let mut c = ChaosRng::new(100);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn masks_are_never_zero() {
        let mut rng = ChaosRng::new(7);
        for _ in 0..10_000 {
            assert_ne!(rng.gen_mask(), 0);
        }
    }

    #[test]
    fn plan_builders_clamp() {
        let plan = ChaosPlan::lossless(1).with_flip_rate(7.0).with_chunk(0);
        assert_eq!(plan.flip_rate, 1.0);
        assert_eq!(plan.chunk, Some(1));
    }

    #[test]
    fn lossless_proxy_forwards_bytes_intact() {
        // A raw echo upstream: whatever arrives is written straight back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 1024];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let proxy = ChaosProxy::spawn(up_addr, ChaosPlan::lossless(3)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload = b"overload-resilience probe";
        c.write_all(payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, payload);
        assert!(proxy.events().is_empty(), "lossless plan must inject nothing");
        drop(c);
        proxy.shutdown();
        echo.join().unwrap();
    }
}
