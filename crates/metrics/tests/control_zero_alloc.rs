//! The zero-copy batch path really is zero-alloc: once warm, decoding a
//! 32-item `SnapshotBatch` and walking its items, encoding a
//! `VerdictBatch` reply into a reused buffer, and building a batch in a
//! reused `BatchEncoder` leave the allocation counter where it was.
//!
//! A counting global allocator wraps `System` (unsafe confined to this
//! test binary). Per-item `wire::decode` is outside the measured window:
//! it returns a `Snapshot`, whose `MetricFrame` is `Vec`-backed, so each
//! decoded datagram allocates exactly that one frame by design.

use appclass_metrics::wire::{self, BatchEncoder, ControlFrameRef};
use appclass_metrics::{ControlFrame, FrameDisposition, MetricFrame, MetricId, NodeId, Snapshot};
use appclass_obs::TraceContext;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is a relaxed atomic
// increment with no other side effects, so every `GlobalAlloc` contract
// obligation is discharged by `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The counter is process-global, so tests that measure allocation
/// windows must not run concurrently with anything that allocates;
/// each test holds this lock for its whole body.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fewest allocations seen over three windows of 100 calls of `f`. The
/// counter is process-global, so a harness thread wrapping up the
/// sibling test can allocate inside one window; an allocation `f` itself
/// makes shows in every window.
fn allocations_per_window(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..100 {
                f();
            }
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap_or(0)
}

fn datagrams(n: usize) -> Vec<[u8; wire::WIRE_SIZE]> {
    (0..n)
        .map(|i| {
            let mut f = MetricFrame::zeroed();
            f.set(MetricId::CpuUser, 10.0 + i as f64);
            f.set(MetricId::BytesOut, 1.0e6 * i as f64);
            let mut out = [0u8; wire::WIRE_SIZE];
            wire::encode_into(&Snapshot::new(NodeId(4), 5 * i as u64, f), &mut out);
            out
        })
        .collect()
}

const CTX: Option<TraceContext> = Some(TraceContext { trace_id: 0x5EED, parent_span: 3, flags: 1 });

#[test]
fn decoding_a_snapshot_batch_and_walking_its_items_never_allocates() {
    let _serial = serialized();
    let items = datagrams(32);
    let wires = items.iter().map(|d| d.to_vec()).collect();
    let frame = wire::encode_control(&ControlFrame::SnapshotBatch { wires, ctx: CTX });
    let walk = || {
        let Ok(ControlFrameRef::SnapshotBatch { wires, ctx }) =
            wire::decode_control_borrowed(&frame)
        else {
            panic!("a SnapshotBatch must decode as one");
        };
        assert_eq!((wires.len(), ctx), (32, CTX));
        let mut bytes = 0;
        for w in wires {
            bytes += black_box(w).len();
        }
        assert_eq!(bytes, 32 * wire::WIRE_SIZE);
    };
    walk();
    assert_eq!(allocations_per_window(walk), 0, "borrowed batch decode allocated");
}

#[test]
fn encoding_replies_and_batches_into_warm_buffers_never_allocates() {
    let _serial = serialized();
    let reply = ControlFrame::VerdictBatch {
        statuses: [FrameDisposition::Accepted, FrameDisposition::Repaired]
            .into_iter()
            .cycle()
            .take(32)
            .collect(),
    };
    let mut write_buf = Vec::new();
    let encode_reply = |buf: &mut Vec<u8>| {
        buf.clear();
        wire::encode_control_into(&reply, buf);
        black_box(&buf[..]);
    };
    encode_reply(&mut write_buf);
    assert_eq!(
        allocations_per_window(|| encode_reply(&mut write_buf)),
        0,
        "reply encode allocated"
    );

    let items = datagrams(32);
    let mut batch = BatchEncoder::new();
    let build = |batch: &mut BatchEncoder| {
        for d in &items {
            batch.push(d);
        }
        black_box(batch.finish(CTX));
    };
    build(&mut batch);
    assert_eq!(allocations_per_window(|| build(&mut batch)), 0, "batch build allocated");
}
