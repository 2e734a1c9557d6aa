//! The per-layer replay: a workload's exact snapshot streams pushed
//! in-process through each layer's public calls, one span per call (or
//! per loop of calls on one session's frames, where a single call is too
//! short to time on its own).

use crate::trace::Tracer;
use appclass::core::online::OnlineClassifier;
use appclass::core::stage::StagePipeline;
use appclass::core::ClassifierPipeline;
use appclass::linalg::Matrix;
use appclass::metrics::filter::PerformanceFilter;
use appclass::metrics::wire::{self, ControlFrameRef};
use appclass::metrics::{ControlFrame, DataPool, FrameGuard, NodeId, Snapshot, METRIC_COUNT};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rows in the pool-width `classify_batch` call (the §5.3 pool size).
const POOL_ROWS: usize = crate::inputs::POOL_SAMPLES;

/// Counts the replay measures directly rather than as spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Frames the guard offered.
    pub seen: u64,
    /// Frames it admitted (accepted or repaired).
    pub admitted: u64,
    /// Snapshot frames encoded into control frames.
    pub frames: u64,
    /// Control-frame bytes those frames took on the wire.
    pub bytes: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    format!("layer replay: {e}")
}

/// Stacks the 33-metric frames of `snaps` into a raw sample matrix.
fn raw_matrix(snaps: &[Snapshot]) -> Result<Matrix, String> {
    let mut values = Vec::with_capacity(snaps.len() * METRIC_COUNT);
    for s in snaps {
        values.extend_from_slice(s.frame.as_slice());
    }
    Matrix::from_vec(snaps.len(), METRIC_COUNT, values).map_err(err)
}

/// Rows `range` of `m` as their own matrix.
fn rows(m: &Matrix, range: std::ops::Range<usize>) -> Result<Matrix, String> {
    let cols = m.cols();
    Matrix::from_vec(range.len(), cols, m.as_slice()[range.start * cols..range.end * cols].to_vec())
        .map_err(err)
}

/// Replays every stream in `sessions` through each layer `passes` times,
/// with frames grouped `width` to a control frame as the workload sends
/// them. Session ids continue from `sid`.
pub fn replay(
    model: &ClassifierPipeline,
    sessions: &[Arc<Vec<Snapshot>>],
    width: usize,
    passes: usize,
    tracer: &mut Tracer,
    sid: &mut u64,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    let mut pool_rows: Vec<f64> = Vec::new();
    for _ in 0..passes {
        for snaps in sessions.iter().filter(|s| !s.is_empty()) {
            *sid += 1;
            let sid = *sid;
            let root = tracer.open("replay.session", sid, 0);
            let n = snaps.len() as u64;

            // metrics.wire: what the client encodes and the server decodes.
            let t = Instant::now();
            let mut frames = Vec::new();
            for chunk in snaps.chunks(width) {
                let wires = chunk.iter().map(|s| wire::encode(s).to_vec()).collect();
                frames
                    .push(wire::encode_control(&ControlFrame::SnapshotBatch { wires, ctx: None }));
            }
            tracer.record("metrics.wire.encode", sid, root, t, n);
            counts.frames += n;
            counts.bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
            let t = Instant::now();
            for frame in &frames {
                match wire::decode_control_borrowed(frame).map_err(err)? {
                    ControlFrameRef::SnapshotBatch { wires, .. } => {
                        for w in wires {
                            black_box(wire::decode(w).map_err(err)?);
                        }
                    }
                    _ => return Err(err("batch decoded as another frame kind")),
                }
            }
            tracer.record("metrics.wire.decode", sid, root, t, n);

            // metrics.repair: the guard alone.
            let mut guard = FrameGuard::default();
            let t = Instant::now();
            for s in snaps.iter() {
                black_box(guard.admit(s));
            }
            tracer.record("metrics.repair.admit", sid, root, t, n);
            counts.seen += guard.health().seen;
            counts.admitted += guard.health().admitted();

            // core: each stage on the session's rows, then end to end.
            let raw = raw_matrix(snaps)?;
            let t = Instant::now();
            let pre = model.preprocessor().apply(&raw).map_err(err)?;
            tracer.record("core.preprocess.apply", sid, root, t, n);
            let t = Instant::now();
            let pcs = model.pca().transform(&pre).map_err(err)?;
            tracer.record("core.pca.transform", sid, root, t, n);
            let t = Instant::now();
            for r in 0..pcs.rows() {
                black_box(model.knn().classify(pcs.row(r)).map_err(err)?);
            }
            tracer.record("core.knn.classify", sid, root, t, n);
            let chunks: Vec<Matrix> = (0..pcs.rows())
                .step_by(32)
                .map(|r| rows(&pcs, r..(r + 32).min(pcs.rows())))
                .collect::<Result<_, _>>()?;
            let t = Instant::now();
            for chunk in &chunks {
                black_box(model.knn().classify_batch(chunk).map_err(err)?);
            }
            tracer.record("core.knn.classify_batch.w32", sid, root, t, n);
            if pool_rows.len() < POOL_ROWS * pcs.cols() {
                pool_rows.extend_from_slice(pcs.as_slice());
            }
            let t = Instant::now();
            black_box(model.classify(&raw).map_err(err)?);
            tracer.record("core.pipeline.classify", sid, root, t, n);

            // core.online: the streaming paths the server runs per frame.
            let mut runner = StagePipeline::new();
            let t = Instant::now();
            for s in snaps.iter() {
                black_box(model.classify_frame_with(&mut runner, &s.frame).map_err(err)?);
            }
            tracer.record("core.pipeline.classify_frame", sid, root, t, n);
            let mut online = OnlineClassifier::new(model);
            let t = Instant::now();
            for s in snaps.iter() {
                black_box(online.push_guarded(s).map_err(err)?);
            }
            tracer.record("core.online.push_guarded", sid, root, t, n);
            let mut online = OnlineClassifier::new(model);
            let t = Instant::now();
            for chunk in snaps.chunks(width) {
                black_box(online.push_batch_guarded(chunk).map_err(err)?);
            }
            tracer.record("core.online.push_batch_guarded", sid, root, t, n);
            tracer.close(root, n);
        }
    }

    // core.knn at pool width: the sessions' projected rows, cycled.
    let dims = model.n_components();
    if pool_rows.is_empty() {
        return Err(err("no rows to replay"));
    }
    let have = pool_rows.len() / dims;
    let cycled: Vec<f64> =
        (0..POOL_ROWS).flat_map(|r| pool_rows[(r % have) * dims..][..dims].to_vec()).collect();
    let pool_matrix = Matrix::from_vec(POOL_ROWS, dims, cycled).map_err(err)?;
    // metrics.filter: a subnet pool of the first session's frames plus
    // as much chatter from another node.
    let first = sessions.iter().find(|s| !s.is_empty()).expect("rows came from a session");
    let mut pool = DataPool::new();
    for k in 0..POOL_ROWS {
        let s = &first[k % first.len()];
        pool.push(Snapshot::new(NodeId(1), 5 * k as u64, s.frame.clone()));
        pool.push(Snapshot::new(NodeId(2), 5 * k as u64, s.frame.clone()));
    }
    for _ in 0..passes {
        *sid += 1;
        let t = Instant::now();
        black_box(model.knn().classify_batch(&pool_matrix).map_err(err)?);
        tracer.record("core.knn.classify_batch.pool", *sid, 0, t, POOL_ROWS as u64);
        let t = Instant::now();
        black_box(PerformanceFilter.extract(&pool, NodeId(1)).map_err(err)?);
        tracer.record("metrics.filter.extract", *sid, 0, t, pool.len() as u64);
    }
    Ok(counts)
}
