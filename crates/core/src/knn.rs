//! The k-Nearest-Neighbour snapshot classifier — the `q → C` step.
//!
//! "The k-NN classifier decides the class by considering the votes of k (an
//! odd number) nearest neighbors" (§3); the paper uses **3-NN** following
//! Kapadia's finding that nearest-neighbour methods beat locally weighted
//! regression for this kind of data. The k training snapshots nearest to a
//! test snapshot in the PCA feature space vote, and ties break toward the
//! class of the single nearest neighbour — deterministic, like everything
//! in this reproduction.
//!
//! The neighbours come from a static k-d tree built over the training
//! points at construction. The search is exact: it returns the same k
//! neighbours, in the same `(distance, index)` order, as a scan of every
//! training row would, so streaming, batched and threaded classification
//! all give **bitwise-identical** labels (DESIGN.md §10). On the paper's
//! model (677 rows in two dimensions) it scores about 40 rows per query
//! instead of all of them.

use crate::class::AppClass;
use crate::error::{Error, Result};
use crate::stage::{encode_classes, Stage, StreamingStage};
use appclass_linalg::{vector, Matrix};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// Distance metric for neighbour search. The paper's geometric "closest"
/// is Euclidean; the alternatives exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Distance {
    /// Euclidean (L2) — the paper's metric.
    #[default]
    Euclidean,
    /// Manhattan (L1).
    Manhattan,
    /// Chebyshev (L∞).
    Chebyshev,
}

impl Distance {
    #[inline]
    fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            // Squared Euclidean preserves ordering and skips the sqrt.
            Distance::Euclidean => vector::sq_euclidean(a, b),
            Distance::Manhattan => vector::manhattan(a, b),
            Distance::Chebyshev => vector::chebyshev(a, b),
        }
    }

    /// A lower bound on [`Distance::eval`]`(q, p)` for every `p` in the
    /// box `[lo, hi]`. Each coordinate's gap to the box is `≤ |q_c − p_c|`
    /// as rounded, and the gaps are combined with the same ops in the same
    /// order as `eval` combines `|q_c − p_c|`. Rounding is monotone, so the
    /// bound never exceeds `eval` — which is what lets the tree search
    /// prune without ever losing a neighbour the full scan would pick.
    #[inline]
    fn lower_bound(self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let gaps = q.iter().zip(lo.iter().zip(hi)).map(|(&x, (&l, &h))| {
            if x < l {
                l - x
            } else if x > h {
                x - h
            } else {
                0.0
            }
        });
        match self {
            Distance::Euclidean => gaps.map(|g| g * g).sum(),
            Distance::Manhattan => gaps.sum(),
            Distance::Chebyshev => gaps.fold(0.0f64, f64::max),
        }
    }
}

/// Worker count for large batches, looked up once per process rather
/// than on every `classify_batch` call.
fn knn_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1))
}

/// Most training rows a k-d tree leaf holds.
const LEAF_ROWS: usize = 32;

/// Deepest tree the fixed-size traversal stack can walk. Each level
/// halves a node's rows, so no row count that fits in memory comes close.
const MAX_DEPTH: usize = 64;

/// Start of the `j`-th of the `2^level` equal node spans over `n` rows.
/// Span `j` of a level is split at the start of span `2j + 1` of the next.
#[inline]
fn span_start(n: usize, level: u32, j: usize) -> usize {
    ((j as u128 * n as u128) >> level) as usize
}

/// A static, balanced k-d tree over the training points.
///
/// The tree is implicit: node `h` has children `2h + 1` and `2h + 2`, all
/// `2^depth` leaves sit on the last level, and leaf `j` holds leaf-order
/// rows `[span_start(n, depth, j), span_start(n, depth, j + 1))`. The
/// only storage is three flat arrays.
#[derive(Debug, Clone, PartialEq)]
struct KdTree {
    dim: usize,
    depth: u32,
    /// The training points in leaf order, row-major.
    points: Vec<f64>,
    /// The training-row index of each leaf-order point.
    ids: Vec<usize>,
    /// Node `h`'s bounding box: `dim` lows then `dim` highs at `2·dim·h`.
    boxes: Vec<f64>,
}

impl KdTree {
    /// Builds the tree without recursion or per-node allocation. Top-down,
    /// every internal node is split at its middle row
    /// (`select_nth_unstable_by`) along the widest side of its cell: the
    /// root's bounding box, narrowed at each ancestor's split. Cells are
    /// kept in `boxes` only until, bottom-up, the leaves get their tight
    /// boxes and every parent the union of its children's. Only those
    /// tight boxes matter for exactness; the cells and splits only shape
    /// how much gets pruned.
    fn build(points: &Matrix) -> KdTree {
        let (n, dim) = (points.rows(), points.cols());
        let data = points.as_slice();
        let mut depth = 0u32;
        while n.div_ceil(1 << depth) > LEAF_ROWS {
            depth += 1;
        }
        let first_leaf = (1usize << depth) - 1;
        let w = 2 * dim;
        let mut boxes = vec![0.0; (2 * first_leaf + 1) * w];
        fit_box(&mut boxes[..w], data);
        let mut ids: Vec<usize> = (0..n).collect();
        for level in 0..depth {
            for j in 0..1usize << level {
                let h = (1usize << level) - 1 + j;
                let (lo, hi) = boxes[w * h..w * (h + 1)].split_at(dim);
                let axis = (0..dim)
                    .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
                    .expect("dim > 0");
                let (start, end) = (span_start(n, level, j), span_start(n, level, j + 1));
                let mid = span_start(n, level + 1, 2 * j + 1);
                ids[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
                    data[a * dim + axis].total_cmp(&data[b * dim + axis])
                });
                let split = data[ids[mid] * dim + axis];
                let (l, r) = (2 * h + 1, 2 * h + 2);
                boxes.copy_within(w * h..w * (h + 1), w * l);
                boxes.copy_within(w * h..w * (h + 1), w * r);
                boxes[w * l + dim + axis] = split;
                boxes[w * r + axis] = split;
            }
        }
        // Lay the points out in leaf order, fitting each leaf's box as it
        // fills.
        let mut leaf_points = Vec::with_capacity(n * dim);
        for j in 0..=first_leaf {
            let start = leaf_points.len();
            for &i in &ids[span_start(n, depth, j)..span_start(n, depth, j + 1)] {
                leaf_points.extend_from_slice(&data[i * dim..(i + 1) * dim]);
            }
            let h = first_leaf + j;
            fit_box(&mut boxes[w * h..w * (h + 1)], &leaf_points[start..]);
        }
        for h in (0..first_leaf).rev() {
            let (parent, children) = boxes.split_at_mut(w * (2 * h + 1));
            let (l, r) = children[..2 * w].split_at(w);
            let b = &mut parent[w * h..];
            for c in 0..dim {
                b[c] = l[c].min(r[c]);
                b[dim + c] = l[dim + c].max(r[dim + c]);
            }
        }
        KdTree { dim, depth, points: leaf_points, ids, boxes }
    }

    /// Fills `best` with the `best.len()` training rows nearest to `q`,
    /// ranked by `(distance, index)`: exactly what a scan of every row
    /// would pick, ties going to the earliest index. A subtree is skipped
    /// only when its box's lower bound is *strictly* above the current
    /// k-th distance — an equal distance could still win on index.
    ///
    /// `best` must arrive filled with `(+∞, usize::MAX)` sentinels. The
    /// traversal stack is fixed-size, so the search never allocates.
    /// Always inlined, so a caller passing a constant `metric` gets a copy
    /// of the loop with the metric's `match` folded away.
    #[inline(always)]
    fn nearest(&self, metric: Distance, q: &[f64], best: &mut [(f64, usize)]) {
        let (dim, n) = (self.dim, self.ids.len());
        let first_leaf = (1usize << self.depth) - 1;
        let bound = |h: usize| {
            let b = &self.boxes[2 * dim * h..2 * dim * (h + 1)];
            metric.lower_bound(q, &b[..dim], &b[dim..])
        };
        let mut stack = [(0usize, 0.0f64); MAX_DEPTH];
        let mut sp = 0;
        let (mut h, mut lb) = (0usize, 0.0f64);
        loop {
            if lb <= best[best.len() - 1].0 {
                if h < first_leaf {
                    // Descend into the nearer child; come back for the other.
                    let (l, r) = (2 * h + 1, 2 * h + 2);
                    let (lb_l, lb_r) = (bound(l), bound(r));
                    let (near, far) =
                        if lb_l <= lb_r { ((l, lb_l), (r, lb_r)) } else { ((r, lb_r), (l, lb_l)) };
                    stack[sp] = far;
                    sp += 1;
                    (h, lb) = near;
                    continue;
                }
                let j = h - first_leaf;
                let (start, end) = (span_start(n, self.depth, j), span_start(n, self.depth, j + 1));
                for r in start..end {
                    let d = metric.eval(q, &self.points[r * dim..(r + 1) * dim]);
                    offer(best, d, self.ids[r]);
                }
            }
            if sp == 0 {
                return;
            }
            sp -= 1;
            (h, lb) = stack[sp];
        }
    }
}

/// Writes the bounding box of the row-major `rows` into `b` (`dim` lows
/// then `dim` highs).
fn fit_box(b: &mut [f64], rows: &[f64]) {
    let dim = b.len() / 2;
    let (lo, hi) = b.split_at_mut(dim);
    lo.fill(f64::INFINITY);
    hi.fill(f64::NEG_INFINITY);
    for row in rows.chunks_exact(dim) {
        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
            if v < *l {
                *l = v;
            }
            if v > *h {
                *h = v;
            }
        }
    }
}

/// Offers `(d, i)` to the sorted top-k buffer `best`, keeping the k
/// smallest pairs in lexicographic `(distance, index)` order whatever
/// order the pairs arrive in.
#[inline]
fn offer(best: &mut [(f64, usize)], d: f64, i: usize) {
    let mut pos = best.len() - 1;
    let (kd, ki) = best[pos];
    // One predictable compare dismisses most candidates.
    if d > kd || (d == kd && i > ki) {
        return;
    }
    // Insertion step: shift larger pairs up one slot (k is tiny).
    while pos > 0 {
        let (bd, bi) = best[pos - 1];
        if bd < d || (bd == d && bi < i) {
            break;
        }
        best[pos] = best[pos - 1];
        pos -= 1;
    }
    best[pos] = (d, i);
}

/// A trained k-NN classifier over labelled points in feature space.
///
/// # Examples
///
/// ```
/// use appclass_core::class::AppClass;
/// use appclass_core::knn::KnnClassifier;
/// use appclass_linalg::Matrix;
///
/// // Two clusters in 2-D feature space.
/// let points = Matrix::from_rows(&[
///     vec![1.0, 0.0], vec![1.1, 0.1], vec![0.9, -0.1],   // CPU
///     vec![-1.0, 0.0], vec![-1.1, 0.1], vec![-0.9, -0.1], // Idle
/// ]).unwrap();
/// let labels = vec![
///     AppClass::Cpu, AppClass::Cpu, AppClass::Cpu,
///     AppClass::Idle, AppClass::Idle, AppClass::Idle,
/// ];
/// let knn = KnnClassifier::paper(points, labels).unwrap(); // 3-NN, Euclidean
/// assert_eq!(knn.classify(&[0.8, 0.0]).unwrap(), AppClass::Cpu);
/// assert_eq!(knn.classify(&[-0.8, 0.0]).unwrap(), AppClass::Idle);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    points: Matrix,
    labels: Vec<AppClass>,
    distance: Distance,
    /// The neighbour index over `points`. Derived, so excluded from the
    /// serialized form and rebuilt on deserialization.
    index: KdTree,
}

impl KnnClassifier {
    /// Builds a classifier from training points (rows) and their labels.
    ///
    /// `k` must be odd and positive (the paper uses 3). If fewer training
    /// points than `k` exist, every vote uses all of them. Non-finite
    /// coordinates are rejected: they would poison both the distances and
    /// the index's bounding boxes.
    pub fn new(
        k: usize,
        points: Matrix,
        labels: Vec<AppClass>,
        distance: Distance,
    ) -> Result<Self> {
        if k == 0 || k.is_multiple_of(2) {
            return Err(Error::BadK { k });
        }
        if points.rows() == 0 || points.cols() == 0 || labels.is_empty() {
            return Err(Error::NoTrainingData);
        }
        if points.rows() != labels.len() {
            return Err(Error::FeatureMismatch { expected: points.rows(), got: labels.len() });
        }
        points.check_finite().map_err(Error::Linalg)?;
        let index = KdTree::build(&points);
        Ok(KnnClassifier { k, points, labels, distance, index })
    }

    /// The paper's configuration: 3-NN with Euclidean distance.
    pub fn paper(points: Matrix, labels: Vec<AppClass>) -> Result<Self> {
        KnnClassifier::new(3, points, labels, Distance::Euclidean)
    }

    /// Number of training points.
    pub fn n_training(&self) -> usize {
        self.points.rows()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.points.cols()
    }

    /// `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The training points (rows, in feature space).
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// The training labels, parallel to [`KnnClassifier::points`] rows.
    pub fn labels(&self) -> &[AppClass] {
        &self.labels
    }

    /// Classifies one point: the majority vote of its k nearest training
    /// neighbours, ties broken by the nearest neighbour among the tied
    /// classes.
    ///
    /// Non-finite coordinates are rejected: a NaN distance would silently
    /// corrupt the nearest-neighbour selection.
    pub fn classify(&self, point: &[f64]) -> Result<AppClass> {
        if point.len() != self.dim() {
            return Err(Error::FeatureMismatch { expected: self.dim(), got: point.len() });
        }
        if let Some(col) = point.iter().position(|v| !v.is_finite()) {
            return Err(Error::Linalg(appclass_linalg::Error::NonFinite { row: 0, col }));
        }
        Ok(self.classify_valid(point))
    }

    /// [`KnnClassifier::classify`] of a point already known to have the
    /// right width and only finite coordinates.
    fn classify_valid(&self, point: &[f64]) -> AppClass {
        // The top-k buffer lives on the stack for any reasonable k, so the
        // streaming path does not allocate.
        const STACK_K: usize = 32;
        let k = self.k.min(self.n_training());
        let mut stack_buf = [(f64::INFINITY, usize::MAX); STACK_K];
        let mut heap_buf: Vec<(f64, usize)>;
        let best: &mut [(f64, usize)] = if k <= STACK_K {
            &mut stack_buf[..k]
        } else {
            heap_buf = vec![(f64::INFINITY, usize::MAX); k];
            &mut heap_buf
        };
        match self.distance {
            Distance::Euclidean => self.index.nearest(Distance::Euclidean, point, best),
            Distance::Manhattan => self.index.nearest(Distance::Manhattan, point, best),
            Distance::Chebyshev => self.index.nearest(Distance::Chebyshev, point, best),
        }

        let mut counts = [0usize; 5];
        for &(_, i) in best.iter() {
            counts[self.labels[i].index()] += 1;
        }
        let max_count = *counts.iter().max().expect("five classes");
        // Tie-break: the nearest neighbour whose class has max_count wins.
        best.iter()
            .map(|&(_, i)| self.labels[i])
            .find(|c| counts[c.index()] == max_count)
            .expect("k >= 1 neighbours")
    }

    /// Classifies every row of a sample matrix — the paper's class vector
    /// `C(1×m)`: each row exactly as [`KnnClassifier::classify`] would,
    /// fanned out over threads when the batch is large.
    pub fn classify_batch(&self, samples: &Matrix) -> Result<Vec<AppClass>> {
        if samples.cols() != self.dim() {
            return Err(Error::FeatureMismatch { expected: self.dim(), got: samples.cols() });
        }
        // Validate up front so the parallel path below cannot encounter a
        // per-row error it would have to swallow.
        samples.check_finite().map_err(Error::Linalg)?;
        let m = samples.rows();
        const PAR_THRESHOLD: usize = 512;
        if m < PAR_THRESHOLD {
            return Ok(samples.iter_rows().map(|r| self.classify_valid(r)).collect());
        }
        let chunk = m.div_ceil(knn_threads());
        let mut out = vec![AppClass::Idle; m];
        let rows: Vec<&[f64]> = samples.iter_rows().collect();
        crossbeam::scope(|s| {
            for (slot_chunk, row_chunk) in out.chunks_mut(chunk).zip(rows.chunks(chunk)) {
                s.spawn(move |_| {
                    for (slot, row) in slot_chunk.iter_mut().zip(row_chunk) {
                        *slot = self.classify_valid(row);
                    }
                });
            }
        })
        .expect("knn worker panicked");
        Ok(out)
    }
}

// `index` is a cache derived from `points`; the wire format carries only
// the four defining fields (same JSON shape the former derive produced),
// and deserialization rebuilds the index — and re-runs construction
// validation — via `KnnClassifier::new`.
impl Serialize for KnnClassifier {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("k".to_string(), self.k.to_value()),
            ("points".to_string(), self.points.to_value()),
            ("labels".to_string(), self.labels.to_value()),
            ("distance".to_string(), self.distance.to_value()),
        ])
    }
}

impl Deserialize for KnnClassifier {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let field = |name: &str| v.get(name).ok_or_else(|| DeError::missing_field(name));
        let k = usize::from_value(field("k")?)?;
        let points = Matrix::from_value(field("points")?)?;
        let labels = Vec::<AppClass>::from_value(field("labels")?)?;
        let distance = Distance::from_value(field("distance")?)?;
        KnnClassifier::new(k, points, labels, distance)
            .map_err(|e| DeError(format!("invalid knn classifier: {e}")))
    }
}

impl Stage for KnnClassifier {
    fn name(&self) -> &'static str {
        "knn"
    }

    /// `B(m×q) → C(m×1)`: classifies every row, emitting the class vector
    /// as a class-index column (decode with
    /// [`decode_classes`](crate::stage::decode_classes)).
    fn transform_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
        let labels = self.classify_batch(input)?;
        encode_classes(&labels, out);
        Ok(())
    }
}

impl StreamingStage for KnnClassifier {
    fn transform_row_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let class = self.classify(input)?;
        out.clear();
        out.push(class.index() as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clusters on the x axis: class Cpu at x=+10, class Idle at x=-10.
    fn two_clusters() -> KnnClassifier {
        let points = Matrix::from_rows(&[
            vec![10.0, 0.0],
            vec![10.5, 0.2],
            vec![9.5, -0.2],
            vec![-10.0, 0.0],
            vec![-10.5, 0.1],
            vec![-9.5, -0.1],
        ])
        .unwrap();
        let labels = vec![
            AppClass::Cpu,
            AppClass::Cpu,
            AppClass::Cpu,
            AppClass::Idle,
            AppClass::Idle,
            AppClass::Idle,
        ];
        KnnClassifier::paper(points, labels).unwrap()
    }

    #[test]
    fn classifies_cluster_membership() {
        let knn = two_clusters();
        assert_eq!(knn.classify(&[9.0, 0.0]).unwrap(), AppClass::Cpu);
        assert_eq!(knn.classify(&[-9.0, 0.5]).unwrap(), AppClass::Idle);
    }

    #[test]
    fn one_nn_memorizes_training_set() {
        let points = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let labels = vec![AppClass::Cpu, AppClass::Io, AppClass::Net];
        let knn = KnnClassifier::new(1, points, labels, Distance::Euclidean).unwrap();
        assert_eq!(knn.classify(&[1.0]).unwrap(), AppClass::Cpu);
        assert_eq!(knn.classify(&[2.0]).unwrap(), AppClass::Io);
        assert_eq!(knn.classify(&[3.0]).unwrap(), AppClass::Net);
    }

    #[test]
    fn majority_beats_single_nearest() {
        // Nearest point is Io, but two Cpu points are next: 3-NN → Cpu.
        let points = Matrix::from_rows(&[vec![0.0], vec![0.3], vec![0.4], vec![100.0]]).unwrap();
        let labels = vec![AppClass::Io, AppClass::Cpu, AppClass::Cpu, AppClass::Net];
        let knn = KnnClassifier::paper(points, labels).unwrap();
        assert_eq!(knn.classify(&[0.05]).unwrap(), AppClass::Cpu);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        // k=3 with three distinct classes → 1-1-1 tie → nearest wins.
        let points = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let labels = vec![AppClass::Mem, AppClass::Io, AppClass::Net];
        let knn = KnnClassifier::paper(points, labels).unwrap();
        assert_eq!(knn.classify(&[1.1]).unwrap(), AppClass::Mem);
        assert_eq!(knn.classify(&[2.9]).unwrap(), AppClass::Net);
    }

    #[test]
    fn k_validation() {
        let p = Matrix::from_rows(&[vec![0.0]]).unwrap();
        let l = vec![AppClass::Cpu];
        assert!(matches!(
            KnnClassifier::new(0, p.clone(), l.clone(), Distance::Euclidean),
            Err(Error::BadK { k: 0 })
        ));
        assert!(matches!(
            KnnClassifier::new(2, p.clone(), l.clone(), Distance::Euclidean),
            Err(Error::BadK { k: 2 })
        ));
        assert!(KnnClassifier::new(5, p, l, Distance::Euclidean).is_ok());
    }

    #[test]
    fn label_count_must_match() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(KnnClassifier::paper(p, vec![AppClass::Cpu]).is_err());
    }

    #[test]
    fn k_larger_than_training_set_uses_all() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let knn = KnnClassifier::new(5, p, vec![AppClass::Cpu, AppClass::Cpu], Distance::Euclidean)
            .unwrap();
        assert_eq!(knn.classify(&[10.0]).unwrap(), AppClass::Cpu);
    }

    #[test]
    fn batch_matches_pointwise() {
        let knn = two_clusters();
        let queries =
            Matrix::from_rows(&[vec![8.0, 1.0], vec![-8.0, 1.0], vec![11.0, -1.0]]).unwrap();
        let batch = knn.classify_batch(&queries).unwrap();
        for (i, row) in queries.iter_rows().enumerate() {
            assert_eq!(batch[i], knn.classify(row).unwrap());
        }
    }

    #[test]
    fn large_batch_parallel_path_consistent() {
        let knn = two_clusters();
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|i| vec![if i % 2 == 0 { 9.0 } else { -9.0 }, (i % 7) as f64 * 0.1])
            .collect();
        let big = Matrix::from_rows(&rows).unwrap();
        let batch = knn.classify_batch(&big).unwrap();
        for (i, c) in batch.iter().enumerate() {
            let expected = if i % 2 == 0 { AppClass::Cpu } else { AppClass::Idle };
            assert_eq!(*c, expected, "row {i}");
        }
    }

    /// The regression test for the `available_parallelism`-per-call bug:
    /// batch output must be bitwise-identical to the per-row streaming
    /// path on both sides of the 512-row thread split, whatever the
    /// thread count.
    #[test]
    fn batch_bitwise_identical_to_streaming() {
        // A deliberately tie-heavy training set: duplicated points with
        // different labels force the earliest-index tie rule to matter.
        let points = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![-3.0, 0.5],
            vec![-3.0, 0.5],
            vec![0.0, 0.0],
            vec![4.0, -4.0],
            vec![4.0, -4.0],
        ])
        .unwrap();
        let labels = vec![
            AppClass::Cpu,
            AppClass::Io,
            AppClass::Net,
            AppClass::Mem,
            AppClass::Idle,
            AppClass::Io,
            AppClass::Cpu,
        ];
        let knn = KnnClassifier::paper(points, labels).unwrap();
        // 1500 rows crosses PAR_THRESHOLD; many land exactly on training
        // points or midway between duplicates (exact distance ties).
        let rows: Vec<Vec<f64>> = (0..1500)
            .map(|i| match i % 5 {
                0 => vec![1.0, 2.0],
                1 => vec![-3.0, 0.5],
                2 => vec![-1.0, 1.25],
                3 => vec![(i % 11) as f64 * 0.7 - 3.5, (i % 13) as f64 * 0.5 - 3.0],
                _ => vec![2.5, -1.0],
            })
            .collect();
        let big = Matrix::from_rows(&rows).unwrap();
        let batched = knn.classify_batch(&big).unwrap();
        for (i, row) in big.iter_rows().enumerate() {
            assert_eq!(batched[i], knn.classify(row).unwrap(), "row {i} diverged");
        }
        // A sub-threshold slice takes the sequential batch path.
        let small = Matrix::from_rows(&rows[..64]).unwrap();
        let small_batched = knn.classify_batch(&small).unwrap();
        assert_eq!(&small_batched[..], &batched[..64]);
    }

    #[test]
    fn huge_magnitude_batch_falls_back_exactly() {
        // Coordinates near the overflow edge: the batch path (under the
        // 512-row split) must still match streaming bitwise.
        let points =
            Matrix::from_rows(&[vec![1e155, 0.0], vec![-1e155, 1.0], vec![2e154, -0.5]]).unwrap();
        let labels = vec![AppClass::Cpu, AppClass::Net, AppClass::Mem];
        let knn = KnnClassifier::new(1, points, labels, Distance::Euclidean).unwrap();
        let queries =
            Matrix::from_rows(&[vec![9e154, 1.0], vec![-9e154, 0.0], vec![2.1e154, -0.5]]).unwrap();
        let batched = knn.classify_batch(&queries).unwrap();
        for (i, row) in queries.iter_rows().enumerate() {
            assert_eq!(batched[i], knn.classify(row).unwrap(), "row {i}");
        }
    }

    #[test]
    fn dimension_checks() {
        let knn = two_clusters();
        assert!(knn.classify(&[1.0]).is_err());
        assert!(knn.classify_batch(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn alternative_distances_work() {
        for d in [Distance::Manhattan, Distance::Chebyshev] {
            let points = Matrix::from_rows(&[vec![5.0, 5.0], vec![-5.0, -5.0]]).unwrap();
            let knn = KnnClassifier::new(1, points, vec![AppClass::Net, AppClass::Mem], d).unwrap();
            assert_eq!(knn.classify(&[4.0, 4.0]).unwrap(), AppClass::Net);
            assert_eq!(knn.classify(&[-4.0, -6.0]).unwrap(), AppClass::Mem);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let knn = two_clusters();
        let json = serde_json::to_string(&knn).unwrap();
        let back: KnnClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(knn, back);
        // The derived caches are rebuilt, not shipped on the wire.
        assert!(!json.contains("norms"));
    }

    #[test]
    fn new_rejects_non_finite_points() {
        let labels = vec![AppClass::Cpu, AppClass::Io];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, bad]]).unwrap();
            assert_eq!(
                KnnClassifier::paper(p, labels.clone()).unwrap_err(),
                Error::Linalg(appclass_linalg::Error::NonFinite { row: 1, col: 1 })
            );
        }
    }

    #[test]
    fn featureless_points_rejected() {
        let p = Matrix::zeros(3, 0);
        let labels = vec![AppClass::Cpu; 3];
        assert_eq!(KnnClassifier::paper(p, labels).unwrap_err(), Error::NoTrainingData);
    }

    #[test]
    fn deserialize_rejects_overflowing_point() {
        // `1e400` parses to +∞; a model payload carrying one must not
        // install an infinite training point.
        let points = Matrix::from_rows(&[vec![7.25, 0.0], vec![-1.0, 0.0]]).unwrap();
        let knn = KnnClassifier::paper(points, vec![AppClass::Cpu, AppClass::Idle]).unwrap();
        let json = serde_json::to_string(&knn).unwrap();
        assert!(json.contains("7.25"));
        let bad = json.replacen("7.25", "1e400", 1);
        let err = serde_json::from_str::<KnnClassifier>(&bad).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn deserialize_validates() {
        let knn = two_clusters();
        let json = serde_json::to_string(&knn).unwrap();
        let bad = json.replacen("\"k\":3", "\"k\":2", 1);
        assert!(serde_json::from_str::<KnnClassifier>(&bad).is_err());
    }
}
