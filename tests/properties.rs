//! Property-based integration tests over the public pipeline API.
//!
//! These hold for *any* input the generators produce, not just the
//! benchmark suite: compositions are probability vectors, classification
//! is deterministic and permutation-consistent, normalization parameters
//! come from training data only, and the cost model is linear.

use appclass::core::cost::{CostModel, ResourceRates};
use appclass::metrics::METRIC_COUNT;
use appclass::prelude::*;
use proptest::prelude::*;

/// Builds a raw run whose expert metrics are driven by three intensity
/// knobs (cpu%, io blocks, net bytes).
fn raw_run(rows: usize, cpu: f64, io: f64, net: f64, phase: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, METRIC_COUNT);
    for i in 0..rows {
        let w = 1.0 + 0.05 * (((i as u64 + phase) % 7) as f64 - 3.0);
        m[(i, MetricId::CpuUser.index())] = cpu * w;
        m[(i, MetricId::CpuSystem.index())] = cpu * 0.1 * w;
        m[(i, MetricId::IoBi.index())] = io * w;
        m[(i, MetricId::IoBo.index())] = io * 1.4 * w;
        m[(i, MetricId::BytesOut.index())] = net * w;
        m[(i, MetricId::BytesIn.index())] = net * 0.05 * w;
    }
    m
}

fn trained() -> ClassifierPipeline {
    let runs = vec![
        (raw_run(30, 85.0, 0.0, 0.0, 0), AppClass::Cpu),
        (raw_run(30, 5.0, 3000.0, 0.0, 1), AppClass::Io),
        (raw_run(30, 8.0, 0.0, 2.0e7, 2), AppClass::Net),
        (raw_run(30, 0.3, 0.0, 0.0, 3), AppClass::Idle),
    ];
    ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn composition_is_probability_vector(
        rows in 1usize..60,
        cpu in 0.0f64..100.0,
        io in 0.0f64..5000.0,
        net in 0.0f64..3.0e7,
        phase in 0u64..7,
    ) {
        let pipeline = trained();
        let raw = raw_run(rows, cpu, io, net, phase);
        let result = pipeline.classify(&raw).unwrap();
        prop_assert!((result.composition.total() - 1.0).abs() < 1e-9);
        for (_, f) in result.composition.iter() {
            prop_assert!((0.0..=1.0).contains(&f));
        }
        prop_assert_eq!(result.class, result.composition.majority());
    }

    #[test]
    fn classification_is_deterministic(
        cpu in 0.0f64..100.0,
        io in 0.0f64..5000.0,
        net in 0.0f64..3.0e7,
    ) {
        let pipeline = trained();
        let raw = raw_run(20, cpu, io, net, 0);
        let a = pipeline.classify(&raw).unwrap();
        let b = pipeline.classify(&raw).unwrap();
        prop_assert_eq!(a.class, b.class);
        prop_assert_eq!(a.class_vector, b.class_vector);
    }

    #[test]
    fn snapshot_order_does_not_change_composition(
        cpu in 0.0f64..100.0,
        io in 0.0f64..5000.0,
    ) {
        let pipeline = trained();
        let raw = raw_run(24, cpu, io, 0.0, 0);
        // Reverse the snapshot order.
        let reversed_rows: Vec<usize> = (0..raw.rows()).rev().collect();
        let reversed = raw.select_rows(&reversed_rows).unwrap();
        let a = pipeline.classify(&raw).unwrap();
        let b = pipeline.classify(&reversed).unwrap();
        prop_assert_eq!(a.composition, b.composition);
    }

    #[test]
    fn extreme_training_like_inputs_recover_their_class(strength in 0.7f64..1.3) {
        let pipeline = trained();
        let cpu = pipeline.classify(&raw_run(10, 85.0 * strength, 0.0, 0.0, 0)).unwrap();
        prop_assert_eq!(cpu.class, AppClass::Cpu);
        let io = pipeline.classify(&raw_run(10, 5.0, 3000.0 * strength, 0.0, 0)).unwrap();
        prop_assert_eq!(io.class, AppClass::Io);
        let net = pipeline.classify(&raw_run(10, 8.0, 0.0, 2.0e7 * strength, 0)).unwrap();
        prop_assert_eq!(net.class, AppClass::Net);
    }

    #[test]
    fn cost_model_is_linear_and_monotone(
        idle in 0.0f64..1.0,
        scale in 0.1f64..10.0,
    ) {
        let comp = ClassComposition::from_fractions(idle, 1.0 - idle, 0.0, 0.0, 0.0).unwrap();
        let rates = ResourceRates { cpu: 10.0, mem: 8.0, io: 6.0, net: 4.0, idle: 1.0 };
        let scaled = ResourceRates {
            cpu: rates.cpu * scale,
            mem: rates.mem * scale,
            io: rates.io * scale,
            net: rates.net * scale,
            idle: rates.idle * scale,
        };
        let base = CostModel::new(rates).unit_cost(&comp);
        let scaled_cost = CostModel::new(scaled).unit_cost(&comp);
        prop_assert!((scaled_cost - base * scale).abs() < 1e-9);
        // More idle time can never cost more under positive rates where
        // idle is the cheapest class.
        let more_idle =
            ClassComposition::from_fractions((idle + 0.1).min(1.0), 1.0 - (idle + 0.1).min(1.0), 0.0, 0.0, 0.0)
                .unwrap();
        prop_assert!(CostModel::new(rates).unit_cost(&more_idle) <= base + 1e-9);
    }

    /// k-NN batch classification must agree bitwise (same label, same
    /// tie-breaks) with the per-row streaming path for any training set
    /// — including grids dense with exact ties and midpoints that sit
    /// numerically between neighbours. Every batch here is under the
    /// 512-row thread split; `batch_bitwise_identical_to_streaming` in
    /// `core::knn` covers both sides of it.
    #[test]
    fn blocked_knn_batch_matches_scalar_streaming(
        dim in 1usize..5,
        n_train in 4usize..24,
        k_half in 0usize..3,
        seed in 0u64..1000,
        scale_idx in 0usize..4,
    ) {
        use appclass::core::knn::{Distance, KnnClassifier};
        let scale = [1.0f64, 1e-3, 1e3, 1e6][scale_idx];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Coarse integer grid: duplicate coordinates and tied distances
        // are the common case, not the exception.
        let mut grid = move || ((next() % 5) as f64 - 2.0) * scale;
        let points: Vec<Vec<f64>> =
            (0..n_train).map(|_| (0..dim).map(|_| grid()).collect()).collect();
        let labels: Vec<AppClass> = (0..n_train).map(|i| AppClass::ALL[i % 5]).collect();
        let knn = KnnClassifier::new(
            2 * k_half + 1, // k must be odd
            Matrix::from_rows(&points).unwrap(),
            labels,
            Distance::Euclidean,
        )
        .unwrap();
        // Queries: every training point (exact zero distances), each
        // adjacent midpoint (near-ties), and off-grid points.
        let mut queries: Vec<Vec<f64>> = points.clone();
        for w in points.windows(2) {
            queries.push(w[0].iter().zip(&w[1]).map(|(a, b)| 0.5 * (a + b)).collect());
        }
        for _ in 0..8 {
            queries.push((0..dim).map(|_| grid() + 0.5 * scale).collect());
        }
        let qm = Matrix::from_rows(&queries).unwrap();
        let batch = knn.classify_batch(&qm).unwrap();
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(knn.classify(q).unwrap(), batch[i], "query row {}", i);
        }
    }

    /// The k-d tree search behind `classify` and `classify_batch` must
    /// pick exactly the neighbours a scan of every training row picks —
    /// earliest index on exact distance ties, nearest neighbour among
    /// tied classes — for every metric and `k`, on training sets large
    /// enough for a tree of several levels, with grids dense in exact
    /// ties so that the strict pruning rule is what keeps the answer.
    #[test]
    fn indexed_knn_matches_bruteforce(
        dim in 1usize..=5,
        n_train in 1usize..=400,
        k_idx in 0usize..3,
        metric_idx in 0usize..3,
        grid in 2u64..12,
        seed in 0u64..1000,
        scale_idx in 0usize..4,
    ) {
        use appclass::core::knn::{Distance, KnnClassifier};
        use appclass::linalg::vector;
        let k = [1usize, 3, 5][k_idx];
        let metric = [Distance::Euclidean, Distance::Manhattan, Distance::Chebyshev][metric_idx];
        let scale = [1.0f64, 1e-3, 1e3, 1e6][scale_idx];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let width = 2 * grid + 1;
        let points: Vec<Vec<f64>> = (0..n_train)
            .map(|_| (0..dim).map(|_| ((next() % width) as f64 - grid as f64) * scale).collect())
            .collect();
        let labels: Vec<AppClass> = (0..n_train).map(|_| AppClass::ALL[(next() % 5) as usize]).collect();
        let knn = KnnClassifier::new(k, Matrix::from_rows(&points).unwrap(), labels.clone(), metric)
            .unwrap();

        let distance = |a: &[f64], b: &[f64]| match metric {
            Distance::Euclidean => vector::sq_euclidean(a, b),
            Distance::Manhattan => vector::manhattan(a, b),
            Distance::Chebyshev => vector::chebyshev(a, b),
        };
        let oracle = |q: &[f64]| {
            let mut ranked: Vec<(f64, usize)> =
                points.iter().enumerate().map(|(i, p)| (distance(q, p), i)).collect();
            ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let nearest = &ranked[..k.min(n_train)];
            let mut counts = [0usize; 5];
            for &(_, i) in nearest {
                counts[labels[i].index()] += 1;
            }
            let top = *counts.iter().max().unwrap();
            nearest.iter().map(|&(_, i)| labels[i]).find(|c| counts[c.index()] == top).unwrap()
        };

        // Queries: every training point (exact zero distances), each
        // adjacent midpoint (ties between neighbours), off-grid points and
        // points beyond the grid.
        let mut queries: Vec<Vec<f64>> = points.clone();
        for w in points.windows(2) {
            queries.push(w[0].iter().zip(&w[1]).map(|(a, b)| 0.5 * (a + b)).collect());
        }
        for _ in 0..16 {
            let far = if next() % 2 == 0 { 1.0 } else { 3.0 };
            queries.push(
                (0..dim)
                    .map(|_| (((next() % width) as f64 - grid as f64) * far + 0.5) * scale)
                    .collect(),
            );
        }
        let want: Vec<AppClass> = queries.iter().map(|q| oracle(q)).collect();
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(knn.classify(q).unwrap(), want[i], "query row {}", i);
        }
        // The same queries, cycled into one batch of at least 512 rows so
        // the threaded row split runs too.
        let rows = queries.len().max(512);
        let tiled: Vec<Vec<f64>> = queries.iter().cycle().take(rows).cloned().collect();
        let batch = knn.classify_batch(&Matrix::from_rows(&tiled).unwrap()).unwrap();
        for (i, c) in batch.iter().enumerate() {
            prop_assert_eq!(*c, want[i % queries.len()], "batch row {}", i);
        }
    }

    #[test]
    fn frame_and_batch_paths_agree(
        cpu in 0.0f64..100.0,
        io in 0.0f64..5000.0,
        net in 0.0f64..3.0e7,
    ) {
        let pipeline = trained();
        let raw = raw_run(6, cpu, io, net, 0);
        let batch = pipeline.classify(&raw).unwrap();
        for i in 0..raw.rows() {
            let frame = MetricFrame::from_values(raw.row(i)).unwrap();
            prop_assert_eq!(pipeline.classify_frame(&frame).unwrap(), batch.class_vector[i]);
        }
    }
}
