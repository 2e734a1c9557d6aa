//! k-NN neighbour search: batch sizes, training-pool shapes and the
//! cost of building the index.
//!
//! Every classification runs through the static k-d tree `KnnClassifier`
//! builds over its training points: an exact search that scores the rows
//! of a few leaves instead of every training row. The batch groups time
//! `classify_batch` across batch sizes (≥ 512 rows fan out over threads),
//! with the row-by-row streaming path over the same rows as the baseline.
//! The `knn_build` group times `KnnClassifier::new` — the index build a
//! model parse pays — next to `ClassifierPipeline::from_json` of the same
//! trained model, so the build's share of a model swap is visible.

use appclass_bench::fixtures::trained_pipeline;
use appclass_core::knn::{Distance, KnnClassifier};
use appclass_core::pipeline::ClassifierPipeline;
use appclass_core::AppClass;
use appclass_linalg::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Deterministic uniform values in `[-10, 10)` (xorshift; no RNG
/// dependency).
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    }
}

/// Deterministic synthetic matrix, uniform over `[-10, 10)^cols`.
fn synth(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut next = uniform(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).expect("rows*cols data")
}

/// The paper's shape: 677 training rows in two PC dimensions, in five
/// tight class clusters (row `i` belongs to class `i % 5`), and queries
/// scattered around the same clusters.
fn paper_shape(queries: usize) -> (KnnClassifier, Matrix) {
    const CENTRES: [[f64; 2]; 5] =
        [[6.0, 0.5], [-2.0, 4.0], [-3.0, -3.5], [1.0, -1.0], [-7.0, 0.0]];
    let mut next = uniform(11);
    let mut cluster = |n: usize, spread: f64| -> Vec<f64> {
        (0..n).flat_map(|i| CENTRES[i % 5].map(|c| c + spread * next() / 10.0)).collect()
    };
    let points = Matrix::from_vec(677, 2, cluster(677, 0.8)).expect("677x2");
    let labels: Vec<AppClass> = (0..677).map(|i| AppClass::ALL[i % 5]).collect();
    let knn = KnnClassifier::paper(points, labels).expect("valid classifier");
    let queries = Matrix::from_vec(queries, 2, cluster(queries, 2.0)).expect("queries x 2");
    (knn, queries)
}

fn uniform_classifier(n_train: usize, dim: usize) -> KnnClassifier {
    let points = synth(n_train, dim, 7);
    let labels: Vec<AppClass> = (0..n_train).map(|i| AppClass::ALL[i % 5]).collect();
    KnnClassifier::new(3, points, labels, Distance::Euclidean).expect("valid classifier")
}

/// Batch classification across batch sizes, against the streaming
/// baseline, on the paper's shape, a small uniform pool and a wider one.
fn bench_knn_batch(c: &mut Criterion) {
    let (paper, paper_queries) = paper_shape(1024);
    let shapes = [
        ("knn_batch_paper_n677_d2".to_string(), paper, paper_queries),
        ("knn_batch_n150_d2".to_string(), uniform_classifier(150, 2), synth(1024, 2, 99)),
        ("knn_batch_n1500_d8".to_string(), uniform_classifier(1500, 8), synth(1024, 8, 99)),
    ];
    for (name, knn, pool) in shapes {
        let mut group = c.benchmark_group(name);
        group.sample_size(20);
        for m in [1usize, 32, 256, 1024] {
            let rows: Vec<usize> = (0..m).collect();
            let queries = pool.select_rows(&rows).expect("m <= 1024");
            group.bench_function(format!("batch{m}"), |b| {
                b.iter(|| knn.classify_batch(black_box(&queries)).unwrap())
            });
        }
        // The streaming baseline over the same 256 rows the batch256 case
        // classifies in one call.
        group.bench_function("streaming256", |b| {
            b.iter(|| {
                (0..256).map(|i| knn.classify(black_box(pool.row(i))).unwrap()).collect::<Vec<_>>()
            })
        });
        group.finish();
    }
}

/// The index build against a whole model parse, on a trained paper
/// pipeline. `new` includes cloning the points and labels it consumes.
fn bench_knn_build(c: &mut Criterion) {
    let pipeline = trained_pipeline(42);
    let json = pipeline.to_json().expect("model serializes");
    let knn = pipeline.knn();
    let mut group = c.benchmark_group(format!("knn_build_n{}_d{}", knn.n_training(), knn.dim()));
    group.sample_size(200);
    group.bench_function("KnnClassifier::new", |b| {
        b.iter(|| {
            KnnClassifier::new(
                knn.k(),
                black_box(knn.points()).clone(),
                knn.labels().to_vec(),
                Distance::Euclidean,
            )
            .unwrap()
        })
    });
    group.bench_function("ClassifierPipeline::from_json", |b| {
        b.iter(|| ClassifierPipeline::from_json(black_box(&json)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_knn_batch, bench_knn_build);
criterion_main!(benches);
