//! Workload inputs, all derived from the seed: the Table 3 test-app
//! telemetry streams, two trained models to swap between, the fleet's
//! arrival plans and the §5.3 subnet pools.

use appclass::core::{ClassifierPipeline, PipelineConfig};
use appclass::linalg::Matrix;
use appclass::metrics::{DataPool, NodeId, Snapshot};
use appclass::sim::fleet::{FleetConfig, FleetPlan};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::{test_specs, training_specs};
use std::sync::Arc;
use std::time::Instant;

/// Snapshot cadence of replayed fleet streams, in simulated seconds.
pub const CADENCE_SECS: u64 = 5;
/// Target-VM snapshots per §5.3 pool (the paper's pool size).
pub const POOL_SAMPLES: usize = 8_000;
/// Node whose snapshots a pool's filter extracts.
pub const POOL_TARGET: NodeId = NodeId(1);
/// The other node whose chatter fills the rest of each pool.
const POOL_CHATTER: NodeId = NodeId(2);

/// One fixed-rate phase of the fleet workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPhase {
    /// Mean arrival rate over the phase, VMs per second.
    pub rate: f64,
    /// Whether the server admits fewer sessions than the generator has
    /// connections, so admission control refuses some. Tight phases are
    /// outside the sustained-rate ladder.
    pub tight: bool,
}

/// The phases of one fleet round: a ladder of three mean rates with
/// roomy admission, lowest first, for the sustained-rate rule; then the
/// top rate again, same plan, with tight admission, for shedding.
pub const FLEET_PHASES: [FleetPhase; 4] = [
    FleetPhase { rate: 150.0, tight: false },
    FleetPhase { rate: 300.0, tight: false },
    FleetPhase { rate: 600.0, tight: false },
    FleetPhase { rate: 600.0, tight: true },
];

/// Everything a workload runs on.
pub struct Inputs {
    /// Test-app names, parallel to `streams`.
    pub names: Vec<&'static str>,
    /// Each test app's target-node snapshot stream.
    pub streams: Vec<Arc<Vec<Snapshot>>>,
    /// The two models the workloads swap between.
    pub models: [Arc<ClassifierPipeline>; 2],
    /// Their JSON serialisations (what a swap sends).
    pub jsons: [String; 2],
    /// Their fingerprints.
    pub ids: [u64; 2],
    /// One arrival plan per fleet phase, round after round (fleet
    /// workload only).
    pub plans: Vec<FleetPlan>,
    /// One §5.3 pool per test app (offline workload only).
    pub pools: Vec<DataPool>,
    /// Seconds spent simulating streams, training runs, plans and pools.
    pub sim_s: f64,
    /// Seconds spent in `ClassifierPipeline::train`.
    pub train_s: f64,
}

/// What to build beyond the streams and models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Extra {
    /// Nothing else.
    None,
    /// Fleet plans for `rounds` rounds of phases of `phase_s` seconds.
    Fleet { rounds: usize, phase_s: f64 },
    /// §5.3 pools.
    Pools,
}

/// Builds every input from `seed`. Deterministic: the same seed gives
/// the same streams, models, plans and pools.
pub fn generate(seed: u64, extra: Extra) -> Result<Inputs, String> {
    let sim_start = Instant::now();
    let specs = test_specs();
    let names: Vec<&'static str> = specs.iter().map(|s| s.name).collect();
    let streams: Vec<Arc<Vec<Snapshot>>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let rec = run_spec(spec, NodeId(10 + i as u32), seed.wrapping_add(i as u64));
            Arc::new(rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect())
        })
        .collect();
    // The two models differ only in the seed of their training runs: the
    // second is "the same model, retrained".
    let training = [training_runs(seed)?, training_runs(seed ^ 0x5eed_0f0b)?];
    let plans = match extra {
        Extra::Fleet { rounds, phase_s } => {
            (0..rounds).flat_map(|round| fleet_plans(seed, round, phase_s, streams.len())).collect()
        }
        _ => Vec::new(),
    };
    let pools = match extra {
        Extra::Pools => (0..streams.len()).map(|i| pool(&streams, i)).collect(),
        _ => Vec::new(),
    };
    let sim_s = sim_start.elapsed().as_secs_f64();

    let train_start = Instant::now();
    let config = PipelineConfig::paper();
    let models = [
        Arc::new(ClassifierPipeline::train(&training[0], &config).map_err(|e| e.to_string())?),
        Arc::new(ClassifierPipeline::train(&training[1], &config).map_err(|e| e.to_string())?),
    ];
    let train_s = train_start.elapsed().as_secs_f64();
    let json = |m: &ClassifierPipeline| m.to_json().map_err(|e| e.to_string());
    let jsons = [json(&models[0])?, json(&models[1])?];
    let ids = [models[0].model_id(), models[1].model_id()];
    if ids[0] == ids[1] {
        return Err("the two trained models share a fingerprint".to_string());
    }
    Ok(Inputs { names, streams, models, jsons, ids, plans, pools, sim_s, train_s })
}

/// The five labelled training runs, simulated one after another.
fn training_runs(seed: u64) -> Result<Vec<(Matrix, appclass::core::AppClass)>, String> {
    training_specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let rec = run_spec(spec, NodeId(100 + i as u32), seed.wrapping_add(i as u64));
            rec.pool
                .sample_matrix(rec.node)
                .map(|m| (m, appclass::expected_class(spec.expected)))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One round's plans, one per fleet phase: `rate × phase_s` VMs over a
/// simulated day that the phase compresses into `phase_s` seconds. The
/// day's shape (diurnal curve, bursts, frames per VM) is
/// `FleetConfig::default()`. Phases of the same rate replay the same plan.
fn fleet_plans(seed: u64, round: usize, phase_s: f64, workloads: usize) -> Vec<FleetPlan> {
    FLEET_PHASES
        .iter()
        .map(|phase| {
            let config = FleetConfig {
                vms: ((phase.rate * phase_s).round() as usize).max(1),
                workloads,
                ..FleetConfig::default()
            };
            let rung = FLEET_PHASES.iter().position(|p| p.rate == phase.rate).unwrap_or(0);
            let stream = (round * FLEET_PHASES.len() + rung) as u64 + 1;
            FleetPlan::generate(&config, seed ^ (stream << 48))
        })
        .collect()
}

/// A VM's stream: its app's base run cycled out to `frames` snapshots on
/// a clean cadence under the VM's own node id.
pub fn vm_stream(base: &[Snapshot], vm: u32, frames: usize) -> Vec<Snapshot> {
    (0..frames)
        .map(|i| {
            let mut s = base[i % base.len()].clone();
            s.node = NodeId(1_000 + vm);
            s.time = CADENCE_SECS * i as u64;
            s
        })
        .collect()
}

/// The §5.3 pool for app `i`: [`POOL_SAMPLES`] snapshots of the target
/// VM (its stream, cycled) interleaved with as many snapshots of another
/// node running the next app, as a subnet-wide monitor collects them.
fn pool(streams: &[Arc<Vec<Snapshot>>], i: usize) -> DataPool {
    let target = &streams[i];
    let chatter = &streams[(i + 1) % streams.len()];
    let mut pool = DataPool::new();
    for k in 0..POOL_SAMPLES {
        let time = CADENCE_SECS * k as u64;
        let t = &target[k % target.len()];
        pool.push(Snapshot::new(POOL_TARGET, time, t.frame.clone()));
        let c = &chatter[k % chatter.len()];
        pool.push(Snapshot::new(POOL_CHATTER, time, c.frame.clone()));
    }
    pool
}
