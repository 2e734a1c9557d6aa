//! `perfbench`: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream-batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the root of a checkout. It builds `appclass` in release mode,
//! generates every input from the seed, starts `appclass serve --shards 1`
//! as a separate process on loopback (except for `offline-pool`, which
//! has no I/O), drives it, checks every verdict and every server counter,
//! and prints one JSON result line last. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` records spans around every layer call,
//! writes them under the build directory, and prints the per-layer
//! metrics. See `perfbench/README.md` for the workloads.

mod affinity;
mod check;
mod inputs;
mod layers;
mod openloop;
mod report;
mod run;
mod server;
mod stats;
mod trace;

use inputs::{Extra, Inputs};
use run::Measured;
use server::{Admission, Server};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Slices of an untraced closed-loop run. Many short slices, so that the
/// median slice is one the host's occasional stalls did not touch.
const SLICES: usize = 20;
/// Rounds of the fleet's phases.
const FLEET_ROUNDS: usize = 5;
/// Passes of the per-layer replay in a traced run.
const REPLAY_PASSES: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, acknowledged batches of 32.
    StreamBatch,
    /// Closed loop, one acknowledged frame per round trip.
    StreamSingle,
    /// Open loop at three diurnal rates and a tight-admission phase, with swaps.
    FleetDiurnal,
    /// The §5.3 pool experiment, in process.
    OfflinePool,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamBatch,
        Workload::StreamSingle,
        Workload::FleetDiurnal,
        Workload::OfflinePool,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamBatch => "stream-batch",
            Workload::StreamSingle => "stream-single",
            Workload::FleetDiurnal => "fleet-diurnal",
            Workload::OfflinePool => "offline-pool",
        }
    }

    /// Snapshots per control frame.
    fn width(self) -> usize {
        match self {
            Workload::StreamSingle => 1,
            _ => run::BATCH,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    match bench() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The host facts printed beside every result.
struct HostFacts {
    parallelism: usize,
    cpu_model: String,
    rustc: String,
}

impl HostFacts {
    fn read() -> HostFacts {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        HostFacts { parallelism, cpu_model, rustc }
    }

    fn line(&self, threads: usize, connections: usize, cpu: Option<usize>) -> String {
        let HostFacts { parallelism, cpu_model, rustc } = self;
        format!(
            "{{\"available_parallelism\":{parallelism},\"cpu_model\":{cpu_model:?},\"rustc\":{rustc:?},\
             \"generator_threads\":{threads},\"generator_connections\":{connections},\"server_shards\":1,\
             \"pinned_cpu\":{}}}",
            cpu.map_or("null".to_string(), |c| c.to_string())
        )
    }
}

fn bench() -> Result<(), String> {
    let args = parse_args()?;

    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/appclass.rs").is_file() {
        return Err("run from the root of an appclass checkout".to_string());
    }
    let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join(".bench_build"),
    };
    let out_dir = target_dir.join("perfbench-out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let workload = args.workload;
    let bin = match workload {
        Workload::OfflinePool => None,
        _ => Some(server::build(&root, &target_dir)?),
    };
    // The host facts are read before any pinning, which narrows what
    // `available_parallelism` reports.
    let host_facts = HostFacts::read();
    let nproc = host_facts.parallelism;
    // One process generates the load, with no more threads and
    // connections than the host has cores.
    let connections = match workload {
        Workload::FleetDiurnal => nproc,
        Workload::OfflinePool => 0,
        _ => 1,
    };
    let threads = connections.max(1);
    // The served workloads keep the generator, the server and their
    // threads on one CPU (see `affinity`); `offline-pool` keeps every
    // allowed CPU, so its threaded k-NN batch fans out over all of them.
    let cpu = match workload {
        Workload::OfflinePool => None,
        _ => affinity::allowed().first().copied().filter(|&c| affinity::pin_current(c)),
    };
    let host = host_facts.line(threads, connections, cpu);
    let phase_s = args.seconds / (FLEET_ROUNDS * inputs::FLEET_PHASES.len()) as f64;
    let extra = match workload {
        Workload::FleetDiurnal => Extra::Fleet { rounds: FLEET_ROUNDS, phase_s },
        Workload::OfflinePool => Extra::Pools,
        _ => Extra::None,
    };
    let model_path = out_dir.join(format!("model-{}-{}.json", workload.name(), args.seed));

    // Set-up, repeated: inputs, models, and a started server.
    let (mut setup_s, mut sim_s, mut train_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared: Option<(Inputs, Option<Server>)> = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let inputs = inputs::generate(args.seed, extra)?;
        std::fs::write(&model_path, &inputs.jsons[0]).map_err(|e| e.to_string())?;
        let server = match &bin {
            Some(bin) => Some(Server::start(bin, &model_path, Admission::ROOMY, cpu)?),
            None => None,
        };
        setup_s.push(t.elapsed().as_secs_f64());
        sim_s.push(inputs.sim_s);
        train_s.push(inputs.train_s);
        if rep + 1 == SETUP_REPS {
            prepared = Some((inputs, server));
        } else if let Some(server) = server {
            server.stop();
        }
    }
    let (inputs, server) = prepared.expect("at least one set-up");

    // The load runs in windows: slices of the closed loops, rounds of
    // the fleet's phases. The result reports medians over them. A
    // traced closed loop alternates untraced and traced slices (ABBA) to
    // measure tracing's cost; a traced fleet traces every round.
    let mut tracer = Tracer::new(args.trace);
    let order: Vec<bool> = match (workload, args.trace) {
        (Workload::FleetDiurnal, traced) => vec![traced; FLEET_ROUNDS],
        (_, true) => vec![false, true, true, false],
        (_, false) => vec![false; SLICES],
    };
    let slice_s = args.seconds / order.len() as f64;
    let (mut stream, mut first) = match workload {
        Workload::FleetDiurnal => (None, server),
        _ => (server.map(|s| run::StreamLoad::new(&inputs, s, workload.width())), None),
    };
    let mut offline = run::OfflineLoad::new(&inputs);
    let fleet = bin.as_deref().map(|bin| run::FleetSetup {
        bin,
        model_path: &model_path,
        phase_s,
        connections,
        cpu,
    });
    let (mut measured, mut plain) = (Measured::default(), Measured::default());
    let mut sid_base = 0u64;
    for (k, &traced) in order.iter().enumerate() {
        let mut off = Tracer::new(false);
        let tr = if traced { &mut tracer } else { &mut off };
        let part = match (workload, &mut stream, &fleet) {
            (Workload::FleetDiurnal, _, Some(setup)) => {
                run::fleet_round(&inputs, setup, k, first.take(), &mut sid_base, tr)?
            }
            (Workload::OfflinePool, _, _) => offline.run(slice_s, tr)?,
            (_, Some(load), _) => load.run(slice_s, tr)?,
            _ => unreachable!("served workloads start a server"),
        };
        if traced == args.trace {
            measured.absorb(part);
        } else {
            plain.absorb(part);
        }
    }
    let untraced_rate = (plain.wall_s > 0.0).then(|| plain.samples as f64 / plain.wall_s);
    measured.attempted += plain.attempted;
    measured.failed += plain.failed;
    let m = match (workload, stream) {
        (Workload::OfflinePool, _) => offline.finish(measured)?,
        (_, Some(load)) => load.finish(measured)?,
        _ => measured,
    };

    println!("# host {host}");
    println!("# workload {} seed {} seconds {}", workload.name(), args.seed, args.seconds);
    if args.trace {
        let values = per_layer(
            &inputs,
            &m,
            &mut tracer,
            workload,
            &sim_s,
            &train_s,
            untraced_rate,
            threads,
            connections,
        )?;
        let spans = out_dir.join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
        tracer.write(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("# spans {}", spans.display());
        println!("{}", report::result_line(m.attempted, m.failed, &report::PER_LAYER, &values)?);
    } else {
        let (values, detail) = end_to_end(&m, &setup_s, workload)?;
        println!("# detail {detail}");
        println!("{}", report::result_line(m.attempted, m.failed, &report::END_TO_END, &values)?);
    }
    Ok(())
}

/// The end-to-end metrics and a detail line with every percentile's
/// sample count and the quantile actually reported.
fn end_to_end(
    m: &Measured,
    setup_s: &[f64],
    workload: Workload,
) -> Result<(BTreeMap<&'static str, f64>, String), String> {
    let mut v = BTreeMap::new();
    let mut detail = Vec::new();
    // A percentile per window, then the median over windows; the detail
    // line names the smallest window's sample count and quantile.
    let mut windowed = |name: &'static str, q: f64, pick: fn(&run::Window) -> &[f64]| {
        let mut values = Vec::new();
        let mut fewest: Option<stats::Pct> = None;
        for w in &m.windows {
            let samples = pick(w);
            let p = percentile(samples, q).ok_or_else(|| {
                format!("{name}: a window has only {} samples, too few to report", samples.len())
            })?;
            if fewest.is_none_or(|f| p.samples < f.samples) {
                fewest = Some(p);
            }
            values.push(p.value);
        }
        let f = fewest.ok_or_else(|| format!("{name}: the run has no windows"))?;
        detail.push(format!(
            "\"{name}\":{{\"quantile\":{:.4},\"samples\":{},\"windows\":{}}}",
            f.quantile,
            f.samples,
            values.len()
        ));
        Ok::<f64, String>(median(&values))
    };
    v.insert("latency_p50_us", windowed("latency_p50_us", 0.5, |w| &w.latency_us)?);
    v.insert("session_p50_ms", windowed("session_p50_ms", 0.5, |w| &w.session_ms)?);
    // The tails are too unsteady on a small shared host to bound (see
    // README); the detail line reports them, the traced run per layer.
    let tails = [
        ("latency_p99_us", windowed("latency_p99_us", 0.99, |w| &w.latency_us)?),
        ("session_p99_ms", windowed("session_p99_ms", 0.99, |w| &w.session_ms)?),
    ];
    let swap = percentile(&m.swap_ms, 0.5)
        .ok_or_else(|| format!("swap_p50_ms: only {} swaps", m.swap_ms.len()))?;
    detail.push(format!(
        "\"swap_p50_ms\":{{\"quantile\":{:.4},\"samples\":{}}}",
        swap.quantile, swap.samples
    ));
    let rate = |i: usize| median(&m.windows.iter().map(|w| w.rates[i]).collect::<Vec<_>>());
    v.insert("setup_s", median(setup_s));
    v.insert("frames_per_s", rate(0));
    v.insert("served_fraction", rate(3));
    v.insert("sustained_vms_per_s", rate(2));
    v.insert("swap_p50_ms", swap.value);
    v.insert("samples_per_s", rate(1));
    let peak = match workload {
        Workload::OfflinePool => server::vm_hwm_mb("/proc/self/status")?,
        _ => m.servers.iter().map(|s| s.peak_rss_mb).fold(0.0, f64::max),
    };
    v.insert("peak_rss_mb", peak);
    let mut line = format!("{{{}", detail.join(","));
    for (name, value) in tails {
        line.push_str(&format!(",\"{name}_value\":{value}"));
    }
    line.push_str(&format!(
        ",\"setup_runs_s\":{setup_s:?},\"due\":{},\"served\":{},\"busy\":{},\"rejected\":{},\"wall_s\":{:.4}",
        m.due, m.served, m.busy, m.rejected, m.wall_s
    ));
    if !m.phases.is_empty() {
        line.push_str(&format!(
            ",\"session_limit_ms\":{},\"served_share\":{},\"phases\":[{}]",
            run::SESSION_LIMIT_MS,
            run::SERVED_SHARE,
            m.phases.join(",")
        ));
    }
    line.push('}');
    Ok((v, line))
}

/// Per-layer metrics of a traced run: the load's own spans plus an
/// in-process replay of the frames the load sent.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    inputs: &Inputs,
    m: &Measured,
    tracer: &mut Tracer,
    workload: Workload,
    sim_s: &[f64],
    train_s: &[f64],
    untraced_rate: Option<f64>,
    threads: usize,
    connections: usize,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut sid = 1u64 << 40;
    let counts = layers::replay(
        &inputs.models[0],
        &m.sent,
        workload.width(),
        REPLAY_PASSES,
        tracer,
        &mut sid,
    )?;
    let mut v = BTreeMap::new();
    let ns = |name: &str| tracer.ns_per_item(name);
    let tail = |samples: &[f64], q: f64| percentile(samples, q).map_or(0.0, |p| p.value);
    v.insert("sim.streams_s", median(sim_s));
    v.insert("core.pipeline.train_s", median(train_s));
    v.insert("core.pipeline.classify_ns_per_sample", ns("core.pipeline.classify"));
    v.insert("core.preprocess.ns_per_row", ns("core.preprocess.apply"));
    v.insert("core.pca.ns_per_row", ns("core.pca.transform"));
    v.insert("core.knn.ns_per_row.w1", ns("core.knn.classify"));
    v.insert("core.knn.ns_per_row.w32", ns("core.knn.classify_batch.w32"));
    v.insert("core.knn.ns_per_row.pool", ns("core.knn.classify_batch.pool"));
    let push = ns("core.online.push_guarded");
    let push_batch = ns("core.online.push_batch_guarded");
    let admit = ns("metrics.repair.admit");
    v.insert("core.online.push_ns_per_frame", push);
    v.insert("core.online.push_batch_ns_per_frame", push_batch);
    v.insert(
        "core.online.vote_self_ns_per_frame",
        push - admit - ns("core.pipeline.classify_frame"),
    );
    v.insert("metrics.repair.admit_ns", admit);
    v.insert("metrics.repair.usable_ratio", counts.admitted as f64 / counts.seen.max(1) as f64);
    let decode = ns("metrics.wire.decode");
    v.insert("metrics.wire.encode_ns_per_frame", ns("metrics.wire.encode"));
    v.insert("metrics.wire.decode_ns_per_frame", decode);
    v.insert("metrics.wire.bytes_per_frame", counts.bytes as f64 / counts.frames.max(1) as f64);
    v.insert("metrics.filter.extract_ns_per_snapshot", ns("metrics.filter.extract"));

    let served = !m.servers.is_empty();
    let connect = tracer.durations_us("serve.client.connect");
    let call = tracer.durations_us("serve.client.call");
    let classify = tracer.durations_us("serve.client.classify");
    v.insert("serve.client.connect_us.p50", tail(&connect, 0.5));
    v.insert("serve.client.connect_us.p99", tail(&connect, 0.99));
    v.insert("serve.client.call_us.p50", tail(&call, 0.5));
    v.insert("serve.client.call_us.p99", tail(&call, 0.99));
    v.insert("serve.client.classify_us.p50", tail(&classify, 0.5));
    v.insert("serve.client.session_ms.p99", if served { tail(&m.session_ms, 0.99) } else { 0.0 });
    v.insert("serve.client.busy", m.busy as f64);
    v.insert("serve.client.rejected", m.rejected as f64);
    v.insert("serve.client.errors", m.failed as f64);

    // Server side, summed over the run's server processes.
    let cpu_s: f64 = m.servers.iter().map(|s| s.during.cpu_s).sum();
    let ctx: u64 = m.servers.iter().map(|s| s.during.ctx_switches).sum();
    let sum = |f: fn(&server::Scraped) -> u64| m.servers.iter().map(|s| f(&s.scraped)).sum::<u64>();
    let frames_in = sum(|s| s.frames_in);
    let sessions = sum(|s| s.sessions_started);
    let cpu_us_per_frame = if served { cpu_s * 1e6 / frames_in.max(1) as f64 } else { 0.0 };
    // What the server computes per frame: decode the batch, then the
    // guarded batch push (admit, preprocess, PCA, k-NN, vote).
    let layer_sum_us = if served { (decode + push_batch) / 1e3 } else { 0.0 };
    v.insert("serve.server.cpu_us_per_frame", cpu_us_per_frame);
    v.insert(
        "serve.server.cpu_us_per_session",
        if served { cpu_s * 1e6 / sessions.max(1) as f64 } else { 0.0 },
    );
    v.insert("serve.server.ctx_switches_per_frame", ctx as f64 / frames_in.max(1) as f64);
    v.insert("serve.server.layer_sum_us_per_frame", layer_sum_us);
    v.insert("serve.server.unattributed_us_per_frame", cpu_us_per_frame - layer_sum_us);
    let main = m.servers.get(m.main_server).map(|s| s.scraped).unwrap_or_default();
    v.insert("serve.server.classify_us.p50", main.classify_us.0);
    v.insert("serve.server.classify_us.p99", main.classify_us.1);
    v.insert("serve.server.swap_us.p50", main.swap_us_p50);
    v.insert("serve.server.frames_in", frames_in as f64);
    v.insert("serve.server.sessions_started", sessions as f64);
    v.insert("serve.server.shed", sum(|s| s.shed) as f64);
    v.insert("serve.server.rejected", sum(|s| s.rejected) as f64);
    v.insert("serve.server.swaps", sum(|s| s.swaps) as f64);
    v.insert("bench.gen.lag_ms.p99", tail(&m.lag_ms, 0.99));
    v.insert("bench.gen.backlog_max", m.backlog_max as f64);
    v.insert("bench.gen.threads", threads as f64);
    v.insert("bench.gen.connections", connections as f64);
    let traced_rate = m.samples as f64 / m.wall_s;
    v.insert(
        "bench.trace.overhead_pct",
        untraced_rate.map_or(0.0, |plain| (plain - traced_rate) / plain * 100.0),
    );
    if served {
        let knn = match workload.width() {
            1 => ns("core.knn.classify"),
            _ => ns("core.knn.classify_batch.w32"),
        };
        let (pre, pca) = (ns("core.preprocess.apply"), ns("core.pca.transform"));
        println!(
            "# layers per frame (us): decode {:.3} + admit {:.3} + preprocess {:.3} + pca {:.3} + knn {:.3} + vote {:.3} \
             = {:.3} of server cpu {:.3}; unattributed (socket i/o, poll wakeups, handshakes, swaps) {:.3}",
            decode / 1e3,
            admit / 1e3,
            pre / 1e3,
            pca / 1e3,
            knn / 1e3,
            (push_batch - admit - pre - pca - knn) / 1e3,
            layer_sum_us,
            cpu_us_per_frame,
            cpu_us_per_frame - layer_sum_us
        );
    }
    Ok(v)
}
