//! Seeded end-to-end benchmark of the ptychography job engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gd-solve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the workload again with client spans and replays every layer at
//! the workload's shapes, printing the per-layer metrics. Both check the
//! outputs and exit non-zero on any violation. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The line before it is the run's full record (medians, quartiles, sample
//! counts). See `perfbench/README.md` for the workloads and metrics.

mod e2e;
mod layers;
mod stats;
mod workload;

use e2e::{Env, Setup, Window, SETUP_MIN_REPS, SETUP_MIN_SECONDS};
use layers::Tracer;
use ptycho_cluster::{Cluster, ClusterTopology, LockstepBackend};
use ptycho_core::{
    CheckpointStore, DurabilityHook, GradientDecompositionSolver, HaloVoxelExchangeSolver,
    IterationProgress, JobContext, JobEngine, ReconstructionResult, ServiceBackend, SolverMethod,
};
use ptycho_sim::dataset::Dataset;
use stats::{num, quote, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{Workload, RECV_TIMEOUT};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One reported metric: its unit and the samples behind it.
struct Metric {
    unit: &'static str,
    summary: Summary,
    /// The value on the result line: the median, the tail or the single
    /// measured value.
    value: f64,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64, summary: Summary) {
        self.metrics.insert(
            name,
            Metric {
                unit,
                summary,
                value,
                note: String::new(),
            },
        );
    }

    fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.put(name, unit, summary.median, summary);
    }

    fn single(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.put(name, unit, value, Summary::single(value));
    }

    fn note(&mut self, name: &str, note: String) {
        if let Some(metric) = self.metrics.get_mut(name) {
            metric.note = note;
        }
    }
}

/// A direct `run_job` of the reference job, outside the service.
struct DirectRun {
    result: ReconstructionResult,
    wall: Duration,
    /// `(rank, iteration, when)` of every progress event.
    stamps: Vec<(usize, usize, Instant)>,
    start: Instant,
}

fn direct_run(env: &Env, dataset: &Dataset, lockstep: bool) -> Result<DirectRun, String> {
    let w = env.workload;
    let spec = w.reference_spec(dataset);
    let stamps = Mutex::new(Vec::new());
    let hook = |p: IterationProgress| {
        let now = Instant::now();
        stamps
            .lock()
            .expect("stamp list poisoned")
            .push((p.rank, p.iteration, now));
    };
    let recorder = w.records_telemetry().then(|| e2e::discarding_recorder(0));
    let dir = env.work.join("direct-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = if w.checkpoints() {
        Some(CheckpointStore::open(&dir).map_err(|e| format!("direct run store: {e}"))?)
    } else {
        None
    };
    let ctx = JobContext {
        progress: Some(&hook),
        telemetry: recorder.as_deref(),
        durability: store.as_ref().map(|store| DurabilityHook {
            store,
            resume: None,
            kill: None,
            spec: &[],
        }),
        ..JobContext::default()
    };
    let topology = ClusterTopology::summit();
    let start = Instant::now();
    let outcome = match (
        w.method(),
        lockstep || spec.backend == ServiceBackend::Lockstep,
    ) {
        (SolverMethod::GradientDecomposition, true) => GradientDecompositionSolver::new(
            dataset,
            spec.config,
            spec.grid,
        )
        .run_job(&LockstepBackend::new(topology), spec.recovery, &ctx),
        (SolverMethod::GradientDecomposition, false) => {
            GradientDecompositionSolver::new(dataset, spec.config, spec.grid).run_job(
                &Cluster::new(topology).with_recv_timeout(RECV_TIMEOUT),
                spec.recovery,
                &ctx,
            )
        }
        (SolverMethod::HaloVoxelExchange, on_lockstep) => {
            let solver = HaloVoxelExchangeSolver::new(dataset, spec.config, spec.grid)
                .map_err(|e| e.to_string())?;
            if on_lockstep {
                solver.run_job(&LockstepBackend::new(topology), spec.recovery, &ctx)
            } else {
                solver.run_job(
                    &Cluster::new(topology).with_recv_timeout(RECV_TIMEOUT),
                    spec.recovery,
                    &ctx,
                )
            }
        }
    };
    let wall = start.elapsed();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let result = outcome.map_err(|f| format!("direct run failed: {f}"))?;
    Ok(DirectRun {
        result,
        wall,
        stamps: stamps.into_inner().expect("stamp list poisoned"),
        start,
    })
}

/// Per-rank iteration durations from the progress timestamps, in ms.
fn iteration_ms(run: &DirectRun) -> Vec<f64> {
    let mut by_rank: BTreeMap<usize, Vec<(usize, Instant)>> = BTreeMap::new();
    for &(rank, iteration, at) in &run.stamps {
        by_rank.entry(rank).or_default().push((iteration, at));
    }
    let mut out = Vec::new();
    for stamps in by_rank.values_mut() {
        stamps.sort_by_key(|&(iteration, at)| (iteration, at));
        let mut prev = run.start;
        for &(_, at) in stamps.iter() {
            out.push((at - prev).as_secs_f64() * 1e3);
            prev = at;
        }
    }
    out
}

/// Runs the timed window of the workload.
fn window(env: &Env, setup: &Setup, seconds: f64, tracer: Option<&mut Tracer>) -> Window {
    if env.workload.is_open_loop() {
        // A fresh engine per window: dead nodes never return to a fleet.
        let fresh;
        let engine = if tracer.is_some() {
            fresh = JobEngine::new(env.fleet());
            &fresh
        } else {
            &setup.engine
        };
        let mut out = e2e::open_loop(env, &setup.dataset, engine, seconds, tracer);
        out.failures.extend(check_engine(engine));
        out
    } else {
        let mut out = e2e::closed_loop(env, setup, seconds, tracer);
        out.failures.extend(check_engine(&setup.engine));
        out
    }
}

/// Fleet conservation and zero lost flight-recorder records.
fn check_engine(engine: &JobEngine) -> Vec<String> {
    let mut failures = Vec::new();
    if !engine.fleet_is_conserved() {
        failures.push("fleet conservation violated".to_string());
    }
    let lost = e2e::lost_records(engine);
    if lost != 0 {
        failures.push(format!("{lost} flight-recorder record(s) lost"));
    }
    failures
}

fn run(args: &Args, process_start: Instant) -> Result<(Report, usize, Vec<String>), String> {
    let env = Env {
        workload: args.workload,
        seed: args.seed,
        work: std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench-work")
            .join(format!("{}-{}", args.workload.name(), std::process::id())),
    };
    std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;
    let outcome = if args.trace {
        traced(&env, args)
    } else {
        untraced(&env, args, process_start)
    };
    let _ = std::fs::remove_dir_all(&env.work);
    if let Some(parent) = env.work.parent() {
        // Succeeds only once no other run is using the directory.
        let _ = std::fs::remove_dir(parent);
    }
    outcome
}

fn untraced(
    env: &Env,
    args: &Args,
    process_start: Instant,
) -> Result<(Report, usize, Vec<String>), String> {
    let w = env.workload;
    let setup = e2e::setup(env)?;
    let to_first_submission = process_start.elapsed().as_secs_f64();
    let mut out = window(env, &setup, args.seconds, None);
    let attempted = out.attempted;
    let mut setup_s = setup.setup_s.clone();
    setup_s.extend(e2e::setup(env)?.setup_s);

    // Correctness outside the window: the lockstep reference volume.
    let reference_hash = if w.backend() == ServiceBackend::Lockstep {
        e2e::volume_hash(&setup.reference)
    } else {
        let reference = direct_run(env, &setup.dataset, true)?;
        let hash = e2e::volume_hash(&reference.result);
        if hash != e2e::volume_hash(&setup.reference) {
            out.failures
                .push("the warm-up volume differs from the lockstep reference".into());
        }
        hash
    };
    e2e::check_hashes(&mut out, (w.reference_grid(), reference_hash));

    let mut report = Report::default();
    report.median("setup_s", "s", &setup_s);
    report.note(
        "setup_s",
        format!(
            "median of {} set-ups, at least {SETUP_MIN_REPS} and {SETUP_MIN_SECONDS} s \
             of them before the window and after it; process start to first timed \
             submission {to_first_submission:.3} s",
            setup_s.len()
        ),
    );
    let latency = Summary::of(&out.latency_ms);
    report.put("job_ms_p50", "ms", latency.median, latency);
    let whole = format!("p{:.1} of {} jobs", latency.tail_pct, latency.n);
    if out.rounds.is_empty() {
        report.put("job_ms_tail", "ms", latency.tail, latency);
        report.note("job_ms_tail", whole);
    } else {
        let tails: Vec<f64> = out.rounds.iter().map(|r| r.tail).collect();
        let per_round: Vec<String> = out
            .rounds
            .iter()
            .map(|r| format!("p{:.1} of {} = {:.3} ms", r.tail_pct, r.n, r.tail))
            .collect();
        let summary = Summary::of(&tails);
        report.put("job_ms_tail", "ms", summary.median, summary);
        report.note(
            "job_ms_tail",
            format!(
                "median of the rounds' tails ({}); over the whole window {whole} = {:.3} ms",
                per_round.join(", "),
                latency.tail
            ),
        );
    }
    report.single("jobs_per_s", "1/s", out.completed as f64 / out.window_s);
    let failed = out.failures.len().min(attempted);
    report.single(
        "ok_frac",
        "ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    report.median("resume_ms_p50", "ms", &out.resume_ms);
    report.single("peak_rank_mib", "MiB", e2e::peak_rank_mib(&setup.reference));
    report.single("peak_rss_mib", "MiB", out.peak_rss_mib);
    report.single("cost_ratio", "ratio", e2e::cost_ratio(&setup.reference));
    Ok((report, attempted, out.failures))
}

fn traced(env: &Env, args: &Args) -> Result<(Report, usize, Vec<String>), String> {
    let w = env.workload;
    let setup = e2e::setup(env)?;
    let half = args.seconds / 2.0;
    let mut plain = window(env, &setup, half, None);
    let mut tracer = Tracer::default();
    let mut out = window(env, &setup, half, Some(&mut tracer));
    let attempted = plain.attempted + out.attempted;

    let direct = direct_run(env, &setup.dataset, false)?;
    let reference = if w.backend() == ServiceBackend::Lockstep {
        direct
    } else {
        let lockstep = direct_run(env, &setup.dataset, true)?;
        if e2e::volume_hash(&lockstep.result) != e2e::volume_hash(&direct.result) {
            out.failures
                .push("threaded direct run differs from the lockstep reference".into());
        }
        // Iteration times are taken on the workload's own backend.
        DirectRun {
            stamps: direct.stamps,
            start: direct.start,
            ..lockstep
        }
    };
    let reference_hash = e2e::volume_hash(&reference.result);
    e2e::check_hashes(&mut plain, (w.reference_grid(), reference_hash));
    e2e::check_hashes(&mut out, (w.reference_grid(), reference_hash));
    out.failures.append(&mut plain.failures);
    let layers = layers::replay(env, &setup.dataset, setup.reference_records, &mut tracer)?;

    let mut r = Report::default();
    r.median("sim.synthesize_ms", "ms", &setup.synth_ms);
    r.single("fft.calls", "count", layers.fft_calls as f64);
    r.single("fft.busy_ms", "ms", layers.fft_ms);
    r.single("fft.mflop_s", "Mflop/s", layers.fft_mflop_s);
    r.single("sim.forward.calls", "count", layers.forward_calls as f64);
    r.single("sim.forward.busy_ms", "ms", layers.forward_self_ms);
    r.single("sim.gradient.calls", "count", layers.gradient_calls as f64);
    r.single("sim.gradient.self_ms", "ms", layers.gradient_self_ms);
    r.single("sim.patch.calls", "count", layers.patch_calls as f64);
    r.single("sim.patch.busy_ms", "ms", layers.patch_ms);
    r.single("sim.patch.mib", "MiB", layers.patch_mib);
    r.single("passes.calls", "count", layers.passes_calls as f64);
    r.single("passes.busy_ms", "ms", layers.passes_ms);
    r.single("passes.msgs", "count", layers.passes_msgs as f64);
    r.single("passes.mib", "MiB", layers.passes_mib);
    r.single("backend.roundtrip_us", "us", layers.roundtrip_us);
    r.single("stitch.busy_ms", "ms", layers.stitch_ms);
    r.single("telemetry.records", "count", setup.reference_records as f64);
    // Closed loops run both halves on one engine, whose counter is
    // cumulative; each open-loop half has its own engine.
    let lost = if w.is_open_loop() {
        plain.lost_records + out.lost_records
    } else {
        out.lost_records
    };
    r.single("telemetry.lost", "count", lost as f64);
    r.single("telemetry.record_ns", "ns", layers.record_ns);
    r.median("engine.iter_ms_p50", "ms", &iteration_ms(&reference));
    r.median("engine.wait_share", "ratio", &out.wait_share);
    r.single(
        "engine.restarts",
        "count",
        reference.result.recovery.iteration_restarts as f64,
    );
    r.median("service.submit_us_p50", "us", &out.submit_us);
    let queue = Summary::of(&out.queue_ms);
    r.put("service.queue_ms_p50", "ms", queue.median, queue);
    r.put("service.queue_ms_tail", "ms", queue.tail, queue);
    r.median("service.run_ms_p50", "ms", &out.run_ms);
    r.single("service.heals", "count", out.heals as f64);
    r.single("durability.write_slot_ms", "ms", layers.write_slot_ms);
    r.single("durability.commit_ms", "ms", layers.commit_ms);
    r.single("durability.recover_ms", "ms", layers.recover_ms);
    r.single("durability.mib_per_epoch", "MiB", layers.mib_per_epoch);
    r.single("durability.epochs", "count", layers.epochs as f64);
    let t_ref = reference.wall.as_secs_f64() * 1e3;
    r.single(
        "trace.unattributed_share",
        "ratio",
        (t_ref - layers.attributed_ms()) / t_ref,
    );
    r.note(
        "trace.unattributed_share",
        format!(
            "lockstep reference job {t_ref:.1} ms, replayed layers {:.1} ms",
            layers.attributed_ms()
        ),
    );
    let untraced_p50 = Summary::of(&plain.latency_ms).median;
    let traced_p50 = Summary::of(&out.latency_ms).median;
    r.single(
        "trace.overhead_share",
        "ratio",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    r.single(
        "loadgen.late_ms_max",
        "ms",
        plain.late_ms_max.max(out.late_ms_max),
    );
    for (name, parent, spans, calls, total) in tracer.summary() {
        eprintln!(
            "perfbench: span {name:<18} parent {:<13} spans {spans:>5} calls {calls:>6} {total:>10.3} ms",
            parent.unwrap_or("-"),
        );
    }
    Ok((r, attempted, out.failures))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <gd-solve|hve-solve|gd-passes|service-durable> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let (report, attempted, failures) = match run(&args, process_start) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let correct = failures.is_empty();
    let failed = failures.len().min(attempted);

    println!(
        "perfbench {} seed {} seconds {} trace {}: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if correct { "correct" } else { "INCORRECT" }
    );
    println!(
        "  {:<26} {:<8} {:>12} {:>12} {:>12} {:>6}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for (name, m) in &report.metrics {
        println!(
            "  {:<26} {:<8} {:>12.4} {:>12.4} {:>12.4} {:>6}  value {:.4} {}",
            name,
            m.unit,
            m.summary.median,
            m.summary.q1,
            m.summary.q3,
            m.summary.n,
            m.value,
            m.note
        );
    }
    for failure in &failures {
        println!("  FAILED: {failure}");
    }

    let record_metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"note\": {}}}",
                quote(name),
                num(m.value),
                quote(m.unit),
                num(m.summary.median),
                num(m.summary.q1),
                num(m.summary.q3),
                m.summary.n,
                quote(&m.note)
            )
        })
        .collect();
    let failure_list: Vec<String> = failures.iter().map(|f| quote(f)).collect();
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}}}",
        quote(args.workload.name()),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        failure_list.join(", "),
        record_metrics.join(", ")
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
