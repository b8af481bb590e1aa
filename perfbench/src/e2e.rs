//! The end-to-end part: set-up, the timed closed and open loops driven
//! through the public `JobEngine` API, and the correctness gate.

use crate::layers::{Span, Tracer};
use crate::stats::Summary;
use crate::workload::{SplitMix, Workload, SERVICE_GRIDS};
use ptycho_cluster::{CommError, CrashPhase, FaultPolicy};
use ptycho_core::durability::{fnv1a64, ByteWriter, CheckpointPayload};
use ptycho_core::{
    JobEngine, JobError, JobHandle, JobReport, JobSpec, JobState, ReconstructionResult,
};
use ptycho_sim::dataset::Dataset;
use ptycho_telemetry::{Telemetry, TelemetryConfig};
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up is timed repeatedly, at least `SETUP_MIN_REPS` times and for at
/// least `SETUP_MIN_SECONDS`, once before the timed window and once after
/// it, and the median of all is reported. One set-up lasts from 20 ms to
/// half a second, so set-ups taken for a second at both ends of the run
/// sample the host's speed over the same stretch as the window does.
pub const SETUP_MIN_REPS: usize = 4;
pub const SETUP_MIN_SECONDS: f64 = 1.0;
/// The open loop's tail is taken per round of the schedule, and the median
/// of the rounds' tails is reported: a second or two of host slowness slows
/// every job in it, and over the whole window those jobs alone would set
/// the tail.
pub const TAIL_ROUNDS: usize = 5;
/// On closed-loop workloads every this many-th job is replaced by a
/// kill/resume cycle.
pub const RESUME_EVERY: usize = 8;
/// Open-loop arrival rate of `service-durable`, in jobs per second.
pub const SERVICE_RATE: f64 = 20.0;
/// Closed loops read the peak resident set once this many jobs have
/// finished. The engine keeps every finished job's result, so reading it at
/// the end of the window would make a faster program look larger.
pub const RSS_JOBS: usize = 24;
/// Seeded rank deaths per `service-durable` window.
pub const SERVICE_DEATHS: usize = 3;
/// One `service-durable` job in this many is killed at its first durable
/// commit and resumed.
pub const SERVICE_KILL_EVERY: usize = 10;

const MIB: f64 = 1024.0 * 1024.0;

/// Where a run's inputs live and what it must not break.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    /// Scratch directory (checkpoint stores, traces) inside the checkout.
    pub work: PathBuf,
}

impl Env {
    pub fn fleet(&self) -> usize {
        if self.workload.is_open_loop() {
            4 + SERVICE_DEATHS
        } else {
            let (r, c) = self.workload.reference_grid();
            r * c
        }
    }
}

/// A JSONL sink shared by every job's flight recorder. Each flush hands the
/// writer whole lines in one `write_all`, so lines of concurrent jobs never
/// split.
#[derive(Clone)]
struct SharedWriter(Arc<Mutex<File>>);

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut file = self.0.lock().expect("trace file poisoned");
        file.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("trace file poisoned").flush()
    }
}

/// A recorder whose JSONL output is encoded and then discarded, so the
/// codec and flush run without disk traffic.
pub fn discarding_recorder(job_id: u64) -> Arc<Telemetry> {
    Arc::new(Telemetry::with_writer(
        TelemetryConfig {
            job_id,
            ..TelemetryConfig::default()
        },
        Box::new(std::io::sink()),
    ))
}

/// The FNV-1a-64 hash of a volume's exact encoding: equal hashes for
/// bit-identical volumes.
pub fn volume_hash(result: &ReconstructionResult) -> u64 {
    let mut w = ByteWriter::new();
    result.volume.encode(&mut w);
    fnv1a64(&w.into_bytes())
}

pub fn peak_rank_mib(result: &ReconstructionResult) -> f64 {
    let peak = result.memory.iter().map(|m| m.peak_total()).max();
    peak.unwrap_or(0) as f64 / MIB
}

pub fn cost_ratio(result: &ReconstructionResult) -> f64 {
    result.cost_history.final_cost() / result.cost_history.initial_cost()
}

/// Share of the ranks' summed time spent blocked on peers.
pub fn wait_share(result: &ReconstructionResult) -> f64 {
    let wait: f64 = result.time.iter().map(|t| t.wait).sum();
    let total: f64 = result.time.iter().map(|t| t.total()).sum();
    if total > 0.0 {
        wait / total
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn describe(report: &JobReport) -> String {
    format!(
        "job {} ended {:?}: {}",
        report.id,
        report.state,
        report
            .error
            .as_ref()
            .map_or_else(|| "no error".to_string(), |e| e.to_string())
    )
}

/// A completed job's result, or why it does not count as completed: not
/// `Completed`, or its cost did not decrease.
fn completed(report: &JobReport) -> Result<&ReconstructionResult, String> {
    match (&report.state, &report.result) {
        (JobState::Completed, Some(result)) => {
            let costs = &result.cost_history;
            if costs.final_cost() < costs.initial_cost() {
                Ok(result)
            } else {
                Err(format!(
                    "job {}: cost did not decrease ({} -> {})",
                    report.id,
                    costs.initial_cost(),
                    costs.final_cost()
                ))
            }
        }
        _ => Err(describe(report)),
    }
}

fn killed_at_first_commit(report: &JobReport) -> bool {
    matches!(
        &report.error,
        Some(JobError::Failed(failure))
            if matches!(failure.error, CommError::ProcessKilled { seq: 0, .. })
    )
}

/// The outcome of set-up: the dataset and engine the window runs on, plus
/// the reference job (the warm-up) and the set-up timings.
pub struct Setup {
    pub dataset: Dataset,
    pub engine: JobEngine,
    pub reference: ReconstructionResult,
    /// Flight-recorder records of the reference job (0 without a recorder).
    pub reference_records: u64,
    pub setup_s: Vec<f64>,
    pub synth_ms: Vec<f64>,
}

/// Synthesises the dataset, builds the engine and runs the warm-up job, at
/// least `SETUP_MIN_REPS` times and for at least `SETUP_MIN_SECONDS`; the
/// last repetition's state is kept.
pub fn setup(env: &Env) -> Result<Setup, String> {
    let w = env.workload;
    let mut setup_s = Vec::new();
    let mut synth_ms = Vec::new();
    let mut kept = None;
    let first = Instant::now();
    let mut rep = 0;
    while rep < SETUP_MIN_REPS || first.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        rep += 1;
        let start = Instant::now();
        let dataset = Dataset::synthesize(w.synthetic(env.seed));
        synth_ms.push(ms(start.elapsed()));
        let engine = JobEngine::new(env.fleet());
        let mut spec = w.reference_spec(&dataset);
        let recorder = w.records_telemetry().then(|| discarding_recorder(0));
        if let Some(recorder) = &recorder {
            spec = spec.with_telemetry(Arc::clone(recorder));
        }
        let store = env.work.join(format!("warmup-{rep}"));
        if w.checkpoints() {
            spec = spec.with_checkpoint_dir(&store);
        }
        let report = submit(&engine, spec)?.wait();
        let reference = completed(&report)
            .map_err(|e| format!("warm-up: {e}"))?
            .clone();
        setup_s.push(start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&store);
        let records = recorder.map_or(0, |r| r.total_recorded());
        kept = Some((dataset, engine, reference, records));
    }
    let (dataset, engine, reference, reference_records) = kept.expect("SETUP_MIN_REPS > 0");
    Ok(Setup {
        dataset,
        engine,
        reference,
        reference_records,
        setup_s,
        synth_ms,
    })
}

pub fn lost_records(engine: &JobEngine) -> u64 {
    engine
        .metrics_snapshot()
        .counter("telemetry_lost_records_total")
        .unwrap_or(0)
}

fn submit(engine: &JobEngine, spec: JobSpec) -> Result<JobHandle, String> {
    engine
        .submit(spec)
        .map_err(|e| format!("submission refused: {e}"))
}

/// What one timed window measured.
#[derive(Default)]
pub struct Window {
    /// Latency of every job that reached its expected state, in ms.
    pub latency_ms: Vec<f64>,
    /// Open loop: the latencies of each of the `TAIL_ROUNDS` rounds of the
    /// schedule, summarised.
    pub rounds: Vec<Summary>,
    /// Time from `resume(dir)` to `Completed` of every killed job, in ms.
    pub resume_ms: Vec<f64>,
    /// Duration of each `submit` call, in µs.
    pub submit_us: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub wait_share: Vec<f64>,
    /// Jobs that reached their terminal state inside the window.
    pub completed: usize,
    pub window_s: f64,
    pub attempted: usize,
    /// One entry per job that missed its expected state, or per broken
    /// invariant.
    pub failures: Vec<String>,
    /// Volume hash of every completed job, keyed by grid.
    pub hashes: BTreeMap<(usize, usize), Vec<u64>>,
    /// Grid and volume hash of every resumed job.
    pub resumed_hashes: Vec<((usize, usize), u64)>,
    /// Open loop: the most any submission ran behind its schedule. Closed
    /// loop: the longest client gap between a completion and the next
    /// submission.
    pub late_ms_max: f64,
    /// Peak resident set, read after `RSS_JOBS` closed-loop jobs or at the
    /// end of the open-loop schedule.
    pub peak_rss_mib: f64,
    pub heals: u64,
    /// The engine's lost flight-recorder records (cumulative per engine).
    pub lost_records: u64,
}

/// Runs `w`'s closed loop for `seconds`: one client, the next job submitted
/// when the previous one finished.
pub fn closed_loop(
    env: &Env,
    setup: &Setup,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let w = env.workload;
    let base = w.reference_spec(&setup.dataset);
    let grid = w.reference_grid();
    let mut out = Window::default();
    let start = Instant::now();
    let mut last_done = start;
    let mut slot = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        slot += 1;
        if slot.is_multiple_of(RESUME_EVERY) {
            // A kill/resume cycle in place of a job, so resume times sample
            // the same stretch of time as job latencies.
            out.attempted += 1;
            match resume_cycle(env, setup, slot) {
                Ok((resume_ms, hash)) => {
                    out.resume_ms.push(resume_ms);
                    out.resumed_hashes.push((grid, hash));
                    out.completed += 1;
                }
                Err(e) => out.failures.push(e),
            }
            last_done = Instant::now();
            continue;
        }
        let mut spec = base.clone();
        if w.records_telemetry() {
            spec = spec.with_telemetry(discarding_recorder(0));
        }
        let t0 = Instant::now();
        out.late_ms_max = out.late_ms_max.max(ms(t0 - last_done));
        out.attempted += 1;
        let handle = match submit(&setup.engine, spec) {
            Ok(handle) => handle,
            Err(e) => {
                out.failures.push(e);
                last_done = Instant::now();
                continue;
            }
        };
        let t1 = Instant::now();
        let report = handle.wait();
        let t2 = Instant::now();
        last_done = t2;
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.spans.push(Span::new("submit", t0, t1));
            tracer.spans.push(Span::new("wait", t1, t2));
        }
        match completed(&report) {
            Ok(result) => {
                out.latency_ms.push(ms(t2 - t0));
                out.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                out.queue_ms.push(report.queue_seconds * 1e3);
                out.run_ms.push(report.run_seconds * 1e3);
                out.wait_share.push(wait_share(result));
                out.hashes
                    .entry(grid)
                    .or_default()
                    .push(volume_hash(result));
                out.completed += 1;
            }
            Err(e) => out.failures.push(e),
        }
        if out.peak_rss_mib == 0.0 && out.completed >= RSS_JOBS {
            out.peak_rss_mib = peak_rss_mib();
        }
    }
    out.window_s = start.elapsed().as_secs_f64();
    out.lost_records = lost_records(&setup.engine);
    if out.peak_rss_mib == 0.0 {
        out.peak_rss_mib = peak_rss_mib();
    }
    out
}

/// Kills the reference job at its first durable commit and resumes it from
/// disk: returns the time from `resume(dir)` to `Completed`, in ms, and the
/// resumed volume.
fn resume_cycle(env: &Env, setup: &Setup, cycle: usize) -> Result<(f64, u64), String> {
    let dir = env.work.join(format!("resume-{cycle}"));
    let spec = env
        .workload
        .reference_spec(&setup.dataset)
        .with_checkpoint_dir(&dir)
        .with_fault_policy(
            FaultPolicy::reliable(env.seed ^ cycle as u64)
                .kill_process_at_barrier(0, CrashPhase::AfterRename),
        );
    let killed = submit(&setup.engine, spec)?.wait();
    if !killed_at_first_commit(&killed) {
        return Err(format!("armed kill did not strike: {}", describe(&killed)));
    }
    let t0 = Instant::now();
    let resumed = setup
        .engine
        .resume(&dir)
        .map_err(|e| format!("resume refused: {e}"))?;
    let report = resumed.wait();
    let elapsed = ms(t0.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
    let result = completed(&report).map_err(|e| format!("resumed {e}"))?;
    Ok((elapsed, volume_hash(result)))
}

/// One job of the open-loop schedule.
struct Arrival {
    at: Duration,
    grid: (usize, usize),
    priority: i32,
    kill: bool,
    death: bool,
}

/// The seeded `service-durable` schedule for `seconds`: arrivals
/// `1 / SERVICE_RATE` apart with ±50 % uniform jitter, a mixed grid and
/// priority job mix, one job in `SERVICE_KILL_EVERY` killed at its first
/// commit, and `SERVICE_DEATHS` rank deaths spread over the window.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed);
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += (0.5 + rng.unit()) / SERVICE_RATE;
        if t >= seconds {
            break;
        }
        arrivals.push(Arrival {
            at: Duration::from_secs_f64(t),
            grid: SERVICE_GRIDS[rng.below(SERVICE_GRIDS.len() as u64) as usize],
            priority: rng.below(5) as i32 - 2,
            kill: false,
            death: false,
        });
    }
    let n = arrivals.len();
    let kill_phase = (seed % SERVICE_KILL_EVERY as u64) as usize;
    for (i, arrival) in arrivals.iter_mut().enumerate() {
        arrival.kill = i % SERVICE_KILL_EVERY == kill_phase;
    }
    for d in 0..SERVICE_DEATHS.min(n) {
        let i = ((2 * d + 1) * n / (2 * SERVICE_DEATHS)).min(n - 1);
        // A death needs a 2-slot grid so a 4-node live fleet can always
        // heal it; it is never also a kill.
        let arrival = &mut arrivals[i];
        arrival.death = true;
        arrival.kill = false;
        arrival.grid = (2, 1);
    }
    arrivals
}

/// What the client keeps of a completed open-loop job: the report itself
/// is dropped at once, since the engine holds its own copy of every result.
struct Digest {
    hash: u64,
    queue_ms: f64,
    run_ms: f64,
    wait_share: f64,
}

/// A thread blocked in `JobHandle::wait` for one open-loop job. It stamps
/// the moment `wait` returns, so latencies are the client's view: they
/// include everything the engine does before it wakes its clients.
type Waiter = std::thread::JoinHandle<(Instant, Result<Digest, String>)>;

fn watch(handle: JobHandle) -> Waiter {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let report = handle.wait();
            let done = Instant::now();
            let digest = completed(&report).map(|result| Digest {
                hash: volume_hash(result),
                queue_ms: report.queue_seconds * 1e3,
                run_ms: report.run_seconds * 1e3,
                wait_share: wait_share(result),
            });
            (done, digest)
        })
        .expect("cannot spawn a waiter thread")
}

/// Where a submitted open-loop job stands.
enum Progress {
    /// Running to its end.
    Running(Waiter),
    /// Armed to be killed; resumed once it dies.
    Armed(JobHandle),
    /// Killed, then resumed: `resume` was called at `.0` and returned at
    /// `.1`.
    Resumed(Instant, Instant, Waiter),
    /// Already counted as a failure.
    Failed,
}

/// A submitted open-loop job.
struct Submitted {
    due: Instant,
    grid: (usize, usize),
    progress: Progress,
    dir: PathBuf,
}

/// Runs `service-durable`'s open loop for `seconds` on `engine`.
pub fn open_loop(
    env: &Env,
    dataset: &Dataset,
    engine: &JobEngine,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let w = env.workload;
    let arrivals = schedule(env.seed, seconds);
    let trace_path = env.work.join("trace.jsonl");
    let writer = match File::create(&trace_path) {
        Ok(file) => SharedWriter(Arc::new(Mutex::new(file))),
        Err(e) => {
            return Window {
                failures: vec![format!("cannot create {}: {e}", trace_path.display())],
                attempted: 1,
                ..Window::default()
            }
        }
    };
    let mut out = Window::default();
    let mut jobs: Vec<Submitted> = Vec::with_capacity(arrivals.len());
    // Indices of jobs whose checkpoint directory can go once they finish,
    // and of killed jobs not yet resumed.
    let mut cleanup: VecDeque<usize> = VecDeque::new();
    let mut to_resume: VecDeque<usize> = VecDeque::new();
    let start = Instant::now();
    for (k, arrival) in arrivals.iter().enumerate() {
        let due = start + arrival.at;
        loop {
            service_pending(engine, &mut jobs, &mut to_resume, &mut cleanup, &mut out);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_micros(500)));
        }
        let dir = env.work.join(format!("job-{k}"));
        let config = TelemetryConfig {
            job_id: k as u64,
            ..TelemetryConfig::default()
        };
        let recorder = Telemetry::with_writer(config, Box::new(writer.clone()));
        let mut spec = JobSpec::new(dataset.clone(), w.config(), arrival.grid)
            .with_priority(arrival.priority)
            .with_checkpoint_dir(&dir)
            .with_telemetry(Arc::new(recorder));
        if arrival.kill {
            spec = spec.with_fault_policy(
                FaultPolicy::reliable(env.seed.wrapping_add(k as u64))
                    .kill_process_at_barrier(0, CrashPhase::AfterRename),
            );
        } else if arrival.death {
            spec = spec.with_fault_policy(
                FaultPolicy::reliable(env.seed.wrapping_mul(1000).wrapping_add(k as u64))
                    .kill_rank(1, 1),
            );
        }
        let sent = Instant::now();
        out.late_ms_max = out.late_ms_max.max(ms(sent - due));
        out.attempted += 1;
        match submit(engine, spec) {
            Ok(handle) => {
                let sent_done = Instant::now();
                out.submit_us.push((sent_done - sent).as_secs_f64() * 1e6);
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.spans.push(Span::new("submit", sent, sent_done));
                }
                let index = jobs.len();
                let progress = if arrival.kill {
                    to_resume.push_back(index);
                    Progress::Armed(handle)
                } else {
                    cleanup.push_back(index);
                    Progress::Running(watch(handle))
                };
                jobs.push(Submitted {
                    due,
                    grid: arrival.grid,
                    progress,
                    dir,
                });
            }
            Err(e) => out.failures.push(e),
        }
    }
    // Drain: every killed job must be resumed before the engine idles.
    while !to_resume.is_empty() {
        service_pending(engine, &mut jobs, &mut to_resume, &mut cleanup, &mut out);
        std::thread::sleep(Duration::from_micros(500));
    }
    engine.wait_idle();
    let end = Instant::now();
    out.peak_rss_mib = peak_rss_mib();
    out.window_s = (end - start).as_secs_f64();

    let round_s = seconds / TAIL_ROUNDS as f64;
    let mut rounds = vec![Vec::new(); TAIL_ROUNDS];
    for job in jobs.iter_mut() {
        let (resumed_at, waiter) = match std::mem::replace(&mut job.progress, Progress::Failed) {
            Progress::Running(waiter) => (None, waiter),
            Progress::Resumed(r0, r1, waiter) => {
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.spans.push(Span::new("resume", r0, r1));
                }
                (Some(r0), waiter)
            }
            Progress::Armed(_) => {
                out.failures.push("a killed job was never resumed".into());
                continue;
            }
            Progress::Failed => continue,
        };
        let (done, digest) = match waiter.join() {
            Ok(outcome) => outcome,
            Err(_) => {
                out.failures.push("a waiter thread panicked".into());
                continue;
            }
        };
        let digest = match digest {
            Ok(digest) => digest,
            Err(e) if resumed_at.is_some() => {
                out.failures.push(format!("resumed {e}"));
                continue;
            }
            Err(e) => {
                out.failures.push(e);
                continue;
            }
        };
        if let Some(r0) = resumed_at {
            out.resume_ms.push(ms(done - r0));
            out.resumed_hashes.push((job.grid, digest.hash));
        } else {
            let round = ((job.due - start).as_secs_f64() / round_s) as usize;
            rounds[round.min(TAIL_ROUNDS - 1)].push(ms(done - job.due));
            out.latency_ms.push(ms(done - job.due));
            out.queue_ms.push(digest.queue_ms);
            out.run_ms.push(digest.run_ms);
            out.wait_share.push(digest.wait_share);
            out.hashes.entry(job.grid).or_default().push(digest.hash);
        }
        out.completed += 1;
    }
    out.rounds = rounds.iter().map(|round| Summary::of(round)).collect();
    for job in &jobs {
        let _ = std::fs::remove_dir_all(&job.dir);
    }
    let _ = std::fs::remove_file(&trace_path);

    let metrics = engine.metrics_snapshot();
    out.heals = metrics.counter("engine_substitutions_total").unwrap_or(0);
    out.lost_records = lost_records(engine);
    let deaths = arrivals.iter().filter(|a| a.death).count() as u64;
    if out.heals != deaths || engine.dead_nodes() as u64 != deaths {
        out.failures.push(format!(
            "expected {deaths} heal(s) and retired node(s), saw {} and {}",
            out.heals,
            engine.dead_nodes()
        ));
    }
    out
}

/// Between arrivals: resumes killed jobs as soon as they die, and removes
/// the checkpoint directories of finished jobs.
fn service_pending(
    engine: &JobEngine,
    jobs: &mut [Submitted],
    to_resume: &mut VecDeque<usize>,
    cleanup: &mut VecDeque<usize>,
    out: &mut Window,
) {
    while let Some(&i) = to_resume.front() {
        let job = &mut jobs[i];
        let Progress::Armed(handle) = &job.progress else {
            unreachable!("only armed jobs wait to be resumed");
        };
        if !handle.state().is_terminal() {
            break;
        }
        to_resume.pop_front();
        let report = handle.wait();
        if !killed_at_first_commit(&report) {
            out.failures
                .push(format!("armed kill did not strike: {}", describe(&report)));
            job.progress = Progress::Failed;
            continue;
        }
        let r0 = Instant::now();
        match engine.resume(&job.dir) {
            Ok(handle) => {
                job.progress = Progress::Resumed(r0, Instant::now(), watch(handle));
                cleanup.push_back(i);
            }
            Err(e) => {
                out.failures.push(format!("resume refused: {e}"));
                job.progress = Progress::Failed;
            }
        }
    }
    while let Some(&i) = cleanup.front() {
        let job = &jobs[i];
        if let Progress::Running(waiter) | Progress::Resumed(_, _, waiter) = &job.progress {
            if !waiter.is_finished() {
                break;
            }
        }
        cleanup.pop_front();
        let _ = std::fs::remove_dir_all(&job.dir);
    }
}

/// Checks that every completed volume of one grid is bit-identical to the
/// others of that grid, and to `reference`'s hash on the reference grid, and
/// that every resumed volume equals its uninterrupted twin's.
pub fn check_hashes(out: &mut Window, reference: ((usize, usize), u64)) {
    let twin = |grid: &(usize, usize)| {
        if *grid == reference.0 {
            Some(reference.1)
        } else {
            out.hashes.get(grid).and_then(|h| h.first().copied())
        }
    };
    let mut failures = Vec::new();
    for (grid, values) in &out.hashes {
        let expected = twin(grid);
        let bad = values.iter().filter(|&&h| Some(h) != expected).count();
        if bad > 0 {
            failures.push(format!(
                "{bad} {grid:?} volume(s) differ from the reference volume"
            ));
        }
    }
    for (grid, resumed) in &out.resumed_hashes {
        match twin(grid) {
            Some(h) if h == *resumed => {}
            Some(_) => failures.push(format!("a resumed {grid:?} volume differs from its twin")),
            None => failures.push(format!(
                "no uninterrupted {grid:?} twin to compare a resume with"
            )),
        }
    }
    out.failures.extend(failures);
}
