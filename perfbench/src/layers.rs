//! The traced run's layer replay: each layer's public entry point called
//! from here, at the workload's exact shapes and per-job counts, with a span
//! around every batch of calls.
//!
//! Replayed layers nest (a gradient runs a forward, which runs FFTs), so
//! each layer is timed on its own and reported as self time: the FFT share
//! is subtracted from the forward, and the forward and its FFTs from the
//! gradient.

use crate::e2e::{discarding_recorder, Env};
use crate::workload::{Workload, RECV_TIMEOUT};
use ptycho_array::Rect;
use ptycho_cluster::{
    Cluster, ClusterTopology, CommError, LockstepBackend, MembershipView, Payload, RankComm,
    SharedTile, TilePayloadPool,
};
use ptycho_core::config::PassFrequency;
use ptycho_core::durability::{ByteWriter, CheckpointPayload};
use ptycho_core::gradient_decomp::passes::run_accumulation_passes;
use ptycho_core::{
    stitch_tiles, CheckpointStore, EpochManifest, GradientDecompositionSolver,
    HaloVoxelExchangeSolver, ServiceBackend, SlotRecord, TileGrid,
};
use ptycho_fft::CArray3;
use ptycho_sim::dataset::{extract_patch, scatter_patch, Dataset};
use ptycho_sim::{probe_gradient_into, ProbeLocation, SimWorkspace};
use ptycho_telemetry::TelemetryEvent;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;
/// Bytes of one complex voxel.
const VOXEL_BYTES: usize = 16;

/// One recorded span: a named batch of calls into one layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: Instant,
    pub end: Instant,
    pub calls: u64,
}

impl Span {
    /// A client span with one call and no parent.
    pub fn new(name: &'static str, start: Instant, end: Instant) -> Self {
        Self {
            name,
            parent: None,
            start,
            end,
            calls: 1,
        }
    }

    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Records spans in memory; they are summarised when the run ends.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: Instant::now(),
            calls,
        });
        out
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// `(name, parent, spans, calls, total ms)` per span name, in order of
    /// first appearance.
    pub fn summary(&self) -> Vec<(&'static str, Option<&'static str>, usize, u64, f64)> {
        let mut out: Vec<(&'static str, Option<&'static str>, usize, u64, f64)> = Vec::new();
        for span in &self.spans {
            match out.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.2 += 1;
                    row.3 += span.calls;
                    row.4 += span.ms();
                }
                None => out.push((span.name, span.parent, 1, span.calls, span.ms())),
            }
        }
        out
    }
}

/// Per-job layer figures of the workload's reference job.
#[derive(Default, Debug)]
pub struct Layers {
    pub fft_calls: u64,
    pub fft_ms: f64,
    pub fft_mflop_s: f64,
    pub forward_calls: u64,
    pub forward_self_ms: f64,
    pub gradient_calls: u64,
    pub gradient_self_ms: f64,
    pub patch_calls: u64,
    pub patch_ms: f64,
    pub patch_mib: f64,
    pub passes_calls: u64,
    pub passes_ms: f64,
    pub passes_msgs: u64,
    pub passes_mib: f64,
    pub roundtrip_us: f64,
    pub write_slot_ms: f64,
    pub commit_ms: f64,
    pub recover_ms: f64,
    pub mib_per_epoch: f64,
    pub epochs: u64,
    /// Checkpoint time of one job: every rank's slot plus the commit, per
    /// epoch.
    pub durability_ms: f64,
    pub stitch_ms: f64,
    pub record_ns: f64,
    pub telemetry_ms: f64,
}

impl Layers {
    /// The replayed self times that make up one sequential run of the job.
    pub fn attributed_ms(&self) -> f64 {
        self.fft_ms
            + self.forward_self_ms
            + self.gradient_self_ms
            + self.patch_ms
            + if self.passes_calls > 0 {
                self.passes_ms
            } else {
                0.0
            }
            + self.durability_ms
            + self.stitch_ms
            + self.telemetry_ms
    }
}

/// The probe locations the job evaluates in one iteration, rank by rank.
fn locations_per_iteration(w: Workload, dataset: &Dataset) -> Vec<ProbeLocation> {
    match w {
        Workload::HveSolve => HaloVoxelExchangeSolver::new(dataset, w.config(), w.reference_grid())
            .expect("the workload's decomposition is feasible")
            .assigned()
            .iter()
            .flatten()
            .copied()
            .collect(),
        _ => dataset.scan().locations().to_vec(),
    }
}

fn job_grid(w: Workload, dataset: &Dataset) -> TileGrid {
    match w {
        Workload::HveSolve => HaloVoxelExchangeSolver::new(dataset, w.config(), w.reference_grid())
            .expect("the workload's decomposition is feasible")
            .grid()
            .clone(),
        _ => GradientDecompositionSolver::new(dataset, w.config(), w.reference_grid())
            .grid()
            .clone(),
    }
}

/// Accumulation-pass calls per iteration on every rank (the GD solver's
/// synchronisation rounds); zero for the baseline, which exchanges voxels.
fn pass_rounds(w: Workload, grid: &TileGrid) -> u64 {
    if w == Workload::HveSolve {
        return 0;
    }
    let max_owned = grid
        .tiles()
        .iter()
        .map(|t| t.owned_locations.len())
        .max()
        .unwrap_or(0)
        .max(1);
    match w.config().pass_frequency {
        PassFrequency::EveryProbe => max_owned as u64,
        PassFrequency::PerIteration(times) => times.clamp(1, max_owned) as u64,
    }
}

/// Messages and bytes of one accumulation-pass call over the whole grid:
/// each adjacent pair with a non-empty overlap trades its overlap once
/// forward and once backward.
fn pass_traffic(grid: &TileGrid, slices: usize) -> (u64, u64) {
    let (rows, cols) = grid.grid_shape();
    let mut msgs = 0;
    let mut bytes = 0;
    for r in 0..rows {
        for c in 0..cols {
            let here = grid.rank_at(r, c);
            let mut next = Vec::new();
            if r + 1 < rows {
                next.push(grid.rank_at(r + 1, c));
            }
            if c + 1 < cols {
                next.push(grid.rank_at(r, c + 1));
            }
            for peer in next {
                let area = grid.overlap(here, peer).area();
                if area > 0 {
                    msgs += 2;
                    bytes += 2 * (area * slices * VOXEL_BYTES) as u64;
                }
            }
        }
    }
    (msgs, bytes)
}

fn per_call_median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A replay body that runs on every rank of either backend.
trait RankBody<M: Payload>: Sync {
    fn run<C: RankComm<M>>(&self, ctx: &mut C) -> Result<(), CommError>;
}

/// Runs `body` on `ranks` ranks of the workload's backend, returning the
/// wall time.
fn on_backend<M: Payload + 'static>(
    w: Workload,
    ranks: usize,
    body: &impl RankBody<M>,
) -> Result<Duration, CommError> {
    let topology = ClusterTopology::summit();
    let start = Instant::now();
    let outcome = match w.backend() {
        ServiceBackend::Lockstep => LockstepBackend::new(topology)
            .run::<M, (), _>(ranks, |ctx| body.run(ctx))
            .map(drop),
        ServiceBackend::Threaded { .. } => Cluster::new(topology)
            .with_recv_timeout(RECV_TIMEOUT)
            .run::<M, (), _>(ranks, |ctx| body.run(ctx))
            .map(drop),
    };
    outcome.map_err(|failure| failure.error)?;
    Ok(start.elapsed())
}

/// Rank 0 and rank 1 bounce a one-value message `round_trips` times.
struct PingPong {
    round_trips: u64,
}

impl RankBody<Vec<f64>> for PingPong {
    fn run<C: RankComm<Vec<f64>>>(&self, ctx: &mut C) -> Result<(), CommError> {
        for i in 0..self.round_trips {
            if ctx.rank() == 0 {
                ctx.isend(1, i, vec![i as f64]);
                ctx.recv(1, i)?;
            } else {
                let v = ctx.recv(0, i)?;
                ctx.isend(0, i, v);
            }
        }
        Ok(())
    }
}

/// Every rank runs `calls` accumulation-pass calls on a buffer of its
/// extended tile's shape.
struct Passes<'a> {
    grid: &'a TileGrid,
    slices: usize,
    calls: u64,
}

impl RankBody<SharedTile> for Passes<'_> {
    fn run<C: RankComm<SharedTile>>(&self, ctx: &mut C) -> Result<(), CommError> {
        let ext = self.grid.tile(ctx.rank()).extended;
        let mut buffer = CArray3::zeros(self.slices, ext.rows(), ext.cols());
        let mut pool = TilePayloadPool::new();
        for _ in 0..self.calls {
            run_accumulation_passes(ctx, self.grid, &mut buffer, &mut pool)?;
        }
        Ok(())
    }
}

/// Replays the workload's layers for one reference job.
pub fn replay(
    env: &Env,
    dataset: &Dataset,
    records_per_job: u64,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let w = env.workload;
    let config = w.config();
    let iterations = config.iterations as u64;
    let model = dataset.model();
    let window = model.window_px();
    let slices = model.slices();
    let locations = locations_per_iteration(w, dataset);
    let grid = job_grid(w, dataset);
    let mut layers = Layers::default();

    // --- Kernels: FFT, multislice forward, gradient, patch scatter. ---
    let gradient_calls = locations.len() as u64 * iterations;
    let ffts_per_forward = model.ffts_per_forward() as u64;
    let initial = dataset.initial_guess();
    let patches: Vec<CArray3> = locations
        .iter()
        .map(|loc| extract_patch(&initial, &loc.window))
        .collect();
    // The job's gradient calls in order, replayed in interleaved rounds so
    // that drift in the host's speed lands on every kernel alike.
    let order: Vec<usize> = (0..iterations).flat_map(|_| 0..locations.len()).collect();
    const ROUNDS: usize = 5;
    let round_len = order.len().div_ceil(ROUNDS).max(1);

    let mut ws = SimWorkspace::for_model(model);
    let mut gradient = CArray3::zeros(slices, window, window);
    let mut accumulator = CArray3::zeros(initial.depth(), initial.rows(), initial.cols());
    let plan = model.plan().fft();
    let mut scratch = plan.make_scratch();
    // Warm every kernel once outside the spans.
    let mut loss = probe_gradient_into(
        model,
        &patches[0],
        dataset.measurement(&locations[0]),
        &mut ws,
        &mut gradient,
    );
    // Transform a wave the forward model really produces: the probe after
    // the first slice.
    let mut field = ws.incident(1).clone();
    let fft_calls = gradient_calls * 2 * ffts_per_forward;
    for round in order.chunks(round_len) {
        let n = round.len() as u64;
        // A gradient runs as many inverse transforms as forward ones.
        tracer.span("fft", Some("sim.forward"), 2 * n * ffts_per_forward, || {
            for _ in 0..n * ffts_per_forward {
                plan.forward_in_place(&mut field, &mut scratch);
                plan.inverse_in_place(&mut field, &mut scratch);
            }
            black_box(&field);
        });
        tracer.span("sim.forward", Some("sim.gradient"), n, || {
            for &i in round {
                model.forward_with(&patches[i], &mut ws);
                black_box(ws.far_field());
            }
        });
        tracer.span("sim.gradient", None, n, || {
            for &i in round {
                loss += probe_gradient_into(
                    model,
                    &patches[i],
                    dataset.measurement(&locations[i]),
                    &mut ws,
                    &mut gradient,
                );
            }
        });
        tracer.span("sim.patch", None, n, || {
            for &i in round {
                let window = &locations[i].window;
                let patch = extract_patch(&initial, window);
                scatter_patch(&mut accumulator, window, &patch);
            }
            black_box(&accumulator);
        });
    }
    black_box(loss);
    let fft_ms = tracer.total_ms("fft");
    let per_fft_ms = fft_ms / fft_calls as f64;
    let forward_ms = tracer.total_ms("sim.forward");
    let gradient_ms = tracer.total_ms("sim.gradient");

    let fft_in_forward = gradient_calls as f64 * ffts_per_forward as f64 * per_fft_ms;
    layers.fft_calls = fft_calls;
    layers.fft_ms = fft_calls as f64 * per_fft_ms;
    let n = (window * window) as f64;
    layers.fft_mflop_s = 5.0 * n * n.log2() * fft_calls as f64 / (fft_ms * 1e-3) / 1e6;
    layers.forward_calls = gradient_calls;
    layers.forward_self_ms = forward_ms - fft_in_forward;
    layers.gradient_calls = gradient_calls;
    layers.gradient_self_ms = gradient_ms - forward_ms - fft_in_forward;
    layers.patch_calls = gradient_calls;
    layers.patch_ms = tracer.total_ms("sim.patch");
    layers.patch_mib =
        gradient_calls as f64 * 2.0 * (slices * window * window * VOXEL_BYTES) as f64 / MIB;

    // --- Passes on the workload's backend and grid. ---
    let rounds = pass_rounds(w, &grid);
    let pass_calls = rounds * iterations;
    let (msgs, bytes) = pass_traffic(&grid, slices);
    layers.passes_calls = pass_calls;
    layers.passes_msgs = pass_calls * msgs;
    layers.passes_mib = (pass_calls * bytes) as f64 / MIB;
    // A workload without passes still replays one call, so the figure is
    // the cost of a call at its shape rather than a constant zero.
    let replayed = pass_calls.max(1);
    let body = Passes {
        grid: &grid,
        slices,
        calls: replayed,
    };
    let elapsed = tracer
        .span("passes", None, replayed, || {
            on_backend(w, grid.num_tiles(), &body)
        })
        .map_err(|e| format!("pass replay failed: {e}"))?;
    layers.passes_ms = elapsed.as_secs_f64() * 1e3;

    // --- Backend ping-pong. ---
    const ROUND_TRIPS: u64 = 200;
    let rtt = tracer
        .span("backend.roundtrip", None, ROUND_TRIPS, || {
            let body = PingPong {
                round_trips: ROUND_TRIPS,
            };
            on_backend(w, 2, &body)
        })
        .map_err(|e| format!("ping-pong failed: {e}"))?;
    layers.roundtrip_us = rtt.as_secs_f64() * 1e6 / ROUND_TRIPS as f64;

    // --- Durability: slot writes, commits and recovery at tile shapes. ---
    tracer.span("durability", None, 0, || {
        replay_durability(env, &grid, slices, iterations, &mut layers)
    })?;

    // --- Stitching the tile cores into the volume. ---
    let cores: Vec<(Rect, CArray3)> = grid
        .tiles()
        .iter()
        .map(|t| (t.core, initial.extract_region(t.core)))
        .collect();
    const STITCHES: u64 = 5;
    tracer.span("stitch", None, STITCHES, || {
        for _ in 0..STITCHES {
            black_box(stitch_tiles(&grid, &cores));
        }
    });
    layers.stitch_ms = tracer.total_ms("stitch") / STITCHES as f64;

    // --- Telemetry: recording plus the JSONL flush. ---
    let records = records_per_job.max(4096);
    let recorder = discarding_recorder(0);
    let ranks = grid.num_tiles();
    let sinks: Vec<_> = (0..ranks).map(|r| recorder.sink(r)).collect();
    let elapsed = tracer.span("telemetry", None, records, || {
        let start = Instant::now();
        for i in 0..records {
            let sink = &sinks[(i as usize) % ranks];
            sink.record(TelemetryEvent::IterationBegin {
                iteration: i,
                attempt: 0,
            });
            if (i + 1) % 1024 == 0 {
                recorder.flush_all();
            }
        }
        recorder.flush_all();
        start.elapsed()
    });
    layers.record_ns = elapsed.as_secs_f64() * 1e9 / records as f64;
    layers.telemetry_ms = records_per_job as f64 * layers.record_ns * 1e-6;
    Ok(layers)
}

/// Writes every rank's slot and commits, once per checkpointed iteration
/// (at least twice, so workloads without checkpoints still report the cost
/// at their shape), then recovers the store three times.
fn replay_durability(
    env: &Env,
    grid: &TileGrid,
    slices: usize,
    iterations: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let dir = env.work.join("replay-store");
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: ptycho_core::DurabilityError| format!("checkpoint replay: {e}");
    let store = CheckpointStore::open(&dir).map_err(io)?;
    let ranks = grid.num_tiles();
    let states: Vec<Vec<u8>> = (0..ranks)
        .map(|r| {
            let ext = grid.tile(r).extended;
            let mut w = ByteWriter::new();
            CArray3::zeros(slices, ext.rows(), ext.cols()).encode(&mut w);
            w.into_bytes()
        })
        .collect();
    layers.epochs = if env.workload.checkpoints() {
        iterations
    } else {
        0
    };
    let epochs = layers.epochs.max(2);
    let mut writes = Vec::new();
    let mut commits = Vec::new();
    let mut epoch_bytes = 0u64;
    for e in 0..epochs {
        let seq = store.next_seq();
        let iteration = e as usize + 1;
        epoch_bytes = 0;
        for (slot, state) in states.iter().enumerate() {
            let record = SlotRecord {
                iteration,
                costs: vec![1.0; iteration],
                cursor: None,
                state: state.clone(),
            };
            let start = Instant::now();
            epoch_bytes += store.write_slot(seq, slot, &record).map_err(io)?;
            writes.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let manifest = EpochManifest {
            seq,
            iteration,
            attempt_index: 0,
            restarts: 0,
            substitutions: 0,
            membership: MembershipView::new(ranks, 0),
            spec: Vec::new(),
        };
        let start = Instant::now();
        store.commit(&manifest, None).map_err(io)?;
        commits.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut recovers = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let recovery = store.recover().map_err(io)?;
        recovers.push(start.elapsed().as_secs_f64() * 1e3);
        if recovery.epoch.is_none() {
            return Err("checkpoint replay: nothing recovered".to_string());
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    layers.write_slot_ms = per_call_median(&mut writes);
    layers.commit_ms = per_call_median(&mut commits);
    layers.recover_ms = per_call_median(&mut recovers);
    layers.mib_per_epoch = epoch_bytes as f64 / MIB;
    layers.durability_ms =
        layers.epochs as f64 * (ranks as f64 * layers.write_slot_ms + layers.commit_ms);
    Ok(())
}
