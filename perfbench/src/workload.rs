//! The four workloads: their acquisitions, solver settings and job specs.
//!
//! Every input is derived from the `--seed` argument; the program under test
//! only ever sees the generated datasets and specs.

use ptycho_core::config::PassFrequency;
use ptycho_core::{JobSpec, ServiceBackend, SolverConfig, SolverMethod};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, GD on the threaded backend, 2x1 grid, high overlap.
    GdSolve,
    /// `GdSolve` with the Halo Voxel Exchange baseline.
    HveSolve,
    /// Closed loop, GD on lockstep, 2x2 grid, passes after every probe.
    GdPasses,
    /// Open loop of small checkpointed jobs with kills and rank deaths.
    ServiceDurable,
}

pub const ALL: [Workload; 4] = [
    Workload::GdSolve,
    Workload::HveSolve,
    Workload::GdPasses,
    Workload::ServiceDurable,
];

/// Receive timeout of threaded jobs: far above any healthy wait, so it only
/// fires on a lost message.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(30);

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::GdSolve => "gd-solve",
            Workload::HveSolve => "hve-solve",
            Workload::GdPasses => "gd-passes",
            Workload::ServiceDurable => "service-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The acquisition every job of the workload reconstructs.
    pub fn synthetic(self, seed: u64) -> SyntheticConfig {
        // The specimen seed varies with the benchmark seed; the shapes, and
        // so the work per job, do not.
        let specimen_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);
        match self {
            Workload::GdSolve | Workload::HveSolve => SyntheticConfig {
                object_px: 192,
                slices: 4,
                scan_grid: (8, 8),
                window_px: 64,
                dose: None,
                defocus_pm: 45_000.0,
                seed: specimen_seed,
            },
            Workload::GdPasses => SyntheticConfig {
                object_px: 256,
                slices: 8,
                scan_grid: (6, 6),
                window_px: 32,
                dose: None,
                defocus_pm: 12_000.0,
                seed: specimen_seed,
            },
            Workload::ServiceDurable => SyntheticConfig {
                seed: specimen_seed,
                ..SyntheticConfig::tiny()
            },
        }
    }

    pub fn config(self) -> SolverConfig {
        let base = SolverConfig {
            iterations: 2,
            ..SolverConfig::default()
        };
        match self {
            Workload::GdSolve | Workload::HveSolve => base,
            Workload::GdPasses => SolverConfig {
                halo_px: 40,
                pass_frequency: PassFrequency::EveryProbe,
                ..base
            },
            Workload::ServiceDurable => SolverConfig {
                halo_px: 20,
                ..base
            },
        }
    }

    pub fn method(self) -> SolverMethod {
        match self {
            Workload::HveSolve => SolverMethod::HaloVoxelExchange,
            _ => SolverMethod::GradientDecomposition,
        }
    }

    pub fn backend(self) -> ServiceBackend {
        match self {
            Workload::GdSolve | Workload::HveSolve => ServiceBackend::Threaded {
                recv_timeout: RECV_TIMEOUT,
            },
            _ => ServiceBackend::Lockstep,
        }
    }

    /// The grid of the workload's reference job (the only grid of the
    /// closed-loop workloads; the largest of the service mix).
    pub fn reference_grid(self) -> (usize, usize) {
        match self {
            Workload::GdSolve | Workload::HveSolve => (2, 1),
            Workload::GdPasses | Workload::ServiceDurable => (2, 2),
        }
    }

    pub fn is_open_loop(self) -> bool {
        self == Workload::ServiceDurable
    }

    /// Whether every job carries a flight recorder.
    pub fn records_telemetry(self) -> bool {
        matches!(self, Workload::GdPasses | Workload::ServiceDurable)
    }

    /// Whether every job checkpoints to disk.
    pub fn checkpoints(self) -> bool {
        self == Workload::ServiceDurable
    }

    /// The reference job's spec, without telemetry or checkpoint directory.
    pub fn reference_spec(self, dataset: &Dataset) -> JobSpec {
        JobSpec::new(dataset.clone(), self.config(), self.reference_grid())
            .with_method(self.method())
            .with_backend(self.backend())
    }
}

/// Grids of the service mix, all fitting a 4-node live fleet.
pub const SERVICE_GRIDS: [(usize, usize); 3] = [(2, 2), (2, 1), (1, 2)];

/// SplitMix64: the benchmark's deterministic generator for schedules and
/// job mixes.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_f00d_9c4a_1157)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
