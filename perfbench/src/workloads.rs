//! The three workloads, with every setting pinned here rather than read
//! from the environment. Accuracy floors and the serving rate are frozen
//! in this file: `BENCHMARK.json` has a fixed set of keys and no room for
//! them.

use bns_comm::WirePrecision;
use bns_data::SyntheticSpec;
use bns_gcn::engine::{ModelArch, TrainConfig};
use bns_gcn::fullgraph::FullGraphConfig;
use bns_gcn::sampling::BoundarySampling;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Scheduler workers and kernel threads (`BNS_THREADS`) of every training
/// call: one of each, so every rank task and kernel runs on the calling
/// thread and no `bns-tensor` pool is made. On the 2-vCPU measuring host a
/// second busy thread made each timing follow the hypervisor: whenever
/// it stole either vCPU, a 2-thread pool's fork-join and a 2-worker
/// all-reduce both stalled.
pub const WORKERS: usize = 1;
pub const KERNEL_THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainWideK2,
    TrainK16Int8,
    ServeK2Poisson,
}

/// The training half of a workload (the serving workload trains the model
/// it serves during set-up).
#[derive(Debug, Clone, Copy)]
pub struct TrainSetup {
    pub dataset: fn() -> SyntheticSpec,
    pub nodes: usize,
    pub k: usize,
    /// Hidden widths; a 2-layer model has one.
    pub hidden: &'static [usize],
    /// BNS keep probability.
    pub p: f64,
    pub precision: WirePrecision,
    /// Epochs per `train_with_plan` call.
    pub epochs: usize,
    /// Lowest acceptable test accuracy, below every seed's measured
    /// value by a margin.
    pub acc_floor: f64,
}

/// The serving half of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSetup {
    /// Offered Poisson rate, fixed so that a faster commit does not
    /// receive more load. The 2-shard capacity measured on a 2-core AVX2
    /// virtual machine was 1.1k-1.6k q/s when idle, but the host steals
    /// up to 45% of the CPU under load, so the rate stays far below it.
    pub rate_qps: f64,
    pub cache_ratio: f64,
    pub max_batch: usize,
    pub linger: Duration,
    /// Lowest acceptable accuracy of the served answers.
    pub acc_floor: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TrainWideK2,
        Workload::TrainK16Int8,
        Workload::ServeK2Poisson,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainWideK2 => "train-wide-k2",
            Workload::TrainK16Int8 => "train-k16-int8",
            Workload::ServeK2Poisson => "serve-k2-poisson",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn train(self) -> TrainSetup {
        match self {
            // Compute-bound: wide activations, the sampler runs every
            // epoch.
            Workload::TrainWideK2 => TrainSetup {
                dataset: SyntheticSpec::products_sim,
                nodes: 8000,
                k: 2,
                hidden: &[256],
                p: 0.1,
                precision: WirePrecision::Exact,
                epochs: 6,
                acc_floor: 0.6,
            },
            // Exchange-heavy: 16 rank tasks on one worker, every boundary
            // node (p = 1), every block through the int8 codec.
            Workload::TrainK16Int8 => TrainSetup {
                dataset: SyntheticSpec::products_sim,
                nodes: 6000,
                k: 16,
                hidden: &[64, 64],
                p: 1.0,
                precision: WirePrecision::Int8,
                epochs: 30,
                acc_floor: 0.7,
            },
            Workload::ServeK2Poisson => TrainSetup {
                dataset: SyntheticSpec::reddit_sim,
                nodes: 4000,
                k: 2,
                hidden: &[64],
                p: 0.1,
                precision: WirePrecision::Exact,
                epochs: 10,
                acc_floor: 0.85,
            },
        }
    }

    pub fn serve(self) -> Option<ServeSetup> {
        match self {
            Workload::ServeK2Poisson => Some(ServeSetup {
                rate_qps: 200.0,
                cache_ratio: 0.25,
                max_batch: 8,
                linger: Duration::from_micros(200),
                acc_floor: 0.85,
            }),
            _ => None,
        }
    }
}

impl TrainSetup {
    pub fn config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            arch: ModelArch::Sage,
            hidden: self.hidden.to_vec(),
            dropout: 0.3,
            lr: 0.01,
            epochs: self.epochs,
            sampling: BoundarySampling::Bns { p: self.p },
            eval_every: 0,
            seed,
            clip_norm: Some(5.0),
            pipeline: false,
            workers: Some(WORKERS),
            wire_precision: Some(self.precision),
        }
    }

    /// The same model trained on one rank: the plain baseline.
    pub fn fullgraph_config(&self, seed: u64, epochs: usize) -> FullGraphConfig {
        FullGraphConfig {
            hidden: self.hidden.to_vec(),
            dropout: 0.3,
            lr: 0.01,
            epochs,
            seed,
        }
    }
}
