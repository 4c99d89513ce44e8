//! Kernel probes at shapes taken from the workload's own plan: matmul
//! (`bns-tensor`), the inner aggregate (`bns-nn`), the int8 wire codec
//! (`bns-tensor::simd::codec`), and the single-rank `train_full`
//! baseline. Probes run on the calling thread with no pool installed.

use crate::stats;
use crate::workloads::TrainSetup;
use bns_data::Dataset;
use bns_gcn::plan::PartitionPlan;
use bns_tensor::simd::codec;
use bns_tensor::{Matrix, SeededRng};
use std::hint::black_box;
use std::time::Instant;

/// Work-only kernel costs, in ms per call (the training epoch times mix
/// work with waiting on peers).
pub struct Kernels {
    pub matmul_ms: f64,
    pub aggregate_ms: f64,
    pub int8_pack_ms: f64,
    pub int8_unpack_ms: f64,
}

fn random(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.normal(0.0, 1.0)).collect(),
    )
}

/// Median ms of `f` after one warm-up call, over at least 3 and at most
/// 15 calls or about 0.2 s.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut v = Vec::new();
    while v.len() < 3 || (v.len() < 15 && start.elapsed().as_secs_f64() < 0.2) {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&v)
}

pub fn kernels(plan: &PartitionPlan, t: &TrainSetup, seed: u64) -> Kernels {
    let mut rng = SeededRng::new(seed);
    // The largest partition by local (inner + boundary) nodes.
    let lp = plan
        .parts
        .iter()
        .max_by_key(|p| p.n_inner() + p.n_boundary())
        .expect("at least one partition");
    let mut dims = vec![plan.feat_dim];
    dims.extend_from_slice(t.hidden);
    dims.push(plan.num_classes);
    let (d_in, d_out) = dims
        .windows(2)
        .map(|w| (w[0], w[1]))
        .max_by_key(|&(a, b)| a * b)
        .expect("at least one layer");
    let a = random(lp.n_inner() + lp.n_boundary(), d_in, &mut rng);
    let w = random(d_in, d_out, &mut rng);
    let matmul_ms = time_ms(|| drop(black_box(black_box(&a).matmul(black_box(&w)))));

    let h = random(lp.n_inner(), t.hidden[0], &mut rng);
    let aggregate_ms = time_ms(|| {
        drop(black_box(bns_nn::aggregate::scaled_sum_aggregate_inner(
            black_box(&lp.local_graph),
            black_box(&h),
            lp.n_inner(),
        )))
    });

    // The largest boundary block any rank receives from one owner, at
    // the widest exchanged width.
    let rows = plan
        .parts
        .iter()
        .flat_map(|p| p.owner_ranges.iter().map(|&(a, b)| b - a))
        .max()
        .unwrap_or(0)
        .max(1);
    let d = dims[..dims.len() - 1].iter().copied().max().unwrap_or(1);
    let src: Vec<f32> = (0..rows * d).map(|_| rng.normal(0.0, 1.0)).collect();
    let mut wire = vec![0u8; rows * (d + codec::INT8_HEADER_BYTES)];
    let mut back = vec![0f32; rows * d];
    let bk = bns_tensor::simd::active();
    let int8_pack_ms = time_ms(|| codec::pack_int8(bk, black_box(&mut wire), black_box(&src), d));
    let int8_unpack_ms =
        time_ms(|| codec::unpack_int8(bk, black_box(&mut back), black_box(&wire), d, 1.0));
    Kernels {
        matmul_ms,
        aggregate_ms,
        int8_pack_ms,
        int8_unpack_ms,
    }
}

/// Mean epoch seconds of single-rank `train_full` on the same dataset
/// and model.
pub fn fullgraph_epoch_s(ds: &Dataset, t: &TrainSetup, seed: u64) -> f64 {
    bns_gcn::fullgraph::train_full(ds, &t.fullgraph_config(seed, 3)).avg_epoch_s
}
