//! Criterion micro-benchmarks for the hot kernels: dense matmul, sparse
//! aggregation, graph partitioning, boundary-sampling topology builds,
//! the ring all-reduce, SAGE layer forward/backward and one full
//! distributed training epoch.

use bns_comm::{create_world, TrafficClass};
use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::{build_epoch_topology, BoundarySampling};
use bns_nn::aggregate::scaled_sum_aggregate;
use bns_nn::{Activation, SageLayer};
use bns_partition::{MetisLikePartitioner, Partitioner, RandomPartitioner};
use bns_runtime::{run_tasks, BoxFuture};
use bns_tensor::pool::{self, ThreadPool};
use bns_tensor::{Matrix, SeededRng};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let a = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    c.bench_function("matmul_256", |bch| {
        bch.iter(|| black_box(a.matmul(&b)));
    });
    c.bench_function("matmul_tn_256", |bch| {
        bch.iter(|| black_box(a.matmul_tn(&b)));
    });
}

/// Serial vs 4-thread pool on the largest matmul shape — the headline
/// comparison for the parallel backend (acceptance target: >= 2x at 4
/// threads on a machine with >= 4 cores).
fn bench_matmul_parallel(c: &mut Criterion) {
    let mut rng = SeededRng::new(6);
    let a = Matrix::random_normal(512, 512, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(512, 512, 0.0, 1.0, &mut rng);
    c.bench_function("matmul_512_serial", |bch| {
        bch.iter(|| black_box(a.matmul(&b)));
    });
    c.bench_function("matmul_512_pool4", |bch| {
        let _guard = pool::install(ThreadPool::new(4));
        bch.iter(|| black_box(a.matmul(&b)));
    });
    c.bench_function("matmul_tn_512_pool4", |bch| {
        let _guard = pool::install(ThreadPool::new(4));
        bch.iter(|| black_box(a.matmul_tn(&b)));
    });
}

fn bench_aggregate(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let ds = SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1);
    let n = ds.num_nodes();
    let h = Matrix::random_normal(n, 64, 0.0, 1.0, &mut rng);
    let scale = ds.mean_scale();
    c.bench_function("mean_aggregate_4k_d64", |bch| {
        bch.iter(|| black_box(scaled_sum_aggregate(&ds.graph, &h, n, &scale)));
    });
    c.bench_function("mean_aggregate_4k_d64_pool4", |bch| {
        let _guard = pool::install(ThreadPool::new(4));
        bch.iter(|| black_box(scaled_sum_aggregate(&ds.graph, &h, n, &scale)));
    });
}

fn bench_partitioners(c: &mut Criterion) {
    let ds = SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1);
    c.bench_function("metis_like_partition_4k_k8", |bch| {
        bch.iter(|| black_box(MetisLikePartitioner::default().partition(&ds.graph, 8, 0)));
    });
    c.bench_function("random_partition_4k_k8", |bch| {
        bch.iter(|| black_box(RandomPartitioner.partition(&ds.graph, 8, 0)));
    });
}

fn bench_boundary_sampling(c: &mut Criterion) {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1));
    let part = MetisLikePartitioner::default().partition(&ds.graph, 8, 0);
    let plan = PartitionPlan::build(&ds, &part);
    let lp = Arc::clone(&plan.parts[0]);
    c.bench_function("bns_topology_build_p0.1", |bch| {
        bch.iter_batched(
            || SeededRng::new(3),
            |mut rng| {
                black_box(build_epoch_topology(
                    &lp,
                    &BoundarySampling::Bns { p: 0.1 },
                    0,
                    0,
                    &mut rng,
                ))
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_allreduce(c: &mut Criterion) {
    c.bench_function("ring_allreduce_4ranks_64k_floats", |bch| {
        bch.iter(|| {
            let ranks = create_world(4)
                .into_iter()
                .map(|mut comm| -> BoxFuture<'static, u64> {
                    Box::pin(async move {
                        let mut buf = vec![1.0f32; 65_536];
                        comm.all_reduce_sum(&mut buf).await;
                        comm.stats().bytes(TrafficClass::AllReduce)
                    })
                })
                .collect();
            black_box(run_tasks(ranks, 4, |_| ()).0)
        });
    });
}

fn bench_sage_layer(c: &mut Criterion) {
    let mut rng = SeededRng::new(4);
    let ds = SyntheticSpec::reddit_sim().with_nodes(4_000).generate(1);
    let n = ds.num_nodes();
    let layer = SageLayer::new(64, 64, Activation::Relu, 0.0, &mut rng);
    let h = Matrix::random_normal(n, 64, 0.0, 1.0, &mut rng);
    let scale = ds.mean_scale();
    c.bench_function("sage_forward_4k_d64", |bch| {
        bch.iter_batched(
            || SeededRng::new(5),
            |mut r| black_box(layer.forward(&ds.graph, &h, n, &scale, false, &mut r)),
            BatchSize::SmallInput,
        );
    });
    let mut r = SeededRng::new(5);
    let (out, cache) = layer.forward(&ds.graph, &h, n, &scale, false, &mut r);
    let d = Matrix::filled(out.rows(), out.cols(), 1.0);
    c.bench_function("sage_backward_4k_d64", |bch| {
        bch.iter(|| black_box(layer.backward(&ds.graph, &cache, &d)));
    });
}

fn bench_distributed_epoch(c: &mut Criterion) {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(2_000).generate(1));
    let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 0);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    for p in [1.0, 0.1] {
        let cfg = TrainConfig {
            arch: ModelArch::Sage,
            hidden: vec![64],
            dropout: 0.0,
            lr: 0.01,
            epochs: 1,
            sampling: BoundarySampling::Bns { p },
            eval_every: 0,
            seed: 0,
            clip_norm: None,
            pipeline: false,
            workers: None,
            wire_precision: None,
        };
        c.bench_function(&format!("distributed_epoch_2k_k4_p{p}"), |bch| {
            bch.iter(|| black_box(train_with_plan(&plan, &cfg)));
        });
    }
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul,
        bench_matmul_parallel,
        bench_aggregate,
        bench_partitioners,
        bench_boundary_sampling,
        bench_allreduce,
        bench_sage_layer,
        bench_distributed_epoch
);
criterion_main!(kernels);
