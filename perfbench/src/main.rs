//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). With
//! `--trace 0` it prints the end-to-end metrics, measured with
//! `bns_telemetry` capture off; with `--trace 1` the per-layer metrics,
//! from an untraced and a traced pass plus kernel probes. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Any failed correctness check makes the exit
//! code 1; bad arguments make it 2.

mod host;
mod json;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;
mod workloads;

use bns_comm::TrafficClass;
use report::{Metrics, Tally};
use spec::BenchSpec;
use trace::Tracer;
use workloads::{Workload, KERNEL_THREADS, SETUP_REPS};

/// Samples the reported epoch-time tail leaves beyond it.
const TAIL_BEYOND: usize = 10;

/// Benchmark spans whose self time the traced pass reports.
const SPANS: [(&str, &str); 14] = [
    ("setup", "self.setup_s"),
    ("generate", "self.generate_s"),
    ("partition", "self.partition_s"),
    ("plan", "self.plan_s"),
    ("train_model", "self.train_model_s"),
    ("serve_plan", "self.serve_plan_s"),
    ("train_call", "self.train_call_s"),
    ("serve_schedule", "self.serve_schedule_s"),
    ("serve_replay", "self.serve_replay_s"),
    ("serve_shutdown", "self.serve_shutdown_s"),
    ("probe_serve", "self.probe_serve_s"),
    ("probe", "self.probe_s"),
    ("probe_kernels", "self.probe_kernels_s"),
    ("probe_fullgraph", "self.probe_fullgraph_s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let env = host::capture_and_pin_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    // Every `train_with_plan` call reads the kernel-thread budget from
    // the environment; set it before any thread starts.
    std::env::set_var(bns_tensor::pool::ENV_THREADS, KERNEL_THREADS.to_string());
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
        .and_then(|text| BenchSpec::parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        });
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host::fingerprint(&env).encode());

    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut tr = Tracer::default();
    let ticks = host::cpu_ticks();
    if args.trace {
        traced_run(&args, &mut tr, &mut tally, &mut m);
    } else {
        untraced_run(&args, &mut tr, &mut tally, &mut m);
    }
    if let Some(share) = host::steal_share(ticks, host::cpu_ticks()) {
        println!("cpu time stolen by the hypervisor during the run: {share:.4}");
    }
    if !spec
        .workloads
        .iter()
        .any(|w| w.name == args.workload.name())
    {
        tally.fail_all(format!("{} is not declared", args.workload.name()));
    }
    let mismatches = m.mismatches(spec.metrics_for(args.trace));
    if !mismatches.is_empty() {
        tally.fail_all(mismatches.join("; "));
    }
    print!("{}", m.table());
    println!(
        "attempted={} failed={} failed_frac={}",
        tally.attempted(),
        tally.failed(),
        tally.failed_frac()
    );
    for r in tally.reasons() {
        println!("FAILED: {r}");
    }
    println!("{}", m.result_line(&tally));
    std::process::exit(if tally.correct() { 0 } else { 1 });
}

/// End-to-end metrics, capture off.
fn untraced_run(args: &Args, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let w = args.workload;
    let t = w.train();
    let mut setup_s = Vec::new();
    let mut prep = None;
    let mut reference: Option<Vec<u64>> = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so peak_rss_mb sees one.
        drop(prep.take());
        let (p, secs) = train::build_inputs(w, args.seed, tr);
        setup_s.push(secs);
        if let Some((_, call)) = &p.serve {
            // Every set-up at one seed trains the same model.
            let r = reference.get_or_insert_with(|| call.curve());
            call.check(&t, r, "set-up call", tally);
        }
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up");
    m.put("setup_s", stats::median(&setup_s), "s");

    match (&prep.serve, w.serve()) {
        (Some((sp, _)), Some(s)) => {
            let rounds = serve::capacity(sp, &prep.ds, &s, args.seed, 0.9 * args.seconds, tally);
            let probe = serve::probe(sp, &prep.ds, &s, tally);
            // The first round warms up; the median of the rest moved less
            // between runs than the best round, which an occasional
            // quiet moment on the shared host lifts.
            let qps = stats::median(&rounds[1..]);
            m.put("throughput_per_s", qps, "1/s");
            m.put("test_acc", probe.acc, "fraction");
            m.put("wire_mb_per_op", probe.fetched_mb_per_query, "MB");
            let per_round: Vec<String> = rounds.iter().map(|q| format!("{q:.0}")).collect();
            println!(
                "{} capacity rounds; q/s per round: {}",
                rounds.len(),
                per_round.join(" ")
            );
        }
        _ => {
            let pass = train::pass(
                &prep.plan,
                &t,
                args.seed,
                args.seconds,
                3,
                false,
                None,
                tr,
                tally,
            );
            m.put("throughput_per_s", pass.epochs_per_s(), "1/s");
            m.put("test_acc", pass.calls[0].final_test, "fraction");
            let wire: Vec<f64> = pass
                .measured_epochs()
                .map(|e| {
                    e.traffic_per_rank
                        .iter()
                        .map(|t| t.total_bytes())
                        .sum::<u64>() as f64
                })
                .collect();
            m.put("wire_mb_per_op", stats::mean(&wire) / 1e6, "MB");
            let per_call: Vec<String> = pass
                .calls
                .iter()
                .map(|c| format!("{:.3}", c.epochs_per_s()))
                .collect();
            println!(
                "{} calls of {} epochs; epochs/s per call: {}",
                pass.calls.len(),
                t.epochs,
                per_call.join(" ")
            );
        }
    }
    m.put("peak_rss_mb", host::peak_rss_mb(), "MB");
}

/// Per-layer metrics: an untraced and a traced pass of equal length,
/// then kernel probes with capture off.
fn traced_run(args: &Args, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let w = args.workload;
    let t = w.train();
    let seed = args.seed;
    let (prep, _) = train::build_inputs(w, seed, tr);
    let plan = &prep.plan;

    // Training: the serving workload's is the set-up call, re-run traced.
    let (base_eps, traced) = match &prep.serve {
        Some((_, call)) => {
            let reference = call.curve();
            let traced = train::pass(plan, &t, seed, 0.0, 1, true, Some(&reference), tr, tally);
            (call.epochs_per_s(), traced)
        }
        None => {
            // The traced pass gets the larger share: the per-layer
            // epoch statistics come from it.
            let (b, c) = (0.3 * args.seconds, 0.5 * args.seconds);
            let base = train::pass(plan, &t, seed, b, 2, false, None, tr, tally);
            let reference = base.calls[0].curve();
            let traced = train::pass(plan, &t, seed, c, 2, true, Some(&reference), tr, tally);
            (base.epochs_per_s(), traced)
        }
    };

    // Serving: untraced then traced pass, then the closed-loop probe.
    let serving = match (&prep.serve, w.serve()) {
        (Some((sp, _)), Some(s)) => {
            let d = 0.4 * args.seconds;
            let base = serve::pass(sp, &prep.ds, &s, seed, d, false, tr, tally);
            let traced = serve::pass(sp, &prep.ds, &s, seed, d, true, tr, tally);
            let (probe, _) = tr.span("probe_serve", |_| serve::probe(sp, &prep.ds, &s, tally));
            Some((base, traced, probe))
        }
        _ => None,
    };

    let ((kernels, full_epoch_s), _) = tr.span("probe", |tr| {
        let (k, _) = tr.span("probe_kernels", |_| probes::kernels(plan, &t, seed));
        let (f, _) = tr.span("probe_fullgraph", |_| {
            probes::fullgraph_epoch_s(&prep.ds, &t, seed)
        });
        (k, f)
    });

    // bns-data, bns-partition, bns-gcn::plan
    let spans = trace::by_name(tr.spans());
    let total = |name: &str| spans.get(name).map_or(0.0, |s| s.0);
    m.put("data.generate_s", total("generate"), "s");
    m.put("partition.run_s", total("partition"), "s");
    m.put(
        "partition.boundary_nodes",
        plan.total_boundary() as f64,
        "count",
    );
    let inner: Vec<f64> = plan.parts.iter().map(|p| p.n_inner() as f64).collect();
    let mean_inner = stats::mean(&inner);
    let max_inner = inner.iter().copied().fold(0.0, f64::max);
    m.put(
        "partition.inner_imbalance",
        (max_inner - mean_inner) / mean_inner,
        "ratio",
    );
    m.put("plan.build_s", total("plan"), "s");

    // bns-gcn::sampling and ::engine, from the traced calls' EpochStats.
    let epochs: Vec<&bns_gcn::engine::EpochStats> = traced.measured_epochs().collect();
    let per_epoch = |f: &dyn Fn(&bns_gcn::engine::EpochStats) -> f64| {
        stats::mean(&epochs.iter().map(|e| f(e)).collect::<Vec<_>>())
    };
    let call0 = &traced.calls[0];
    let boundary_total: usize = call0.boundary_per_rank.iter().sum();
    m.put("sampling.sample_s", per_epoch(&|e| e.sample_s), "s");
    m.put(
        "sampling.kept_ratio",
        per_epoch(&|e| e.selected_boundary as f64 / boundary_total.max(1) as f64),
        "ratio",
    );
    let epoch_s = stats::sorted(&epochs.iter().map(|e| e.total_s()).collect::<Vec<_>>());
    let tail = stats::tail(&epoch_s, TAIL_BEYOND);
    m.put("engine.epoch_s.p50", stats::quantile(&epoch_s, 0.5), "s");
    m.put(
        "engine.epoch_s.tail",
        tail.map_or(epoch_s.last().copied().unwrap_or(0.0), |t| t.value),
        "s",
    );
    m.put(
        "engine.epoch_s.tail_pct",
        tail.map_or(100.0, |t| t.pct),
        "%",
    );
    m.put("engine.epochs", epoch_s.len() as f64, "count");
    m.put("engine.compute_s", per_epoch(&|e| e.compute_s), "s");
    m.put("engine.comm_s", per_epoch(&|e| e.comm_s), "s");
    m.put("engine.reduce_s", per_epoch(&|e| e.reduce_s), "s");
    m.put(
        "engine.gflop_per_epoch",
        per_epoch(&|e| e.flops_per_rank.iter().sum::<f64>() / 1e9),
        "GFLOP",
    );
    let peak = call0.peak_mem_per_rank.iter().copied().max().unwrap_or(0);
    m.put("engine.peak_act_mb", peak as f64 / 1e6, "MB");
    m.put("fullgraph.epoch_s", full_epoch_s, "s");
    m.put("engine.parallel_speedup", full_epoch_s * base_eps, "x");

    // bns-comm + bns-gcn::exchange: TrafficStats per epoch, summed over
    // ranks, and the exchange counters.
    let class = |c: TrafficClass, bytes: bool| {
        per_epoch(&|e| {
            e.traffic_per_rank
                .iter()
                .map(|t| if bytes { t.bytes(c) } else { t.messages(c) })
                .sum::<u64>() as f64
        })
    };
    m.put(
        "comm.boundary_mb",
        class(TrafficClass::Boundary, true) / 1e6,
        "MB/epoch",
    );
    m.put(
        "comm.boundary_msgs",
        class(TrafficClass::Boundary, false),
        "count/epoch",
    );
    m.put(
        "comm.allreduce_mb",
        class(TrafficClass::AllReduce, true) / 1e6,
        "MB/epoch",
    );
    m.put(
        "comm.allreduce_msgs",
        class(TrafficClass::AllReduce, false),
        "count/epoch",
    );
    m.put(
        "comm.control_msgs",
        class(TrafficClass::Control, false),
        "count/epoch",
    );
    let c = traced
        .counters
        .as_ref()
        .expect("a traced pass has counters");
    let n_epochs = traced.total_epochs().max(1) as f64;
    let reuse = c.share("comm.arena.bytes_reused", "comm.arena.bytes_alloc", m);
    m.put("comm.arena.reuse_ratio", reuse, "ratio");
    let wait = c.share("comm.recv_any_waited", "comm.recv_any_ready", m);
    m.put("comm.recv_wait_ratio", wait, "ratio");

    // bns-runtime and bns-tensor
    for name in ["rt.parks", "rt.wakes", "rt.steals"] {
        let per_epoch = c.delta(name, m) / n_epochs;
        m.put(name, per_epoch, "count/epoch");
    }
    // Emitted only by workers that have a pool (more than one kernel
    // thread each).
    let dispatches = c.get_or_zero("pool.parallel_dispatches", "pool.threads", m) / n_epochs;
    m.put("pool.parallel_dispatches", dispatches, "count/epoch");
    m.put("tensor.matmul_ms", kernels.matmul_ms, "ms");
    m.put("codec.int8_pack_ms", kernels.int8_pack_ms, "ms");
    m.put("codec.int8_unpack_ms", kernels.int8_unpack_ms, "ms");
    let width = t
        .hidden
        .iter()
        .copied()
        .chain([plan.feat_dim])
        .max()
        .unwrap_or(1);
    m.put(
        "codec.wire_ratio",
        t.precision.compression_ratio(width),
        "x",
    );
    m.put("nn.aggregate_ms", kernels.aggregate_ms, "ms");

    // bns-serve (zero on the training workloads, which never serve)
    let (p50_ms, p99_ms, batch_ms, hit, avg_batch, lag, overhead) = match &serving {
        Some((base, traced_serve, probe)) => {
            let sc = traced_serve
                .counters
                .as_ref()
                .expect("a traced pass has counters");
            let hit = sc.share("serve.cache.hits", "serve.cache.misses", m);
            let avg_batch = sc.delta("serve.queries", m) / sc.delta("serve.batches", m).max(1.0);
            let lag = stats::quantile(&stats::sorted(&traced_serve.gen_lag_ms), 0.99);
            let overhead = traced_serve.summary.p50_us / base.summary.p50_us.max(1e-9) - 1.0;
            let (p50, p99) = (base.summary.p50_us / 1e3, base.summary.p99_us / 1e3);
            (p50, p99, probe.batch_ms, hit, avg_batch, lag, overhead)
        }
        None => {
            let overhead = 1.0 - traced.epochs_per_s() / base_eps;
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, overhead)
        }
    };
    // Open-loop latency of the untraced pass. Per-layer only: on a shared
    // host its spread over seeds exceeds the largest allowed bound.
    m.put("serve.p50_ms", p50_ms, "ms");
    m.put("serve.p99_ms", p99_ms, "ms");
    m.put("serve.batch_ms", batch_ms, "ms");
    m.put("serve.cache.hit_rate", hit, "ratio");
    m.put("serve.avg_batch", avg_batch, "count");
    m.put("serve.gen_lag_ms", lag, "ms");

    // bns-telemetry, and the benchmark's own spans
    m.put("telemetry.overhead_frac", overhead, "fraction");
    for (span, metric) in SPANS {
        m.put(metric, spans.get(span).map_or(0.0, |s| s.1), "s");
    }
    let absent = m.absent().len() as f64;
    m.put("telemetry.absent_counters", absent, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload train-k16-int8 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::TrainK16Int8);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload train-wide-k2 --seed 1 --seconds 1",
            "--workload train-wide-k2 --seed 1 --seconds 0 --trace 0",
            "--workload train-wide-k2 --seed 1 --seconds 1 --trace 2",
            "--workload train-wide-k2 --seed x --seconds 1 --trace 0",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
