//! Golden loss-curve pins: a checked-in hash of each config's training
//! trajectory.
//!
//! The determinism suites compare two runs of the *same* build, so a
//! refactor that shifts the order of RNG draws, sends or folds the same
//! way in every run passes them all. These pins compare against the
//! bits this code produced when they were recorded: per-epoch loss,
//! val/test score bits, selected-boundary counts and every rank's
//! per-class traffic, for SAGE, GCN and GAT under dynamic and static
//! sampling, with and without pipelining, on the exact and the int8
//! wire.
//!
//! Every config fixes `workers` and `wire_precision`, so `BNS_WORKERS`
//! and `BNS_QUANT` cannot move the result; `BNS_THREADS` and
//! `BNS_SIMD` must not either, because kernel results are bitwise
//! identical across thread counts and SIMD backends. A mismatch means
//! the arithmetic changed. Do not re-record a pin to make it pass on
//! a new host: report the difference.

use bns_comm::{TrafficClass, WirePrecision};
use bns_data::SyntheticSpec;
use bns_gcn::engine::{train_with_plan, ModelArch, TrainConfig, TrainRun};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::BoundarySampling;
use bns_partition::{MetisLikePartitioner, Partitioner};
use std::sync::Arc;
use ModelArch::{Gat, Gcn, Sage};
use WirePrecision::{Exact, Int8};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn curve_hash(run: &TrainRun) -> u64 {
    let mut h = Fnv::new();
    h.word(run.epochs.len() as u64);
    for e in &run.epochs {
        h.word(e.loss.to_bits());
        h.word(e.val_score.map_or(u64::MAX, f64::to_bits));
        h.word(e.test_score.map_or(u64::MAX, f64::to_bits));
        h.word(e.selected_boundary as u64);
        for t in &e.traffic_per_rank {
            for class in TrafficClass::ALL {
                h.word(t.bytes(class));
                h.word(t.messages(class));
            }
        }
    }
    h.0
}

fn plan() -> Arc<PartitionPlan> {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(300).generate(11));
    let part = MetisLikePartitioner::default().partition(&ds.graph, 4, 1);
    Arc::new(PartitionPlan::build(&ds, &part))
}

fn cfg(arch: ModelArch, p: f64, pipeline: bool, precision: WirePrecision) -> TrainConfig {
    TrainConfig {
        arch,
        hidden: vec![12],
        dropout: 0.2,
        lr: 0.01,
        epochs: 3,
        sampling: BoundarySampling::Bns { p },
        eval_every: 2,
        seed: 5,
        clip_norm: Some(3.0),
        pipeline,
        workers: Some(2),
        wire_precision: Some(precision),
    }
}

/// `(arch, p, pipeline, precision, pinned hash)`.
const PINS: &[(ModelArch, f64, bool, WirePrecision, u64)] = &[
    (Sage, 1.0, false, Exact, 0x30f6_95b5_baa2_18b4),
    (Sage, 0.1, false, Exact, 0xd045_5ebb_6d38_ee53),
    (Sage, 1.0, true, Exact, 0xf640_d83c_803c_33f6),
    (Sage, 1.0, false, Int8, 0x6c2b_1b9d_f98e_fd5e),
    (Sage, 0.1, false, Int8, 0xca7d_96dd_89bd_60dc),
    (Sage, 1.0, true, Int8, 0x28f2_948b_771d_ee31),
    (Gcn, 1.0, false, Exact, 0x31da_6ca1_b1c0_78a6),
    (Gcn, 0.1, false, Exact, 0x7ea5_f8f2_b4b3_d0f3),
    (Gcn, 1.0, true, Exact, 0x649b_32a9_a8c3_004c),
    (Gcn, 1.0, false, Int8, 0xa7e7_d77a_ab85_48fb),
    (Gcn, 0.1, false, Int8, 0x7d30_e0ad_b15b_243c),
    (Gcn, 1.0, true, Int8, 0xd837_e9c0_c3b3_95b8),
    (Gat, 1.0, false, Exact, 0x6bf0_ef77_660e_dc57),
    (Gat, 0.1, false, Exact, 0x79a8_1c1d_1c99_c214),
    (Gat, 1.0, true, Exact, 0x9bc8_f214_2f30_724b),
    (Gat, 1.0, false, Int8, 0xbf8e_9041_73aa_4170),
    (Gat, 0.1, false, Int8, 0xb75e_64b7_1e3a_d489),
    (Gat, 1.0, true, Int8, 0xa977_8642_e2f2_f5fd),
];

#[test]
fn loss_curves_match_checked_in_pins() {
    let plan = plan();
    let mut mismatches = Vec::new();
    for &(arch, p, pipeline, precision, pin) in PINS {
        let run = train_with_plan(&plan, &cfg(arch, p, pipeline, precision));
        let got = curve_hash(&run);
        if got != pin {
            mismatches.push(format!(
                "{arch:?} p={p} pipeline={pipeline} {precision:?}: pinned {pin:#018x}, got {got:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "loss curves moved:\n{}",
        mismatches.join("\n")
    );
}
