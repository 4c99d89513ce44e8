//! Serde-free binary serialization for [`TrainedModel`] — train once,
//! serve forever.
//!
//! The serving harness sweeps many cache/batch configurations over the
//! *same* trained weights; without a save/load path every sweep cell
//! would pay a full training run. The format is deliberately dumb: a
//! magic/version header, an architecture tag, then each layer's scalars
//! and matrices as little-endian fixed-width fields. No compression, no
//! pointers, no external crates — `to_bytes` and `from_bytes` round-trip
//! bitwise (weights are `f32`; bit patterns are preserved exactly, NaN
//! payloads included).
//!
//! The format is versioned: [`from_bytes`](TrainedModel::from_bytes)
//! rejects unknown versions/tags with a descriptive [`ModelIoError`]
//! instead of misinterpreting bytes. Model files arrive from outside,
//! so decoding treats every count and shape as hostile: sizes use
//! checked arithmetic, nothing is allocated before the bytes backing it
//! are known to exist, and the layer shapes must chain. Any input
//! decodes to `Ok` or `Err` — never a panic or an abort.

use crate::engine::TrainedModel;
use bns_nn::{Activation, GatLayer, GatModel, GcnLayer, SageLayer, SageModel};
use bns_tensor::Matrix;
use std::fmt;

/// `b"BNSM"` — BNS-GCN model.
const MAGIC: [u8; 4] = *b"BNSM";
const VERSION: u32 = 1;

const ARCH_SAGE: u8 = 0;
const ARCH_GAT: u8 = 1;
const ARCH_GCN: u8 = 2;

const ACT_RELU: u8 = 0;
const ACT_IDENTITY: u8 = 1;
const ACT_LEAKY: u8 = 2;
const ACT_ELU: u8 = 3;

/// Fewest bytes one encoded layer can take (activation tag, dropout,
/// two matrix headers); bounds a hostile layer count by the input size.
const MIN_LAYER_BYTES: usize = 1 + 4 + 2 * 8;

/// Decode failure: truncated buffer, bad magic, unknown version or tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIoError(String);

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model decode error: {}", self.0)
    }
}

impl std::error::Error for ModelIoError {}

fn err(msg: impl Into<String>) -> ModelIoError {
    ModelIoError(msg.into())
}

// ---------------------------------------------------------------- encode

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    for &x in m.as_slice() {
        put_f32(buf, x);
    }
}

fn put_act(buf: &mut Vec<u8>, act: Activation) {
    match act {
        Activation::Relu => buf.push(ACT_RELU),
        Activation::Identity => buf.push(ACT_IDENTITY),
        Activation::LeakyRelu(slope) => {
            buf.push(ACT_LEAKY);
            put_f32(buf, slope);
        }
        Activation::Elu => buf.push(ACT_ELU),
    }
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelIoError> {
        if n > self.remaining() {
            // Reader is model IO, reached only via a name-collision
            // edge (Option::take).
            // bns-allow(BNS-A005): error-path message formatting
            return Err(err(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ModelIoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ModelIoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, ModelIoError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn matrix(&mut self) -> Result<Matrix, ModelIoError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let bytes = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| err("matrix shape overflow"))?;
        let raw = self.take(bytes)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    fn act(&mut self) -> Result<Activation, ModelIoError> {
        match self.u8()? {
            ACT_RELU => Ok(Activation::Relu),
            ACT_IDENTITY => Ok(Activation::Identity),
            ACT_LEAKY => Ok(Activation::LeakyRelu(self.f32()?)),
            ACT_ELU => Ok(Activation::Elu),
            t => Err(err(format!("unknown activation tag {t}"))),
        }
    }
}

/// Each layer's `(d_in, d_out)` after checking its own matrices agree;
/// then the chain `d_out(l) == d_in(l + 1)` across layers.
fn check_shapes(model: &TrainedModel) -> Result<(), ModelIoError> {
    let row = |m: &Matrix, d_out: usize| m.rows() == 1 && m.cols() == d_out;
    let dims: Vec<Option<(usize, usize)>> = match model {
        TrainedModel::Sage(m) => m
            .layers
            .iter()
            .map(|l| {
                let (i, o) = (l.w_self.rows(), l.w_self.cols());
                (l.w_neigh.shape() == (i, o) && row(&l.b, o)).then_some((i, o))
            })
            .collect(),
        TrainedModel::Gat(m) => m
            .layers
            .iter()
            .map(|l| {
                let (i, o) = (l.w.rows(), l.w.cols());
                (row(&l.a_l, o) && row(&l.a_r, o)).then_some((i, o))
            })
            .collect(),
        TrainedModel::Gcn(layers) => layers
            .iter()
            .map(|l| row(&l.b, l.w.cols()).then_some((l.w.rows(), l.w.cols())))
            .collect(),
    };
    let mut prev_out: Option<usize> = None;
    for (l, d) in dims.into_iter().enumerate() {
        let (d_in, d_out) = d.ok_or_else(|| err(format!("layer {l}: inconsistent shapes")))?;
        if prev_out.is_some_and(|p| p != d_in) {
            return Err(err(format!(
                "layer {l}: input width {d_in} does not match the previous output"
            )));
        }
        prev_out = Some(d_out);
    }
    Ok(())
}

impl TrainedModel {
    /// Serializes the model to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        match self {
            TrainedModel::Sage(m) => {
                buf.push(ARCH_SAGE);
                put_u32(&mut buf, m.layers.len() as u32);
                for l in &m.layers {
                    put_act(&mut buf, l.act);
                    put_f32(&mut buf, l.dropout);
                    put_matrix(&mut buf, &l.w_self);
                    put_matrix(&mut buf, &l.w_neigh);
                    put_matrix(&mut buf, &l.b);
                }
            }
            TrainedModel::Gat(m) => {
                buf.push(ARCH_GAT);
                put_u32(&mut buf, m.layers.len() as u32);
                for l in &m.layers {
                    put_act(&mut buf, l.act);
                    put_f32(&mut buf, l.dropout);
                    put_f32(&mut buf, l.neg_slope);
                    put_matrix(&mut buf, &l.w);
                    put_matrix(&mut buf, &l.a_l);
                    put_matrix(&mut buf, &l.a_r);
                }
            }
            TrainedModel::Gcn(layers) => {
                buf.push(ARCH_GCN);
                put_u32(&mut buf, layers.len() as u32);
                for l in layers {
                    put_act(&mut buf, l.act);
                    put_f32(&mut buf, l.dropout);
                    put_matrix(&mut buf, &l.w);
                    put_matrix(&mut buf, &l.b);
                }
            }
        }
        buf
    }

    /// Decodes a model previously produced by
    /// [`to_bytes`](TrainedModel::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainedModel, ModelIoError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(err("bad magic (not a BNSM model file)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(err(format!(
                "unsupported version {version} (supported: {VERSION})"
            )));
        }
        let arch = r.u8()?;
        let n_layers = r.u32()? as usize;
        if n_layers == 0 || n_layers > r.remaining() / MIN_LAYER_BYTES {
            return Err(err(format!(
                "layer count {n_layers} does not fit the {} bytes that follow",
                r.remaining()
            )));
        }
        let model = match arch {
            ARCH_SAGE => {
                let mut layers = Vec::with_capacity(n_layers);
                for _ in 0..n_layers {
                    let act = r.act()?;
                    let dropout = r.f32()?;
                    layers.push(SageLayer {
                        act,
                        dropout,
                        w_self: r.matrix()?,
                        w_neigh: r.matrix()?,
                        b: r.matrix()?,
                    });
                }
                TrainedModel::Sage(SageModel { layers })
            }
            ARCH_GAT => {
                let mut layers = Vec::with_capacity(n_layers);
                for _ in 0..n_layers {
                    let act = r.act()?;
                    let dropout = r.f32()?;
                    let neg_slope = r.f32()?;
                    layers.push(GatLayer {
                        act,
                        dropout,
                        neg_slope,
                        w: r.matrix()?,
                        a_l: r.matrix()?,
                        a_r: r.matrix()?,
                    });
                }
                TrainedModel::Gat(GatModel { layers })
            }
            ARCH_GCN => {
                let mut layers = Vec::with_capacity(n_layers);
                for _ in 0..n_layers {
                    let act = r.act()?;
                    let dropout = r.f32()?;
                    layers.push(GcnLayer {
                        act,
                        dropout,
                        w: r.matrix()?,
                        b: r.matrix()?,
                    });
                }
                TrainedModel::Gcn(layers)
            }
            t => return Err(err(format!("unknown architecture tag {t}"))),
        };
        if r.pos != bytes.len() {
            return Err(err(format!(
                "{} trailing bytes after model",
                bytes.len() - r.pos
            )));
        }
        check_shapes(&model)?;
        Ok(model)
    }

    /// Writes the model to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a model from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<TrainedModel> {
        let bytes = std::fs::read(path)?;
        TrainedModel::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_tensor::SeededRng;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn sample_models() -> Vec<TrainedModel> {
        let mut rng = SeededRng::new(99);
        vec![
            TrainedModel::Sage(SageModel::new(&[7, 5, 3], 0.3, &mut rng)),
            TrainedModel::Gat(GatModel::new(&[6, 4, 2], 0.1, &mut rng)),
            TrainedModel::Gcn(vec![
                GcnLayer::new(5, 4, Activation::Relu, 0.2, &mut rng),
                GcnLayer::new(4, 3, Activation::Identity, 0.0, &mut rng),
            ]),
        ]
    }

    #[test]
    fn round_trip_all_architectures() {
        for model in sample_models() {
            let bytes = model.to_bytes();
            let back = TrainedModel::from_bytes(&bytes).unwrap();
            assert_eq!(model.num_layers(), back.num_layers());
            assert_eq!(model.num_classes(), back.num_classes());
            assert_eq!(model.feat_dim(), back.feat_dim());
            // Bitwise weight equality, architecture by architecture.
            match (&model, &back) {
                (TrainedModel::Sage(a), TrainedModel::Sage(b)) => {
                    for (la, lb) in a.layers.iter().zip(&b.layers) {
                        assert_eq!(la.act, lb.act);
                        assert_eq!(la.dropout.to_bits(), lb.dropout.to_bits());
                        assert_eq!(bits(&la.w_self), bits(&lb.w_self));
                        assert_eq!(bits(&la.w_neigh), bits(&lb.w_neigh));
                        assert_eq!(bits(&la.b), bits(&lb.b));
                    }
                }
                (TrainedModel::Gat(a), TrainedModel::Gat(b)) => {
                    for (la, lb) in a.layers.iter().zip(&b.layers) {
                        assert_eq!(la.act, lb.act);
                        assert_eq!(la.neg_slope.to_bits(), lb.neg_slope.to_bits());
                        assert_eq!(bits(&la.w), bits(&lb.w));
                        assert_eq!(bits(&la.a_l), bits(&lb.a_l));
                        assert_eq!(bits(&la.a_r), bits(&lb.a_r));
                    }
                }
                (TrainedModel::Gcn(a), TrainedModel::Gcn(b)) => {
                    for (la, lb) in a.iter().zip(b) {
                        assert_eq!(la.act, lb.act);
                        assert_eq!(bits(&la.w), bits(&lb.w));
                        assert_eq!(bits(&la.b), bits(&lb.b));
                    }
                }
                _ => panic!("architecture changed in round trip"),
            }
        }
    }

    #[test]
    fn leaky_relu_slope_survives() {
        let mut rng = SeededRng::new(5);
        let model = TrainedModel::Gcn(vec![GcnLayer::new(
            3,
            2,
            Activation::LeakyRelu(0.07),
            0.0,
            &mut rng,
        )]);
        let back = TrainedModel::from_bytes(&model.to_bytes()).unwrap();
        let TrainedModel::Gcn(layers) = back else {
            panic!()
        };
        assert_eq!(layers[0].act, Activation::LeakyRelu(0.07));
    }

    #[test]
    fn rejects_corrupt_input() {
        let model = &sample_models()[0];
        let good = model.to_bytes();

        assert!(TrainedModel::from_bytes(&[]).is_err(), "empty");
        assert!(
            TrainedModel::from_bytes(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(TrainedModel::from_bytes(&trailing).is_err(), "trailing");

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(TrainedModel::from_bytes(&bad_magic).is_err(), "magic");

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(TrainedModel::from_bytes(&bad_version).is_err(), "version");

        let mut bad_arch = good;
        bad_arch[8] = 0xEE;
        assert!(TrainedModel::from_bytes(&bad_arch).is_err(), "arch tag");
    }

    /// Seeded byte mutations of saved models — every truncation, random
    /// bit flips, a `u32::MAX` layer count and a 2³¹×2³¹ matrix header —
    /// must decode to `Ok` or `Err`, never panic or abort.
    #[test]
    fn hostile_bytes_return_ok_or_err() {
        let decode = |bytes: &[u8], what: &str| {
            let got = std::panic::catch_unwind(|| TrainedModel::from_bytes(bytes).is_ok());
            assert!(got.is_ok(), "{what}: from_bytes panicked");
            got.unwrap()
        };
        let mut rng = SeededRng::new(0xbad5eed);
        for model in sample_models() {
            let good = model.to_bytes();
            assert!(decode(&good, "unmodified"));
            for len in 0..good.len() {
                assert!(!decode(&good[..len], "truncation"), "prefix {len} decoded");
            }
            for _ in 0..2000 {
                let mut bad = good.clone();
                for _ in 0..1 + rng.next_u64() % 4 {
                    let bit = rng.next_u64() as usize % (8 * bad.len());
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
                decode(&bad, "bit flips");
            }
            // Layer count (after magic, version and arch tag).
            let mut huge_layers = good.clone();
            huge_layers[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(!decode(&huge_layers, "u32::MAX layers"));
            // First matrix header: after the count, the first layer's
            // activation tag and dropout (and GAT's slope).
            let at = 13
                + 1
                + 4
                + if matches!(model, TrainedModel::Gat(_)) {
                    4
                } else {
                    0
                };
            let mut huge_matrix = good.clone();
            huge_matrix[at..at + 4].copy_from_slice(&(1u32 << 31).to_le_bytes());
            huge_matrix[at + 4..at + 8].copy_from_slice(&(1u32 << 31).to_le_bytes());
            assert!(!decode(&huge_matrix, "2^31 x 2^31 matrix"));
        }
    }

    #[test]
    fn rejects_broken_layer_chain() {
        let mut rng = SeededRng::new(3);
        let model = TrainedModel::Gcn(vec![
            GcnLayer::new(5, 4, Activation::Relu, 0.0, &mut rng),
            GcnLayer::new(3, 2, Activation::Identity, 0.0, &mut rng),
        ]);
        let e = TrainedModel::from_bytes(&model.to_bytes()).unwrap_err();
        assert!(e.to_string().contains("layer 1"), "{e}");
    }

    #[test]
    fn file_round_trip_and_load_errors() {
        let model = sample_models().remove(0);
        let dir = std::env::temp_dir();
        let path = dir.join("bns_model_io_test.bnsm");
        model.save(&path).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(back.num_classes(), model.num_classes());
        std::fs::remove_file(&path).unwrap();
        assert!(TrainedModel::load(&path).is_err(), "missing file");
    }
}
