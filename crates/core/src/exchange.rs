//! Per-epoch boundary communication: selection exchange, the serial
//! reference feature/gradient exchange, and the overlap-capable,
//! allocation-free exchange the engine's hot path uses.
//!
//! ## Overlap architecture
//!
//! Every receive here is an `async fn` awaiting the `bns-comm` receive
//! future, so a rank that waits on a peer parks its task instead of a
//! thread. The serial path ([`exchange_features_serial`]) waits on
//! peers in fixed owner order and materializes the halo as
//! `vstack(h_inner, h_bd)` — a full copy of the inner activation matrix
//! per layer. The overlapped path splits that into
//! [`send_boundary_rows`] (issue all sends, never waits) and
//! [`recv_boundary_blocks`] (take arrivals with [`RankComm::recv_any`]),
//! so the engine can run the inner-edge partial aggregation between the
//! two while boundary blocks are in flight.
//!
//! ## Determinism
//!
//! Blocks are *received* in arrival order but *written* to fixed,
//! disjoint row ranges of the boundary block (and gradient blocks are
//! *applied* in fixed ascending peer order), so the result is bitwise
//! identical to the serial path no matter which peer delivers first.
//! The proptests in `tests/overlap_determinism.rs` enforce this.
//!
//! ## Allocation-freedom
//!
//! [`ExchangeArena`] recycles every `Vec<f32>` that arrives as a
//! message payload into a free list used for subsequent gather/send
//! staging, and reuses the boundary-block matrix capacity across layers
//! and epochs. In steady state the per-layer comm path performs no
//! heap allocation; `comm.arena.*` counters report bytes reused vs
//! freshly allocated.
//!
//! ## Wire precision
//!
//! Every overlapped send/recv takes a [`WirePrecision`]. `Exact` is the
//! historical raw-f32 path, byte for byte. The quantized modes pack the
//! staged rows through the `bns_tensor::simd::codec` kernels into
//! `Vec<u8>` payloads — so [`bns_comm::TrafficStats`] and the α–β cost
//! model automatically see the *compressed* volume — and unpack on
//! arrival (features fold `feature_scale` into the dequant pass; the
//! gradient return path packs with seeded, per-row **stochastic
//! rounding** and dequantizes into the same staging slots the exact
//! path uses, so the fixed-order scatter-add downstream is untouched).
//! The serial reference functions stay exact-only. See DESIGN.md §13.

use crate::plan::LocalPartition;
use bns_comm::{RankComm, TrafficClass, WirePrecision};
use bns_tensor::simd::{self, codec};
use bns_tensor::Matrix;
use std::ops::Range;

/// Exchanged selection state for one epoch: what to send to and expect
/// from each peer.
#[derive(Debug, Clone)]
pub struct EpochExchange {
    /// For each peer `j`: local inner rows to send each layer.
    pub rows_to_send: Vec<Vec<usize>>,
    /// Per-owner ranges into this rank's selected-boundary list (the
    /// row ranges of the boundary block each owner fills).
    pub owner_sel: Vec<(usize, Range<usize>)>,
}

impl EpochExchange {
    /// True when this rank neither sends nor receives boundary rows.
    pub fn is_trivial(&self) -> bool {
        self.owner_sel.iter().all(|(_, r)| r.is_empty())
            && self.rows_to_send.iter().all(|r| r.is_empty())
    }
}

/// Per-owner view of this rank's selected boundary nodes: `(owner,
/// selected-index range, relative positions within the owner's block)`.
fn per_owner_selection(
    lp: &LocalPartition,
    selected: &[usize],
) -> Vec<(usize, Range<usize>, Vec<u32>)> {
    // The selection is resampled every epoch, so its per-owner lists
    // are rebuilt rather than recycled.
    // bns-allow(BNS-A005): per-owner selection rebuilt once per epoch, world-size bounded
    let mut out = Vec::new();
    let mut cursor = 0usize;
    for owner in 0..lp.owner_ranges.len() {
        if owner == lp.rank {
            continue;
        }
        let (s, e) = lp.owner_ranges[owner];
        let start = cursor;
        // Moved into the send as the wire payload.
        // bns-allow(BNS-A005): selection payload, one per owner per epoch
        let mut rel = Vec::new();
        while cursor < selected.len() && selected[cursor] < e {
            debug_assert!(selected[cursor] >= s);
            rel.push((selected[cursor] - s) as u32);
            cursor += 1;
        }
        out.push((owner, start..cursor, rel));
    }
    out
}

/// Tells every owner which of its nodes this rank selected and learns
/// which local rows each peer wants (Algorithm 1's selection
/// broadcast). The relative-position vectors are moved into the sends —
/// no clone on the send path. The result is a pure function of the
/// message contents, so scheduling cannot change it.
pub async fn exchange_selection(
    comm: &mut RankComm,
    lp: &LocalPartition,
    selected: &[usize],
    tag: u64,
) -> EpochExchange {
    // bns-allow(BNS-A005): per-owner ranges rebuilt once per epoch, world-size bounded
    let mut owner_sel = Vec::new();
    for (owner, range, rel) in per_owner_selection(lp, selected) {
        comm.send(owner, tag, rel, TrafficClass::Control);
        owner_sel.push((owner, range));
    }
    // bns-allow(BNS-A005): per-peer send lists rebuilt once per epoch, world-size bounded
    let mut rows_to_send = vec![Vec::new(); comm.world_size()];
    for (src, rows) in rows_to_send.iter_mut().enumerate() {
        if src == lp.rank {
            continue;
        }
        let rel: Vec<u32> = comm.recv(src, tag).await;
        *rows = rel
            .iter()
            .map(|&p| lp.send_lists[src][p as usize])
            // Size tracks the fresh boundary sample, so a recycled
            // buffer would just resize anyway.
            // bns-allow(BNS-A005): per-peer send list rebuilt once per epoch
            .collect();
    }
    EpochExchange {
        rows_to_send,
        owner_sel,
    }
}

/// Reusable per-rank buffers for the overlapped exchange, plus overlap
/// telemetry. One arena lives for the whole training run; buffers are
/// recycled across layers and epochs.
#[derive(Debug, Default)]
pub struct ExchangeArena {
    /// The received (scaled) boundary block for the current layer.
    h_bd: Matrix,
    /// Recycled payload buffers, reused for gather/send staging.
    free: Vec<Vec<f32>>,
    /// Recycled quantized wire buffers (pack staging and received
    /// payloads).
    free_u8: Vec<Vec<u8>>,
    /// Reusable per-peer gradient staging slots.
    grad_slots: Vec<Vec<f32>>,
    /// Bytes served from the free list.
    pub bytes_reused: u64,
    /// Bytes that needed a fresh allocation.
    pub bytes_alloc: u64,
    /// Boundary/gradient blocks received in total.
    pub blocks: u64,
    /// Blocks serviced ahead of a lower-ranked owner still in flight —
    /// receives the serial path would have head-of-line blocked on.
    pub out_of_order_blocks: u64,
}

/// Bound on recycled buffers kept around (layer dims recur every epoch,
/// so a small pool reaches steady state quickly).
const ARENA_MAX_FREE: usize = 32;

impl ExchangeArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The boundary block assembled by the latest
    /// [`recv_boundary_blocks`] call.
    pub fn boundary(&self) -> &Matrix {
        &self.h_bd
    }

    /// A zeroed buffer of exactly `len` floats, served from the free
    /// list when a large-enough recycled buffer exists.
    fn take_buf(&mut self, len: usize) -> Vec<f32> {
        if let Some(pos) = self.free.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.free.swap_remove(pos);
            self.bytes_reused += 4 * len as u64;
            buf.clear();
            buf.resize(len, 0.0);
            return buf;
        }
        self.bytes_alloc += 4 * len as u64;
        vec![0.0; len]
    }

    /// Returns a payload buffer to the free list.
    fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.free.len() < ARENA_MAX_FREE {
            self.free.push(buf);
        }
    }

    /// A zeroed wire buffer of exactly `len` bytes, recycled like
    /// [`ExchangeArena::take_buf`].
    fn take_u8(&mut self, len: usize) -> Vec<u8> {
        if let Some(pos) = self.free_u8.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.free_u8.swap_remove(pos);
            self.bytes_reused += len as u64;
            buf.clear();
            buf.resize(len, 0);
            return buf;
        }
        self.bytes_alloc += len as u64;
        vec![0; len]
    }

    /// Returns a wire buffer to the free list.
    fn recycle_u8(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.free_u8.len() < ARENA_MAX_FREE {
            self.free_u8.push(buf);
        }
    }

    /// Resets the boundary block to a zeroed `rows x cols` matrix,
    /// reusing its existing capacity.
    fn reset_h_bd(&mut self, rows: usize, cols: usize) {
        let mut data = std::mem::take(&mut self.h_bd).into_vec();
        data.clear();
        data.resize(rows * cols, 0.0);
        self.h_bd = Matrix::from_vec(rows, cols, data);
    }

    /// Flushes the arena's counters to telemetry (call once per rank at
    /// the end of a run).
    pub fn flush_counters(&self) {
        bns_telemetry::counter_add("comm.arena.bytes_reused", self.bytes_reused);
        bns_telemetry::counter_add("comm.arena.bytes_alloc", self.bytes_alloc);
        bns_telemetry::counter_add("comm.overlap.blocks", self.blocks);
        bns_telemetry::counter_add("comm.overlap.out_of_order_blocks", self.out_of_order_blocks);
    }
}

/// A received boundary/gradient payload: raw f32 rows (`Exact`) or a
/// quantized wire buffer to run through the codec.
enum BlockPayload {
    Exact(Vec<f32>),
    Wire(Vec<u8>),
}

/// Packs a staged f32 block into a recycled wire buffer under a
/// non-exact precision. `sr` selects the stochastic-rounding kernels
/// (the gradient path) with the given per-destination stream seed.
fn pack_block(
    arena: &mut ExchangeArena,
    src: &[f32],
    d: usize,
    precision: WirePrecision,
    sr: Option<u64>,
) -> Vec<u8> {
    let rows = src.len() / d;
    let mut wire = arena.take_u8(precision.payload_bytes(rows, d));
    let bk = simd::begin_kernel();
    match (precision, sr) {
        (WirePrecision::F16, None) => codec::pack_f16(bk, &mut wire, src),
        (WirePrecision::F16, Some(seed)) => codec::pack_f16_sr(bk, &mut wire, src, d, seed),
        (WirePrecision::Bf16, None) => codec::pack_bf16(bk, &mut wire, src),
        (WirePrecision::Bf16, Some(seed)) => codec::pack_bf16_sr(bk, &mut wire, src, d, seed),
        (WirePrecision::Int8, None) => codec::pack_int8(bk, &mut wire, src, d),
        (WirePrecision::Int8, Some(seed)) => codec::pack_int8_sr(bk, &mut wire, src, d, seed),
        (WirePrecision::Exact, _) => unreachable!("exact payloads are sent unpacked"),
    }
    wire
}

/// Dequantizes a received wire buffer into `dst`, multiplying by
/// `scale` (the feature path folds `feature_scale` in here; the
/// gradient path passes `1.0` because its sends are pre-scaled).
fn unpack_block(dst: &mut [f32], wire: &[u8], d: usize, scale: f32, precision: WirePrecision) {
    let bk = simd::begin_kernel();
    match precision {
        WirePrecision::F16 => codec::unpack_f16(bk, dst, wire, scale),
        WirePrecision::Bf16 => codec::unpack_bf16(bk, dst, wire, scale),
        WirePrecision::Int8 => codec::unpack_int8(bk, dst, wire, d, scale),
        WirePrecision::Exact => unreachable!("exact payloads arrive unpacked"),
    }
}

/// Serial reference exchange (the bitwise ground truth the overlapped
/// path is tested against): sends the requested feature rows to every
/// peer, receives blocks in fixed owner order, and returns the stacked
/// `vstack(h_inner, h_bd)`.
pub async fn exchange_features_serial(
    comm: &mut RankComm,
    ex: &EpochExchange,
    h_inner: &Matrix,
    n_selected: usize,
    feature_scale: f32,
    tag: u64,
) -> Matrix {
    let d = h_inner.cols();
    for (j, rows) in ex.rows_to_send.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let block = h_inner.gather_rows(rows);
        comm.send(j, tag, block.into_vec(), TrafficClass::Boundary);
    }
    let mut h_bd = Matrix::zeros(n_selected, d);
    for (owner, range) in &ex.owner_sel {
        if range.is_empty() {
            continue;
        }
        let data: Vec<f32> = comm.recv(*owner, tag).await;
        debug_assert_eq!(data.len(), range.len() * d);
        h_bd.as_mut_slice()[range.start * d..range.end * d].copy_from_slice(&data);
    }
    if feature_scale != 1.0 {
        h_bd.scale(feature_scale);
    }
    h_inner.vstack(&h_bd)
}

/// Serial reference gradient exchange: sends boundary-row gradients
/// back to their owners (scaled by `feature_scale`, the chain rule
/// through the `H/p` rescale) and accumulates peers' contributions in
/// fixed ascending peer order.
pub async fn exchange_gradients_serial(
    comm: &mut RankComm,
    ex: &EpochExchange,
    d_inner: &mut Matrix,
    d_bd: &Matrix,
    feature_scale: f32,
    tag: u64,
) {
    let d = d_inner.cols();
    for (owner, range) in &ex.owner_sel {
        if range.is_empty() {
            continue;
        }
        let mut block: Vec<f32> = d_bd.as_slice()[range.start * d..range.end * d].to_vec();
        if feature_scale != 1.0 {
            for x in &mut block {
                *x *= feature_scale;
            }
        }
        comm.send(*owner, tag, block, TrafficClass::Boundary);
    }
    for (j, rows) in ex.rows_to_send.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let data: Vec<f32> = comm.recv(j, tag).await;
        let block = Matrix::from_vec(rows.len(), d, data);
        d_inner.scatter_add_rows(rows, &block);
    }
}

/// Overlapped-path phase 1: stages the requested feature rows into
/// arena buffers and issues every send. Returns immediately (sends
/// never wait); await [`recv_boundary_blocks`] after running whatever
/// compute should overlap the transfer.
///
/// Non-exact precisions pack the staged rows (round-to-nearest-even —
/// the feature path is deterministic, no stochastic rounding) and send
/// the wire buffer instead, so the traffic counters record the
/// compressed size.
pub fn send_boundary_rows(
    comm: &mut RankComm,
    ex: &EpochExchange,
    h_inner: &Matrix,
    tag: u64,
    arena: &mut ExchangeArena,
    precision: WirePrecision,
) {
    let d = h_inner.cols();
    for (j, rows) in ex.rows_to_send.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let mut buf = arena.take_buf(rows.len() * d);
        for (chunk, &r) in buf.chunks_exact_mut(d).zip(rows) {
            chunk.copy_from_slice(h_inner.row(r));
        }
        if precision == WirePrecision::Exact {
            comm.send(j, tag, buf, TrafficClass::Boundary);
        } else {
            let wire = pack_block(arena, &buf, d, precision, None);
            arena.recycle(buf);
            comm.send(j, tag, wire, TrafficClass::Boundary);
        }
    }
}

/// Receives the next block with `tag` from whichever of `from` delivers
/// first (the receive emits the `comm.recv_any_*` overlap counters),
/// and counts it into the arena's overlap telemetry: a block from
/// anyone but the lowest pending peer is one the serial path would
/// have head-of-line blocked on.
async fn recv_block(
    comm: &mut RankComm,
    tag: u64,
    from: &[usize],
    arena: &mut ExchangeArena,
    precision: WirePrecision,
) -> (usize, BlockPayload) {
    let got = if precision == WirePrecision::Exact {
        let (src, data) = comm.recv_any(tag, from).await;
        (src, BlockPayload::Exact(data))
    } else {
        let (src, wire) = comm.recv_any(tag, from).await;
        (src, BlockPayload::Wire(wire))
    };
    arena.blocks += 1;
    if got.0 != from[0] {
        arena.out_of_order_blocks += 1;
    }
    got
}

/// Overlapped-path phase 2: takes boundary blocks in **arrival** order
/// ([`RankComm::recv_any`]) into their fixed disjoint row ranges of the
/// arena's boundary block, applying `feature_scale` during the copy —
/// bitwise identical to receive-in-owner-order + whole-matrix scale,
/// with no head-of-line blocking. Received payload buffers are
/// recycled into the arena. `precision` must match what the peers
/// passed to [`send_boundary_rows`].
///
/// With `stale` (PipeGCN pipelining), the fresh block is swapped into
/// the cache and the *previous* epoch's block becomes current (first
/// epoch: fresh is used directly and cached). Access the result via
/// [`ExchangeArena::boundary`].
#[allow(clippy::too_many_arguments)]
pub async fn recv_boundary_blocks(
    comm: &mut RankComm,
    ex: &EpochExchange,
    n_selected: usize,
    d: usize,
    feature_scale: f32,
    tag: u64,
    arena: &mut ExchangeArena,
    stale: Option<&mut Option<Matrix>>,
    precision: WirePrecision,
) {
    arena.reset_h_bd(n_selected, d);
    let mut remaining: Vec<usize> = ex
        .owner_sel
        .iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(o, _)| *o)
        // bns-allow(BNS-A005): pending-owner worklist, once per epoch, world-size bounded
        .collect();
    while !remaining.is_empty() {
        let (src, payload) = recv_block(comm, tag, &remaining, arena, precision).await;
        remaining.retain(|&o| o != src);
        let range = &ex
            .owner_sel
            .iter()
            .find(|(o, _)| *o == src)
            .expect("unexpected source")
            .1;
        let dst = &mut arena.h_bd.as_mut_slice()[range.start * d..range.end * d];
        match payload {
            BlockPayload::Exact(data) => {
                debug_assert_eq!(data.len(), range.len() * d);
                if feature_scale != 1.0 {
                    for (a, b) in dst.iter_mut().zip(&data) {
                        *a = b * feature_scale;
                    }
                } else {
                    dst.copy_from_slice(&data);
                }
                arena.recycle(data);
            }
            BlockPayload::Wire(wire) => {
                debug_assert_eq!(wire.len(), precision.payload_bytes(range.len(), d));
                unpack_block(dst, &wire, d, feature_scale, precision);
                arena.recycle_u8(wire);
            }
        }
    }
    if let Some(cache) = stale {
        match cache.take() {
            Some(mut prev) => {
                std::mem::swap(&mut arena.h_bd, &mut prev);
                *cache = Some(prev);
            }
            None => {
                // Every later epoch swaps buffers instead of cloning.
                // bns-allow(BNS-A005): one-time seed of the stale-boundary cache
                *cache = Some(arena.h_bd.clone());
            }
        }
    }
}

/// Overlapped gradient exchange: issues all sends (scaled into arena
/// buffers), receives peers' contributions in arrival order into
/// per-peer staging slots, then applies them to `d_inner` in **fixed
/// ascending peer order** — the scatter-add targets of different peers
/// can overlap, so arrival-order application would not be
/// deterministic.
///
/// With `stale` (PipeGCN), fresh contributions are cached per peer and
/// the previous epoch's are applied instead (first epoch applies
/// fresh). `d_bd` is taken by value and freed once the sends are out.
///
/// Non-exact precisions pack each scaled block with stochastic
/// rounding and dequantize arrivals into the same f32 staging slots the
/// exact path uses, so the fixed-order scatter-add (and the PipeGCN
/// stale cache) are precision-agnostic. The per-destination stream
/// seed is `codec::rand_at(sr_seed, tag, owner)` — `tag` already
/// encodes epoch and layer, so every (epoch, layer, destination) block
/// gets an independent stream that is a pure function of the run seed,
/// bitwise reproducible at any thread/worker/lane count.
#[allow(clippy::too_many_arguments)]
pub async fn exchange_gradients_overlapped(
    comm: &mut RankComm,
    ex: &EpochExchange,
    d_inner: &mut Matrix,
    d_bd: Matrix,
    feature_scale: f32,
    tag: u64,
    arena: &mut ExchangeArena,
    stale: Option<&mut Option<Vec<Vec<f32>>>>,
    precision: WirePrecision,
    sr_seed: u64,
) {
    let d = d_bd.cols();
    for (owner, range) in &ex.owner_sel {
        if range.is_empty() {
            continue;
        }
        let mut buf = arena.take_buf(range.len() * d);
        let src = &d_bd.as_slice()[range.start * d..range.end * d];
        if feature_scale != 1.0 {
            for (a, b) in buf.iter_mut().zip(src) {
                *a = b * feature_scale;
            }
        } else {
            buf.copy_from_slice(src);
        }
        if precision == WirePrecision::Exact {
            comm.send(*owner, tag, buf, TrafficClass::Boundary);
        } else {
            let stream = codec::rand_at(sr_seed, tag, *owner as u64);
            let wire = pack_block(arena, &buf, d, precision, Some(stream));
            arena.recycle(buf);
            comm.send(*owner, tag, wire, TrafficClass::Boundary);
        }
    }
    // Free the boundary gradients before waiting: every rank parked
    // here would otherwise hold its block until its peers deliver.
    drop(d_bd);
    let mut slots = std::mem::take(&mut arena.grad_slots);
    slots.resize_with(comm.world_size(), Vec::new);
    let mut remaining: Vec<usize> = ex
        .rows_to_send
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(j, _)| j)
        // bns-allow(BNS-A005): pending-peer worklist, once per epoch, world-size bounded
        .collect();
    while !remaining.is_empty() {
        let (src, payload) = recv_block(comm, tag, &remaining, arena, precision).await;
        remaining.retain(|&j| j != src);
        let rows = ex.rows_to_send[src].len();
        slots[src] = match payload {
            BlockPayload::Exact(data) => {
                debug_assert_eq!(data.len(), rows * d);
                data
            }
            BlockPayload::Wire(wire) => {
                debug_assert_eq!(wire.len(), precision.payload_bytes(rows, d));
                let mut data = arena.take_buf(rows * d);
                unpack_block(&mut data, &wire, d, 1.0, precision);
                arena.recycle_u8(wire);
                data
            }
        };
    }
    // With PipeGCN staleness the previous epoch's contributions are
    // applied and the fresh ones cached (first epoch: fresh, cached).
    let prev = stale.as_ref().and_then(|cache| cache.as_ref());
    let apply = prev.unwrap_or(&slots);
    for (j, rows) in ex.rows_to_send.iter().enumerate() {
        if !rows.is_empty() {
            d_inner.scatter_add_rows_slice(rows, &apply[j]);
        }
    }
    match stale {
        Some(cache) => {
            if let Some(prev) = cache.replace(slots) {
                for buf in prev {
                    arena.recycle(buf);
                }
            }
        }
        None => {
            for (j, rows) in ex.rows_to_send.iter().enumerate() {
                if !rows.is_empty() {
                    arena.recycle(std::mem::take(&mut slots[j]));
                }
            }
            arena.grad_slots = slots;
        }
    }
}
