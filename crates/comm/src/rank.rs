//! Per-rank communication handles, point-to-point messaging and the
//! ring all-reduce.

// The mailboxes go through `crate::sync`, which resolves to `std`
// normally and to the vendored loom shims under `--cfg loom` so the
// protocol can be model-checked exhaustively (tests/loom_mailbox.rs).
use crate::sync::{lock, Mutex};
use crate::{TrafficClass, TrafficStats};
use std::any::Any;
use std::collections::VecDeque;
use std::future::poll_fn;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Anything that can be sent between ranks with a well-defined wire size.
///
/// The wire size drives [`TrafficStats`]; it is the number of bytes the
/// payload would occupy on a real interconnect.
pub trait Wire: Send + 'static {
    /// Serialized size in bytes.
    fn wire_bytes(&self) -> usize;
}

impl<T: Copy + Send + 'static> Wire for Vec<T> {
    fn wire_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.len()
    }
}

struct Message {
    tag: u64,
    payload: Box<dyn Any + Send>,
    bytes: usize,
    /// Position in the sender's per-destination send order; drives the
    /// `debug_assertions`-gated per-`(source, tag)` FIFO delivery check.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    seq: u64,
}

/// One rank's mailbox: envelopes `(source rank, message)` that peers
/// enqueued and the rank has not sorted yet, plus the waker of a
/// receive parked on it. One lock covers both, so "nothing matched,
/// park" and "enqueue, wake the parked receiver" cannot interleave: a
/// send either lands before the receive's check or finds its waker.
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<(usize, Message)>,
    waker: Option<Waker>,
}

/// Messages a rank has taken out of its mailbox but not delivered yet,
/// per source rank, in arrival order.
struct Pending {
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    rank: usize,
    by_source: Vec<VecDeque<Message>>,
    /// Highest `seq` delivered so far per `(source, tag)` stream, used
    /// by the FIFO invariant check. Only populated in debug builds.
    #[cfg(debug_assertions)]
    delivered_seq: std::collections::HashMap<(usize, u64), u64>,
}

impl Pending {
    /// Pops the first buffered message with `tag` from the first
    /// candidate (in `from` order) that has one.
    fn take_match(&mut self, tag: u64, from: &[usize]) -> Option<(usize, Message)> {
        for &src in from {
            if let Some(pos) = self.by_source[src].iter().position(|m| m.tag == tag) {
                let msg = self.by_source[src].remove(pos).unwrap();
                self.note_delivery(src, &msg);
                return Some((src, msg));
            }
        }
        None
    }

    /// `debug_assertions`-gated delivery invariant: within one
    /// `(source, tag)` stream, messages must reach the application in
    /// strictly increasing send order. `seq` is numbered per
    /// destination across all tags, so within a stream it is monotone
    /// but not contiguous.
    #[cfg(debug_assertions)]
    fn note_delivery(&mut self, src: usize, msg: &Message) {
        use std::collections::hash_map::Entry;
        match self.delivered_seq.entry((src, msg.tag)) {
            Entry::Occupied(mut e) => {
                assert!(
                    msg.seq > *e.get(),
                    "rank {}: FIFO violation on (source {src}, tag {}): \
                     delivered seq {} after seq {}",
                    self.rank,
                    msg.tag,
                    msg.seq,
                    e.get()
                );
                e.insert(msg.seq);
            }
            Entry::Vacant(e) => {
                e.insert(msg.seq);
            }
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn note_delivery(&mut self, _src: usize, _msg: &Message) {}
}

/// One rank's endpoint in a simulated world of `world_size` ranks.
///
/// Create a full world with [`create_world`] and drive each endpoint
/// from its own future (the engine runs them on `bns-runtime`).
/// Point-to-point messages are matched by `(source, tag)`;
/// [`RankComm::all_reduce_sum`] must be invoked by **all ranks in the
/// same order** (it synchronizes via sequence-numbered tags).
///
/// Every rank has one mailbox that all peers enqueue into, so
/// [`RankComm::recv_any`] can hand back whichever peer's message lands
/// first. Per-peer FIFO order is still guaranteed: each sender's
/// enqueues happen in its send order.
pub struct RankComm {
    rank: usize,
    world: usize,
    /// Every rank's mailbox, indexed by rank (this rank's own included).
    mailboxes: Vec<Arc<Mutex<Mailbox>>>,
    pending: Pending,
    stats: TrafficStats,
    coll_seq: u64,
    /// Per-destination count of messages sent (assigns `Message::seq`).
    send_seq: Vec<u64>,
    /// Bytes enqueued into peers' mailboxes (mailbox-side accounting).
    #[cfg(debug_assertions)]
    mailbox_bytes: u64,
    /// Bytes recorded into [`TrafficStats`] (stats-side accounting).
    /// Shadowed separately from the stats themselves because callers
    /// may reset those between epochs; the two shadow streams must
    /// agree byte-for-byte after every send.
    #[cfg(debug_assertions)]
    recorded_bytes: u64,
}

impl std::fmt::Debug for RankComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RankComm {{ rank: {}/{} }}", self.rank, self.world)
    }
}

/// Creates all `world_size` communication endpoints.
///
/// # Panics
///
/// Panics if `world_size == 0`.
pub fn create_world(world_size: usize) -> Vec<RankComm> {
    assert!(world_size > 0, "world_size must be positive");
    let mailboxes: Vec<Arc<Mutex<Mailbox>>> = (0..world_size)
        .map(|_| Arc::new(Mutex::new(Mailbox::default())))
        .collect();
    (0..world_size)
        .map(|rank| RankComm {
            rank,
            world: world_size,
            mailboxes: mailboxes.clone(),
            pending: Pending {
                rank,
                by_source: (0..world_size).map(|_| VecDeque::new()).collect(),
                #[cfg(debug_assertions)]
                delivered_seq: std::collections::HashMap::new(),
            },
            stats: TrafficStats::new(),
            coll_seq: 0,
            send_seq: vec![0; world_size],
            #[cfg(debug_assertions)]
            mailbox_bytes: 0,
            #[cfg(debug_assertions)]
            recorded_bytes: 0,
        })
        .collect()
}

impl RankComm {
    /// This endpoint's rank id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Traffic sent by this rank so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Mutable access to the traffic counters (to reset between epochs).
    pub fn stats_mut(&mut self) -> &mut TrafficStats {
        &mut self.stats
    }

    /// Sends `payload` to rank `to` with a user tag. Never blocks: the
    /// mailbox is unbounded.
    ///
    /// User tags must be below `2^60`; higher tags are reserved for
    /// collectives.
    ///
    /// # Panics
    ///
    /// Panics on self-send, out-of-bounds rank, or reserved tag.
    pub fn send<T: Wire>(&mut self, to: usize, tag: u64, payload: T, class: TrafficClass) {
        assert!(tag < COLL_BASE, "tag {tag} is reserved for collectives");
        self.send_raw(to, tag, payload, class)
    }

    fn send_raw<T: Wire>(&mut self, to: usize, tag: u64, payload: T, class: TrafficClass) {
        assert!(to < self.world, "send to rank {to} out of bounds");
        assert_ne!(to, self.rank, "self-send is not allowed");
        let bytes = payload.wire_bytes();
        self.stats.record(class, bytes);
        #[cfg(debug_assertions)]
        {
            self.recorded_bytes += bytes as u64;
        }
        bns_telemetry::counter_add("comm.bytes_sent", bytes as u64);
        bns_telemetry::counter_add(class.counter_name(), bytes as u64);
        bns_telemetry::counter_add("comm.msgs_sent", 1);
        let seq = self.send_seq[to];
        self.send_seq[to] += 1;
        let msg = Message {
            tag,
            // Owned messages are the wire contract, metered by
            // TrafficStats rather than recycled.
            payload: Box::new(payload),
            bytes,
            seq,
        };
        #[cfg(debug_assertions)]
        {
            self.mailbox_bytes += msg.bytes as u64;
            // Exact byte agreement between the two accounting paths:
            // what TrafficStats recorded and what the mailbox carries.
            debug_assert_eq!(
                self.mailbox_bytes, self.recorded_bytes,
                "rank {}: mailbox accounting ({} B) diverged from TrafficStats ({} B)",
                self.rank, self.mailbox_bytes, self.recorded_bytes
            );
        }
        // Wake the destination *after* the enqueue so a woken task is
        // guaranteed to observe the message when it is polled. The
        // waker is taken out under the lock but woken after releasing
        // it, so no lock is held while running scheduler code.
        let waker = {
            let mut mailbox = lock(&self.mailboxes[to]);
            mailbox.queue.push_back((self.rank, msg));
            mailbox.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Receives the next message from rank `from` with tag `tag`.
    /// Messages with other tags (or from other peers) that arrive first
    /// are buffered. Shorthand for [`RankComm::recv_any`] with a single
    /// candidate, minus its overlap counters.
    ///
    /// # Panics
    ///
    /// Panics on self-receive, out-of-bounds rank, or payload type
    /// mismatch.
    pub async fn recv<T: Wire>(&mut self, from: usize, tag: u64) -> T {
        self.recv_from(tag, &[from]).await.1
    }

    /// Receives a message with tag `tag` from **whichever** candidate in
    /// `from` delivers first, returning `(source, payload)`. Buffered
    /// messages win over fresh arrivals, scanned in `from` order;
    /// messages from other peers or with other tags are buffered.
    ///
    /// Emits `comm.recv_any_ready` when a match was already there on
    /// the first poll (the wait was fully overlapped by compute) and
    /// `comm.recv_any_waited` when the task had to park for it — the
    /// ratio of the two is the overlap hit rate.
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty, contains this rank or an out-of-bounds
    /// rank, or on payload type mismatch.
    pub async fn recv_any<T: Wire>(&mut self, tag: u64, from: &[usize]) -> (usize, T) {
        let (src, v, waited) = self.recv_from(tag, from).await;
        bns_telemetry::counter_add(
            if waited {
                "comm.recv_any_waited"
            } else {
                "comm.recv_any_ready"
            },
            1,
        );
        (src, v)
    }

    /// The receive future behind [`RankComm::recv`] and
    /// [`RankComm::recv_any`]; the flag reports whether it ever
    /// returned `Pending`.
    async fn recv_from<T: Wire>(&mut self, tag: u64, from: &[usize]) -> (usize, T, bool) {
        assert!(!from.is_empty(), "recv needs at least one candidate");
        for &src in from {
            assert!(src < self.world, "recv from rank {src} out of bounds");
            assert_ne!(src, self.rank, "self-receive is not allowed");
        }
        let mut waited = false;
        let (src, msg) = poll_fn(|cx| {
            let polled = self.poll_match(tag, from, cx);
            waited |= polled.is_pending();
            polled
        })
        .await;
        let bytes = msg.bytes;
        let v = *msg.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from {src}",
                self.rank
            )
        });
        // The type-erased transport must preserve accounted wire size.
        debug_assert_eq!(
            v.wire_bytes(),
            bytes,
            "rank {}: wire size changed in transit (tag {tag} from {src})",
            self.rank
        );
        (src, v, waited)
    }

    /// One poll of the receive future: the first match in candidate
    /// order among buffered messages, then among the mailbox's new
    /// arrivals. With no match it leaves the task's waker in the
    /// mailbox under the same lock it found no match under, so the
    /// next send always finds it.
    fn poll_match(
        &mut self,
        tag: u64,
        from: &[usize],
        cx: &mut Context<'_>,
    ) -> Poll<(usize, Message)> {
        if let Some(hit) = self.pending.take_match(tag, from) {
            return Poll::Ready(hit);
        }
        let mut mailbox = lock(&self.mailboxes[self.rank]);
        for (src, msg) in mailbox.queue.drain(..) {
            self.pending.by_source[src].push_back(msg);
        }
        match self.pending.take_match(tag, from) {
            Some(hit) => Poll::Ready(hit),
            None => {
                mailbox.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// Ring AllReduce (sum) over an `f32` buffer: reduce-scatter followed
    /// by all-gather, chunk `c` = `c*len/k..(c+1)*len/k`, additions in
    /// ring order. Every rank must pass a buffer of the same length, and
    /// all ranks must call it in the same order. Per-rank traffic is
    /// `2·(k-1)/k · len · 4` bytes, the standard ring cost the paper
    /// assumes for gradient sharing.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths disagree across ranks (detected as a
    /// chunk-size mismatch).
    pub async fn all_reduce_sum(&mut self, buf: &mut [f32]) {
        let _span = bns_telemetry::span!("all_reduce", elems = buf.len());
        let (k, r) = (self.world, self.rank);
        let seq = self.coll_seq;
        self.coll_seq += 1;
        if k == 1 || buf.is_empty() {
            return;
        }
        let len = buf.len();
        let chunk = move |c: usize| (c * len / k)..((c + 1) * len / k);
        let (next, prev) = ((r + 1) % k, (r + k - 1) % k);
        for step in 0..2 * (k - 1) {
            let tag = COLL_BASE + seq * MAX_COLL_STEPS + step as u64;
            // Reduce-scatter steps (`step < k-1`) send chunk
            // `(r+k-step)%k` and fold in `(r+k-step-1)%k`; all-gather
            // step `s` sends `(r+1+k-s)%k` and overwrites `(r+k-s)%k`.
            let (send_c, recv_c, fold) = if step < k - 1 {
                ((r + k - step) % k, (r + k - step - 1) % k, true)
            } else {
                let s = step - (k - 1);
                ((r + 1 + k - s) % k, (r + k - s) % k, false)
            };
            // Chunks are 1/k of a small buffer and become the wire payload.
            let out: Vec<f32> = buf[chunk(send_c)].to_vec();
            self.send_raw(next, tag, out, TrafficClass::AllReduce);
            let inc: Vec<f32> = self.recv(prev, tag).await;
            let dst = &mut buf[chunk(recv_c)];
            assert_eq!(inc.len(), dst.len(), "all_reduce_sum length mismatch");
            if fold {
                for (d, s) in dst.iter_mut().zip(&inc) {
                    *d += s;
                }
            } else {
                dst.copy_from_slice(&inc);
            }
        }
    }
}

const COLL_BASE: u64 = 1 << 60;
const MAX_COLL_STEPS: u64 = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;

    /// Runs one future per rank of a `k`-rank world on two scheduler
    /// workers; outputs in rank order.
    fn run_world<T, F, Fut>(k: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(RankComm) -> Fut,
        Fut: Future<Output = T> + Send + 'static,
    {
        let tasks = create_world(k)
            .into_iter()
            .map(|c| Box::pin(f(c)) as bns_runtime::BoxFuture<'static, T>)
            .collect();
        bns_runtime::run_tasks(tasks, 2, |_| ()).0
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_world(2, |mut c| async move {
            let peer = 1 - c.rank();
            c.send(peer, 1, vec![c.rank() as u32 * 10], TrafficClass::Control);
            let got: Vec<u32> = c.recv(peer, 1).await;
            got[0]
        });
        assert_eq!(out, vec![10, 0]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = run_world(2, |mut c| async move {
            if c.rank() == 0 {
                c.send(1, 5, vec![5.0f32], TrafficClass::Control);
                c.send(1, 6, vec![6.0f32], TrafficClass::Control);
                0.0
            } else {
                // Receive in reverse order of sending.
                let b: Vec<f32> = c.recv(0, 6).await;
                let a: Vec<f32> = c.recv(0, 5).await;
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(out[1], 56.0);
    }

    #[test]
    fn recv_any_returns_first_arrival() {
        // Rank 2 sends immediately; rank 1 only sends after rank 0's
        // go-signal, so rank 0's first recv_any can only ever see rank 2.
        let out = run_world(3, |mut c| async move {
            match c.rank() {
                0 => {
                    let (first, a): (usize, Vec<u32>) = c.recv_any(7, &[1, 2]).await;
                    c.send(1, 9, vec![0u8], TrafficClass::Control); // go
                    let (second, b): (usize, Vec<u32>) = c.recv_any(7, &[1, 2]).await;
                    vec![first as u32, a[0], second as u32, b[0]]
                }
                1 => {
                    let _: Vec<u8> = c.recv(0, 9).await;
                    c.send(0, 7, vec![100u32], TrafficClass::Control);
                    vec![]
                }
                _ => {
                    c.send(0, 7, vec![200u32], TrafficClass::Control);
                    vec![]
                }
            }
        });
        assert_eq!(out[0], vec![2, 200, 1, 100]);
    }

    #[test]
    fn recv_any_buffers_unrelated_messages() {
        let out = run_world(3, |mut c| async move {
            match c.rank() {
                0 => {
                    // Wait until everything is in flight before receiving.
                    let _: Vec<u8> = c.recv(1, 99).await;
                    let (src, v): (usize, Vec<u32>) = c.recv_any(7, &[2]).await;
                    assert_eq!((src, v[0]), (2, 5));
                    // The candidate's *other*-tag message and the
                    // non-candidate message must both have been
                    // buffered, not dropped.
                    let other: Vec<u32> = c.recv(2, 8).await;
                    let non_candidate: Vec<u32> = c.recv(1, 7).await;
                    other[0] * 10 + non_candidate[0]
                }
                1 => {
                    c.send(0, 7, vec![3u32], TrafficClass::Control);
                    c.send(0, 99, vec![0u8], TrafficClass::Control);
                    0
                }
                _ => {
                    c.send(0, 8, vec![4u32], TrafficClass::Control);
                    c.send(0, 7, vec![5u32], TrafficClass::Control);
                    0
                }
            }
        });
        assert_eq!(out[0], 43);
    }

    #[test]
    fn recv_any_prefers_pending_in_candidate_order() {
        let out = run_world(3, |mut c| async move {
            match c.rank() {
                0 => {
                    // Make sure both peer messages are buffered first.
                    let _: Vec<u8> = c.recv(1, 99).await;
                    let _: Vec<u8> = c.recv(2, 99).await;
                    let warm: Vec<u32> = c.recv(1, 7).await;
                    assert_eq!(warm[0], 1);
                    c.send(1, 7, vec![warm[0]], TrafficClass::Control);
                    // Both rank-1 and rank-2 tag-8 messages are now
                    // pending; candidate order [2, 1] must pick rank 2
                    // first.
                    let (first, _): (usize, Vec<u32>) = c.recv_any(8, &[2, 1]).await;
                    let (second, _): (usize, Vec<u32>) = c.recv_any(8, &[2, 1]).await;
                    (first * 10 + second) as u32
                }
                1 => {
                    c.send(0, 7, vec![1u32], TrafficClass::Control);
                    c.send(0, 8, vec![11u32], TrafficClass::Control);
                    c.send(0, 99, vec![0u8], TrafficClass::Control);
                    let _: Vec<u32> = c.recv(0, 7).await;
                    0
                }
                _ => {
                    c.send(0, 8, vec![22u32], TrafficClass::Control);
                    c.send(0, 99, vec![0u8], TrafficClass::Control);
                    0
                }
            }
        });
        assert_eq!(out[0], 21);
    }

    #[test]
    fn recv_any_traffic_accounting_unchanged() {
        let out = run_world(2, |mut c| async move {
            if c.rank() == 0 {
                c.send(1, 1, vec![0f32; 64], TrafficClass::Boundary);
            } else {
                let (_, v): (usize, Vec<f32>) = c.recv_any(1, &[0]).await;
                assert_eq!(v.len(), 64);
            }
            c.stats().clone()
        });
        assert_eq!(out[0].bytes(TrafficClass::Boundary), 256);
        assert_eq!(out[1].total_bytes(), 0);
    }

    #[test]
    fn all_reduce_sum_is_correct_for_various_world_sizes() {
        for k in [1usize, 2, 3, 4, 7] {
            for len in [0usize, 1, 5, 16, 33] {
                let out = run_world(k, move |mut c| async move {
                    let mut buf: Vec<f32> = (0..len)
                        .map(|i| (c.rank() + 1) as f32 * (i + 1) as f32)
                        .collect();
                    c.all_reduce_sum(&mut buf).await;
                    buf
                });
                let total_rank: f32 = (1..=k).map(|r| r as f32).sum();
                for buf in &out {
                    for (i, &x) in buf.iter().enumerate() {
                        let expect = total_rank * (i + 1) as f32;
                        assert!(
                            (x - expect).abs() < 1e-4,
                            "k={k} len={len} i={i}: {x} != {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_ring_traffic_volume() {
        let k = 4usize;
        let len = 1024usize;
        let out = run_world(k, move |mut c| async move {
            let mut buf = vec![1.0f32; len];
            c.all_reduce_sum(&mut buf).await;
            c.stats().bytes(TrafficClass::AllReduce)
        });
        // Ring: each rank sends 2*(k-1) chunks of len/k floats.
        let expect = (2 * (k - 1) * (len / k) * 4) as u64;
        for &b in &out {
            assert_eq!(b, expect);
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        let out = run_world(3, |mut c| async move {
            let mut a = vec![c.rank() as f32];
            c.all_reduce_sum(&mut a).await;
            let mut b = vec![a[0] * (c.rank() + 1) as f32];
            c.all_reduce_sum(&mut b).await;
            b[0]
        });
        assert_eq!(out, vec![18.0; 3]); // 0+1+2 = 3, then 3·(1+2+3)
    }

    #[test]
    fn traffic_counts_point_to_point() {
        let out = run_world(2, |mut c| async move {
            if c.rank() == 0 {
                c.send(1, 1, vec![0f32; 100], TrafficClass::Boundary);
            } else {
                let _: Vec<f32> = c.recv(0, 1).await;
            }
            c.stats().clone()
        });
        assert_eq!(out[0].bytes(TrafficClass::Boundary), 400);
        assert_eq!(out[1].total_bytes(), 0);
    }

    #[test]
    fn world_of_one_collectives_are_noops() {
        let out = run_world(1, |mut c| async move {
            let mut buf = vec![3.0f32];
            c.all_reduce_sum(&mut buf).await;
            buf[0]
        });
        assert_eq!(out, vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        let mut world = create_world(2);
        let mut c = world.remove(0);
        c.send(1, COLL_BASE, vec![0u8], TrafficClass::Control);
    }
}
