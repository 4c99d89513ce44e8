//! A simulated multi-rank communication layer.
//!
//! The BNS-GCN paper trains with one GPU per graph partition, exchanging
//! boundary-node features over Gloo/NCCL. This machine has no GPUs, so the
//! reproduction runs **one logical endpoint per partition ("rank")**, each
//! driven by its own future — the engine multiplexes them onto a fixed
//! worker pool with the `bns-runtime` scheduler (DESIGN.md §12) — and
//! routes all inter-partition traffic through this crate, which provides:
//!
//! * typed point-to-point [`RankComm::send`] (never blocks) and the
//!   receive futures [`RankComm::recv`]/[`RankComm::recv_any`] over
//!   one mutex-guarded mailbox per rank with tag matching; a receive
//!   that finds nothing leaves its task's waker in the mailbox, and the
//!   next send to that rank wakes it,
//! * the ring [`RankComm::all_reduce_sum`] the training loop uses for
//!   gradient sharing,
//! * byte-accurate [`TrafficStats`] per rank, split by [`TrafficClass`]
//!   (boundary-feature exchange vs. gradient all-reduce vs. control), and
//! * an α–β [`CostModel`] that converts measured traffic into simulated
//!   wall-clock time, making throughput experiments deterministic and
//!   hardware-independent.
//!
//! The paper's communication-volume identity (its Eq. 3: total volume =
//! total number of boundary nodes) is validated against the byte counters
//! recorded here.
//!
//! # Example
//!
//! ```
//! use bns_comm::{create_world, TrafficClass};
//! use bns_runtime::{run_tasks, BoxFuture};
//!
//! // Two ranks exchange a value and all-reduce a vector.
//! let ranks: Vec<BoxFuture<'static, (f32, f32)>> = create_world(2)
//!     .into_iter()
//!     .map(|mut comm| -> BoxFuture<'static, (f32, f32)> {
//!         Box::pin(async move {
//!             let peer = 1 - comm.rank();
//!             comm.send(peer, 7, vec![comm.rank() as f32], TrafficClass::Control);
//!             let got: Vec<f32> = comm.recv(peer, 7).await;
//!             let mut buf = vec![1.0f32, 2.0];
//!             comm.all_reduce_sum(&mut buf).await;
//!             (got[0], buf[0])
//!         })
//!     })
//!     .collect();
//! let (results, _) = run_tasks(ranks, 2, |_| ());
//! assert_eq!(results[0], (1.0, 2.0));
//! assert_eq!(results[1], (0.0, 2.0));
//! ```

// No unsafe here, enforced at compile time (the audited unsafe lives in
// bns-tensor, bns-nn and the vendored loom shim; see UNSAFE_LEDGER.md).
#![forbid(unsafe_code)]
mod cost;
mod precision;
mod rank;
mod sync;
mod traffic;

pub use cost::CostModel;
pub use precision::{WirePrecision, ENV_QUANT};
pub use rank::{create_world, RankComm};
pub use traffic::{TrafficClass, TrafficStats};
