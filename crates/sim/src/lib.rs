//! # jord-sim — discrete-event simulation substrate
//!
//! The Jord paper evaluates its hardware/software co-design on QFlex, a
//! cycle-accurate full-system simulator. This crate is the foundation of our
//! substitute: a deterministic discrete-event simulation (DES) kernel that the
//! hardware timing model ([`jord-hw`]) and the FaaS runtimes build on.
//!
//! It provides five things:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time
//!   (one 4 GHz cycle = 250 ps), so every latency in the paper's Table 2/4 is
//!   representable exactly.
//! * [`EventQueue`] — a total-order event queue with deterministic FIFO
//!   tie-breaking for simultaneous events. Implemented as a slab-backed
//!   calendar queue with a far-future overflow heap and O(1) tombstone
//!   cancellation ([`EventId`]/[`CancelOutcome`]), the one cancellation
//!   API. The pre-refactor binary heap survives in [`oracle`] as the
//!   differential-test oracle and the recorded bench baseline.
//! * [`Rng`] (xoshiro256++) and [`dist`] — seeded, reproducible random number
//!   generation and the distributions used by the load generator and workload
//!   models (exponential inter-arrivals for Poisson processes, log-normal
//!   service times).
//! * [`stats`] — an HDR-style log-linear latency histogram with quantile
//!   queries (p50/p99/…) and streaming mean/variance accumulators, used to
//!   report the paper's p99-latency-vs-load curves and service-time CDFs.
//! * [`Fnv1a`] — the 64-bit FNV-1a hash behind every trace hash, durable
//!   log checksum and golden-replay digest.
//!
//! Everything is `no_std`-shaped plain Rust with no external dependencies, so
//! experiments are bit-for-bit reproducible from their seeds on any host.
//!
//! # Example
//!
//! ```
//! use jord_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_ns(5), "second");
//! queue.push(SimTime::ZERO, "first");
//! let (t, ev) = queue.pop().expect("event");
//! assert_eq!(t, SimTime::ZERO);
//! assert_eq!(ev, "first");
//! ```
//!
//! [`jord-hw`]: https://example.com/jord-rs

pub mod dist;
pub mod fnv;
pub mod horizon;
pub mod oracle;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::TimeDist;
pub use fnv::Fnv1a;
pub use horizon::lbts;
pub use queue::{CancelOutcome, EventId, EventQueue, QueueProbe};
pub use rng::Rng;
pub use stats::{LatencyHistogram, OnlineStats};
pub use time::{SimDuration, SimTime};
