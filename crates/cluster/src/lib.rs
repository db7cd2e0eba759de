//! Clustered registry: capability-bucket shards with epoch-gossip
//! replication.
//!
//! A single in-process [`ServiceRegistry`](qasom_registry::ServiceRegistry)
//! is the middleware's bottleneck once a pervasive environment spans many
//! hosts: every discovery probe and every churn event funnels through one
//! directory. This crate partitions the directory into **capability
//! buckets** — shards keyed on the canonical concept of each service's
//! function — and keeps the shards convergent with an epoch-gossip
//! protocol built on the registry's typed
//! [`RegistrySync`](qasom_registry::RegistrySync) surface:
//!
//! * [`shard`] — the bucket function ([`shard_of`]), per-shard replicas
//!   ([`ShardReplica`]) and the deterministic control plane
//!   ([`ShardSet`]): direct sync plus scatter/gather discovery, merged
//!   in the single-registry oracle's exact order;
//! * [`protocol`] — the peer messages: head gossip, cursor pulls,
//!   event deltas with head-resolved descriptions, and the snapshot
//!   fallback taken when a replica's cursor falls out of the origin's
//!   retained event window;
//! * [`peer`] — the origin and shard node behaviours over the
//!   deterministic network simulator, with seeded-backoff retries
//!   ([`RetryPolicy`](qasom_selection::distributed::RetryPolicy)) and
//!   shard-failure tolerance: a lost shard degrades coverage, it never
//!   fails a query;
//! * [`manager`] — the run driver ([`ClusterSim`]) and its
//!   byte-reproducible [`ClusterReport`], including the closing
//!   oracle-equivalence audit.
//!
//! The crate replicates a directory and answers discovery probes against
//! the replicas; it serves no sessions and persists nothing. It depends
//! on neither the middleware core (`qasom`) nor the daemon, so it sits
//! below both in the crate graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manager;
pub mod peer;
pub mod protocol;
pub mod shard;

pub use manager::{ClusterConfig, ClusterReport, ClusterSim};
pub use peer::{ChurnOp, ClusterRole, OriginState, ShardPeerState};
pub use protocol::PeerMessage;
pub use shard::{shard_of, GatherOutcome, ShardReplica, ShardSet, SyncKind};
