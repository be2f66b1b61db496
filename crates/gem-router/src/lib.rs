//! # gem-router
//!
//! The sharded cluster tier: a routing front-end that speaks `gem-proto` on both
//! sides. Clients connect to one address ([`RouterServer`] / the `gem-routed` bin) and
//! see a single logical server; behind it, model handles are partitioned across N
//! `gem-served` replicas by consistent hashing over the handle's hex fingerprint —
//! which is already replica-agnostic, so any replica that fits (or receives) the same
//! corpus under the same configuration resolves the same handle.
//!
//! ```text
//!                        ┌──────────────┐ probe ┌────────────┐
//!   client ── gem-proto ─┤  gem-routed  ├───────┤ gem-served │ replica A
//!   client ── gem-proto ─┤  (this crate)├───────┤ gem-served │ replica B
//!                        └──────┬───────┘       └────────────┘
//!                               └── Prometheus exposition (--metrics-addr)
//! ```
//!
//! * **Placement** — [`HashRing`]: a deterministic consistent-hash ring (FNV-1a over
//!   `replica#vnode` points). `Fit` requests are routed by computing the model key
//!   *router-side* with the same [`gem_store::fit_model_key`] the replica will use, so
//!   the router knows the handle before the replica answers; a chunked upload is keyed
//!   from its reassembled corpus, like a one-frame fit. Key movement on membership
//!   change is bounded to ~1/N of the handles.
//! * **Listening** — clients connect through `gem-serve`'s
//!   [`Listener`](gem_serve::framing::Listener), the accept loop, connection setup and
//!   request reader `gem-served` runs too; it reassembles chunked uploads and answers
//!   malformed framing itself.
//! * **Forwarding** — pipelined requests are forwarded to the owning replica with the
//!   client's envelope id preserved verbatim (each client connection gets its own
//!   upstream connections, so ids never collide), and responses stream back in
//!   whatever order replicas finish them. `Stats` / `ListModels` / `Evict` fan out to
//!   every live replica and answer with a merged body ([`gem_proto::merge_stats`] /
//!   [`gem_proto::merge_models`]).
//! * **Supervision** — [`Supervisor`] probes every replica's `Health` endpoint on an
//!   interval and tracks `up | degraded | down` per replica ([`ReplicaState`]);
//!   forwarding failures mark a replica down immediately (passive detection), so
//!   fail-over does not wait for the next probe tick.
//! * **Fail-over without refits** — every fitted model is write-through replicated to
//!   its ring successor via `PullModel`/`PushModel` *before* the client sees the
//!   `Fitted` response. When a replica dies, its handles re-route to the next live
//!   node on the ring — which already holds the snapshot — and [`Cluster::rebalance`]
//!   re-ships copies to restore redundancy. The corpus never crosses the wire twice
//!   and nothing is ever refitted: a router cannot even cause a refit, because the
//!   requests it re-routes carry handles, not corpora.
//! * **Membership** — `add-replica HOST:PORT` / `remove-replica HOST:PORT` on the
//!   `gem-routed` admin channel (`--ctl-stdin`) trigger the same snapshot-driven
//!   rebalance as fail-over.
//!
//! Router-side errors use two stable codes layered on the serving taxonomy:
//! `no_replica` (no live replica can own the route; carries a retry-after hint) and
//! `replica_unavailable` (the owning replica vanished mid-request; safe to retry —
//! the retry re-routes to the fail-over owner).
//!
//! Locks follow the serving tier's discipline: every acquisition goes through
//! [`gem_serve::sync`]'s poisoning-recovery helpers, and the crate is in scope for
//! gem-lint's L1 (lock discipline) and L3 (panic-free wire) rules.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cluster;
pub mod metrics;
pub mod ring;
pub mod server;

pub use cluster::{Cluster, RebalanceReport, ReplicaState, Supervisor};
pub use metrics::RouterMetrics;
pub use ring::HashRing;
pub use server::{RouterHandle, RouterServer};
