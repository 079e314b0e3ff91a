//! `flowistry-router` — the fleet front for `flow-server` replicas.
//!
//! One `flow-server` scales queries across cores, but a single process is
//! still one address space and one crash domain. This crate adds the next
//! tier: [`FlowRouter`] speaks the same line-oriented wire protocol as
//! `flow-server`, but instead of analyzing anything itself it
//! consistent-hashes each query to one of `N` backend replicas, fans
//! `update` out to all of them with a quorum ack, health-checks the fleet,
//! and respawns replicas that die — warm-starting them from the shared
//! summary-cache directory so a respawn costs a replay, not a
//! re-analysis.
//!
//! The pieces:
//!
//! * [`ring`] — the consistent-hash ring ([`HashRing`]): balanced,
//!   deterministic, and with bounded key movement when replicas join or
//!   leave.
//! * [`backend`] — one managed replica ([`BackendLauncher`] implementors
//!   spawn it; the router pools a pipelined data connection and a control
//!   connection to it, and can kill + relaunch it).
//! * [`router`] — [`FlowRouter`] itself: a handler on `flow-server`'s
//!   connection edge (which owns the accept loop, per-connection ordering,
//!   and the auth / rate / size budgets), the routing and retries, the
//!   update broadcast, and the health supervisor.
//!
//! Clients need nothing new: a [`FlowClient`] pointed at the router works
//! unchanged, because the router preserves per-connection response order
//! across backends.
//!
//! [`FlowClient`]: flowistry_server::FlowClient

pub mod backend;
pub mod ring;
pub mod router;

pub use backend::{BackendHandle, BackendLauncher, InProcessLauncher, ProcessLauncher};
pub use ring::{hash_key, HashRing, DEFAULT_VNODES};
pub use router::{FlowRouter, RouterConfig};
