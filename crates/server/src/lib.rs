//! # flowistry-server: the TCP wire front for [`FlowService`]
//!
//! The engine's [`FlowService`] serves a typed
//! [`QueryRequest`]/[`QueryEnvelope`] protocol in-process; this crate puts
//! a socket in front of it, turning the engine into a standalone analysis
//! server. Everything is `std` — `TcpListener`, threads, and a
//! line-oriented text codec in the spirit of `FunctionSummary::encode` (the
//! build has no serialization or async crates).
//!
//! The layers:
//!
//! * [`codec`] — the wire grammar: one request line in, one response line
//!   out, every [`QueryRequest`] and [`QueryEnvelope`] variant round-trips
//!   exactly (the loopback stress test checks served answers bit-for-bit
//!   against direct analyses).
//! * [`edge`] — the connection edge this server and the `flow-router`
//!   fleet front share: the accept loop (bounded thread-per-connection,
//!   sized by the same `FLOWISTRY_ENGINE_THREADS` knob as every engine
//!   pool), per-connection reader/writer pairs that pipeline requests in
//!   order, and the [`budget`]s every connection is held to.
//! * [`FlowServer`] — the edge's [`Handler`](edge::Handler) over one
//!   service: queries go through [`FlowService::submit`], the `update`
//!   command recompiles submitted source server-side and swaps snapshots
//!   without dropping queries, and the `shutdown` command stops the server
//!   gracefully, answering everything it accepted.
//! * [`FlowClient`] — a blocking client mirroring the service API:
//!   `query`, `submit`/`recv` pipelining, `update`, `stats`.
//!
//! ```no_run
//! use flowistry_engine::{AnalysisEngine, EngineConfig, FlowService, ServiceConfig};
//! use flowistry_engine::{QueryRequest, QueryResponse};
//! use flowistry_core::{AnalysisParams, Condition};
//! use flowistry_server::{FlowClient, FlowServer, ServerConfig};
//! use std::sync::Arc;
//!
//! let program = Arc::new(flowistry_lang::compile(
//!     "fn caller(v: i32) -> i32 { return v; }",
//! ).unwrap());
//! let engine = AnalysisEngine::new(
//!     program,
//!     EngineConfig::default()
//!         .with_params(AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)),
//! );
//! let service = FlowService::new(engine, ServiceConfig::default());
//! let server = FlowServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = FlowClient::connect(server.local_addr()).unwrap();
//! let reply = client.query(&QueryRequest::Summary(
//!     flowistry_lang::types::FuncId(0),
//! )).unwrap();
//! assert!(matches!(reply.response, QueryResponse::Summary(Some(_))));
//! ```
//!
//! [`FlowService`]: flowistry_engine::FlowService
//! [`FlowService::submit`]: flowistry_engine::FlowService::submit
//! [`QueryRequest`]: flowistry_engine::QueryRequest
//! [`QueryEnvelope`]: flowistry_engine::QueryEnvelope

#![warn(missing_docs)]

pub mod budget;
pub mod client;
pub mod codec;
pub mod edge;
pub mod server;

pub use budget::{constant_time_eq, read_line_bounded, BoundedLine, RateLimiter};
pub use client::{ClientConfig, FlowClient, RetryBackoff};
pub use server::{FlowServer, ServerConfig};
