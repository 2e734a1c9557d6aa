//! appclass-serve: a concurrent classification service over the
//! telemetry wire.
//!
//! The paper's deployment story (§6) is a monitoring daemon per node
//! feeding a central learner. This crate is that central end: a TCP
//! server that holds one trained [`ClassifierPipeline`] in a
//! hot-swappable [`ModelSlot`] and serves many monitoring clients
//! concurrently, each session running its own
//! [`OnlineClassifier`](appclass_core::OnlineClassifier) behind a
//! [`FrameGuard`](appclass_metrics::FrameGuard) so a degraded client
//! degrades only its own verdicts. A `SwapModel` frame (or
//! [`Server::swap_model`]) installs a retrained pipeline while
//! established sessions drain onto the new fingerprint without
//! dropping their connections.
//!
//! The protocol is deliberately plain: length-prefixed, checksummed
//! [`ControlFrame`]s ([`appclass_metrics::wire`]) over plain
//! `std::net::TcpStream`s, served by one `poll(2)` acceptor and a few
//! readiness-driven shard event loops over nonblocking sockets — no
//! async runtime, no external dependencies beyond the workspace's
//! vendored shims.
//!
//! ```no_run
//! use appclass_serve::{ClientConfig, ServeClient, Server, ServerConfig};
//! use std::sync::Arc;
//! # fn pipeline() -> appclass_core::ClassifierPipeline { unimplemented!() }
//!
//! let server = Server::bind("127.0.0.1:0", Arc::new(pipeline()), ServerConfig::default())?;
//! let mut client = ServeClient::connect(server.local_addr(), ClientConfig::default())?;
//! // client.stream_snapshots(...); client.classify()?; ...
//! client.bye()?;
//! server.shutdown();
//! let stats = server.join()?;
//! println!("{stats}");
//! # Ok::<(), appclass_serve::ServeError>(())
//! ```
//!
//! [`ClassifierPipeline`]: appclass_core::ClassifierPipeline
//! [`ControlFrame`]: appclass_metrics::ControlFrame

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod error;
pub mod feed;
pub mod model;
pub mod overload;
pub mod poll;
pub mod proto;
pub mod retry;
pub mod server;
pub mod session;
mod shard;
pub mod stats;

pub use appclass_obs::{Observability, SpanDump, TraceAssembler, TraceContext, Tracer};
pub use chaos::{ChaosPlan, ChaosProxy, FaultEvent};
pub use client::{BatchReport, ClientConfig, ServeClient, VerdictReport};
pub use error::{Result, ServeError};
pub use feed::{CompositionFeed, FeedEntry};
pub use model::ModelSlot;
pub use overload::{OverloadMachine, OverloadState};
pub use retry::{connect_with_retry, BreakerState, CircuitBreaker, RetryPolicy, RetryReport};
pub use server::{Server, ServerConfig};
pub use session::SessionConfig;
pub use stats::{LatencyHistogram, ServerStats, SessionOutcome};
