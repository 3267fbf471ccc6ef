//! # rpc — at-most-once request/response over simnet
//!
//! The transport layer the proxy principle builds on: a Birrell &
//! Nelson-style RPC protocol with call ids, retransmission, and
//! server-side duplicate suppression, giving **at-most-once** execution
//! under message loss and duplication.
//!
//! There is one client transport, the [`Channel`]: it keeps up to a
//! configured number of calls in flight against one server endpoint,
//! and a stop-and-wait call is a channel with one call outstanding. A
//! plain RPC *stub* — the degenerate proxy of the paper — is simply a
//! channel plus marshalling; the smart proxies in `proxy-core` layer
//! caching, replication and migration strategies on top of the same
//! channel.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId, PortId};
//! use rpc::{Channel, ChannelConfig, RpcServer, RemoteError, ErrorCode};
//! use wire::Value;
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let server = sim.spawn_at("adder", NodeId(0), PortId(10), |ctx| {
//!     let mut srv = RpcServer::new();
//!     srv.serve(ctx, |_ctx, req| match req.op.as_str() {
//!         "add" => {
//!             let a = req.args.get_u64("a").map_err(|_| RemoteError::new(ErrorCode::BadArgs, "a"))?;
//!             let b = req.args.get_u64("b").map_err(|_| RemoteError::new(ErrorCode::BadArgs, "b"))?;
//!             Ok(Value::U64(a + b))
//!         }
//!         _ => Err(RemoteError::new(ErrorCode::NoSuchOp, req.op.clone())),
//!     }, |_ctx, _oneway| {});
//! });
//! sim.spawn("client", NodeId(1), move |ctx| {
//!     let mut client = Channel::new("adder", server, ChannelConfig::with_depth(1));
//!     let sum = client
//!         .call(ctx, "add", Value::record([("a", Value::U64(2)), ("b", Value::U64(3))]))
//!         .unwrap();
//!     assert_eq!(sum, Value::U64(5));
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod client;
mod error;
mod proto;
mod server;

pub use channel::{CallHandle, Channel, ChannelConfig, ChannelStats};
pub use client::{send_oneway, send_oneway_from, RetryPolicy};
pub use error::{ErrorCode, RemoteError, RpcError};
pub use proto::{endpoint_from_value, endpoint_to_value, Batch, Oneway, Packet, Reply, Request};
pub use server::{RpcServer, ServeStats, Served};
