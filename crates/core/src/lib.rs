//! # proxy-core — the proxy principle
//!
//! This crate is the reproduction's primary contribution: the structure
//! and encapsulation discipline of Shapiro's 1986 ICDCS paper,
//! *"Structure and Encapsulation in Distributed Systems: The Proxy
//! Principle"*.
//!
//! The principle, restated:
//!
//! 1. A client of a distributed service never addresses the service
//!    directly. It first **binds**, receiving a **proxy** — a local
//!    representative installed in its own context.
//! 2. The client↔proxy interface is local, fixed and typed
//!    ([`InterfaceDesc`]); the proxy↔service **protocol** is private to
//!    the service.
//! 3. The *service* chooses the proxy implementation by publishing a
//!    [`ProxySpec`] in its name binding; an RPC stub is merely the
//!    degenerate case. Smart proxies cache ([`proxies::CachingProxy`]),
//!    migrate the object into the client context
//!    ([`proxies::MigratoryProxy`]), or adapt on the fly
//!    ([`proxies::AdaptiveProxy`]) — all invisible to client code.
//!
//! ## The pieces
//!
//! * [`ServiceObject`] + [`ServiceServer`] — the server context hosting
//!   an object behind the proxy protocol.
//! * [`Binder`] / [`SessionCore`] — the client context: the binding
//!   protocol plus notification routing. [`Session`] borrows a core and
//!   the process context for blocking calls.
//! * [`Proxy`] and the [`proxies`] zoo — the client-side
//!   representatives.
//!
//! ## Example: a whole distributed application
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId};
//! use naming::spawn_name_server;
//! use proxy_core::{ServiceBuilder, SessionCore, Session, ProxySpec, CachingParams};
//! use proxy_core::{InterfaceDesc, OpDesc, ServiceObject};
//! use rpc::{RemoteError, ErrorCode};
//! use wire::Value;
//!
//! // A one-register service object.
//! struct Register(u64);
//! impl ServiceObject for Register {
//!     fn interface(&self) -> InterfaceDesc {
//!         InterfaceDesc::new("register", [
//!             OpDesc::read_whole("read"),
//!             OpDesc::write_whole("write"),
//!         ])
//!     }
//!     fn dispatch(&mut self, _ctx: &mut simnet::Ctx, op: &str, args: &Value)
//!         -> Result<Value, RemoteError>
//!     {
//!         match op {
//!             "read" => Ok(Value::U64(self.0)),
//!             "write" => {
//!                 self.0 = args.get_u64("v")
//!                     .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
//!                 Ok(Value::Null)
//!             }
//!             other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let ns = spawn_name_server(&sim, NodeId(0));
//! // The service decides its clients run caching proxies.
//! ServiceBuilder::new("reg")
//!     .spec(ProxySpec::Caching(CachingParams::default()))
//!     .object(|| Box::new(Register(7)))
//!     .spawn(&sim, NodeId(1), ns);
//! sim.spawn("client", NodeId(2), move |ctx| {
//!     let mut core = SessionCore::new(ns);
//!     let mut session = Session::new(&mut core, ctx);
//!     let reg = session.bind("reg").unwrap();
//!     assert_eq!(session.invoke(reg, "read", Value::Null).unwrap(), Value::U64(7));
//!     // Second read is served from the proxy's cache: no network.
//!     assert_eq!(session.invoke(reg, "read", Value::Null).unwrap(), Value::U64(7));
//!     assert_eq!(session.stats(reg).local_hits, 1);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bulk;
mod interface;
mod object;
pub mod proxies;
mod proxy;
mod runtime;
mod server;
mod session;
mod session_core;
mod spec;
mod stable;

pub use bulk::{BlobClient, BulkEngine, BulkParams};
pub use interface::{InterfaceDesc, OpDesc, OpKind};
pub use object::{FactoryRegistry, ObjectCtor, ServiceObject};
pub use proxy::{protocol, route_strays, DiscardStrays, OnewaySink, Proxy, ProxyStats};
pub use runtime::{BindContext, Binder, ProxyCtor};
pub use server::{ServerStats, ServiceBuilder, ServiceServer};
pub use session::Session;
pub use session_core::{AsyncHandle, BindFuture, CallFuture, ProxyHandle, SessionCore};
pub use spec::{AdaptiveParams, CachingParams, Coherence, ProxySpec, ReadTarget};
pub use stable::{CheckpointPolicy, StableStore};
