//! A client session: the session engine and its simulation context,
//! bundled.
//!
//! Every client-side operation needs the same two-object pair — the
//! [`SessionCore`] holding the proxies and the [`Ctx`] the process
//! runs in. Threading `(core, ctx)` through every typed-client method
//! doubled each signature and invited argument-order slips.
//! [`Session`] borrows both once; typed clients (and application code)
//! take a single `&mut Session<'_>`.
//!
//! `Session` is the *blocking* face of the session engine: every method
//! forwards to [`SessionCore`]'s blocking surface. Poll-driven
//! processes use the same core's non-blocking surface
//! (`bind_async`/`invoke_async`) instead — see the
//! [`session_core`](crate::SessionCore) docs and `DESIGN.md` §8.
//!
//! ```
//! use simnet::{Simulation, NetworkConfig, NodeId};
//! use naming::spawn_name_server;
//! use proxy_core::{ServiceBuilder, SessionCore, Session, ProxySpec};
//! # use proxy_core::{InterfaceDesc, OpDesc, ServiceObject};
//! # use rpc::RemoteError;
//! # use wire::Value;
//! # #[derive(Clone)]
//! # struct Echo;
//! # impl ServiceObject for Echo {
//! #     fn interface(&self) -> InterfaceDesc {
//! #         InterfaceDesc::new("echo", [OpDesc::read("echo", "v")])
//! #     }
//! #     fn dispatch(&mut self, _: &mut simnet::Ctx, _: &str, args: &Value)
//! #         -> Result<Value, RemoteError> { Ok(args.clone()) }
//! # }
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 7);
//! let ns = spawn_name_server(&sim, NodeId(0));
//! ServiceBuilder::new("echo")
//!     .spec(ProxySpec::Stub)
//!     .object(|| Box::new(Echo))
//!     .spawn(&sim, NodeId(1), ns);
//! sim.spawn("client", NodeId(2), move |ctx| {
//!     let mut core = SessionCore::new(ns);
//!     let mut session = Session::new(&mut core, ctx);
//!     let h = session.bind("echo").unwrap();
//!     let v = session.invoke(h, "echo", Value::str("hi")).unwrap();
//!     assert_eq!(v, Value::str("hi"));
//!     session.shutdown();
//! });
//! sim.run();
//! ```

use simnet::Ctx;
use wire::Value;

use rpc::RpcError;

use crate::proxy::ProxyStats;
use crate::session_core::{ProxyHandle, SessionCore};

/// A borrowed `(core, context)` pair — the unit every client-side
/// call actually operates on.
///
/// `Session` owns nothing: it reborrows a [`SessionCore`] and the
/// process [`Ctx`] for as long as the client needs them together, and
/// forwards to the core's blocking methods. Construct it once at the
/// top of a client body and pass `&mut session` everywhere a typed
/// client or helper would otherwise take the `(core, ctx)` pair.
#[derive(Debug)]
pub struct Session<'a> {
    core: &'a mut SessionCore,
    ctx: &'a mut Ctx,
}

impl<'a> Session<'a> {
    /// Bundles a session core and a context into a session.
    pub fn new(core: &'a mut SessionCore, ctx: &'a mut Ctx) -> Session<'a> {
        Session { core, ctx }
    }

    /// Binds to `service`, waiting up to 100ms of virtual time for it to
    /// register.
    ///
    /// # Errors
    ///
    /// See [`crate::Binder::bind_wait`].
    pub fn bind(&mut self, service: &str) -> Result<ProxyHandle, RpcError> {
        self.core.bind(self.ctx, service)
    }

    /// Invokes an operation through a bound proxy.
    ///
    /// See [`SessionCore::invoke`] for span and metrics behaviour.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the proxy.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this session's core.
    pub fn invoke(
        &mut self,
        handle: ProxyHandle,
        op: &str,
        args: Value,
    ) -> Result<Value, RpcError> {
        self.core.invoke(self.ctx, handle, op, args)
    }

    /// Hosts an object directly in this context under `service` (the
    /// same-context fast path). See [`SessionCore::host_local`].
    pub fn host_local(
        &mut self,
        service: impl Into<String>,
        object: Box<dyn crate::ServiceObject>,
    ) -> ProxyHandle {
        self.core.host_local(service, object)
    }

    /// Drains the mailbox, routes notifications and polls proxies. See
    /// [`SessionCore::pump`].
    pub fn pump(&mut self) {
        self.core.pump(self.ctx);
    }

    /// Stats for one proxy.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this session's core.
    pub fn stats(&self, handle: ProxyHandle) -> ProxyStats {
        self.core.stats(handle)
    }

    /// Cleanly detaches one proxy.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this session's core.
    pub fn unbind(&mut self, handle: ProxyHandle) {
        self.core.unbind(self.ctx, handle);
    }

    /// Detaches every proxy (call before client exit).
    pub fn shutdown(&mut self) {
        self.core.shutdown(self.ctx);
    }

    /// The simulation context (for time, randomness, raw messaging).
    pub fn ctx(&mut self) -> &mut Ctx {
        self.ctx
    }

    /// The underlying session core (to register custom proxies, etc.).
    pub fn core(&mut self) -> &mut SessionCore {
        self.core
    }

    /// Splits the session back into its parts, for code paths that need
    /// both with independent lifetimes.
    pub fn parts(&mut self) -> (&mut SessionCore, &mut Ctx) {
        (self.core, self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterfaceDesc, OpDesc, ServiceObject};
    use rpc::RemoteError;
    use simnet::{NetworkConfig, NodeId, Simulation};

    #[derive(Clone)]
    struct Echo;
    impl ServiceObject for Echo {
        fn interface(&self) -> InterfaceDesc {
            InterfaceDesc::new("echo", [OpDesc::read("echo", "v")])
        }
        fn dispatch(
            &mut self,
            _ctx: &mut Ctx,
            _op: &str,
            args: &Value,
        ) -> Result<Value, RemoteError> {
            Ok(args.clone())
        }
    }

    #[test]
    fn session_drives_a_local_object() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 3);
        let ns = naming::spawn_name_server(&sim, NodeId(0));
        sim.spawn("client", NodeId(1), move |ctx| {
            let mut core = SessionCore::new(ns);
            let mut session = Session::new(&mut core, ctx);
            let h = session.host_local("echo", Box::new(Echo));
            let v = session.invoke(h, "echo", Value::str("x")).unwrap();
            assert_eq!(v, Value::str("x"));
            assert_eq!(session.stats(h).invocations, 1);
            session.pump();
            session.unbind(h);
            session.shutdown();
        });
        sim.run();
    }
}
