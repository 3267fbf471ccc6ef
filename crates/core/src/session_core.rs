//! The session engine: one core, two surfaces.
//!
//! [`SessionCore`] owns everything a client context needs — the
//! [`Binder`], the proxy table, the one-way router — and exposes it
//! through two surfaces:
//!
//! * **Blocking** ([`SessionCore::bind`], [`SessionCore::invoke`], …):
//!   the classic call-and-wait style used by thread-backed processes.
//!   [`Session`](crate::Session) is a thin borrowed view over these
//!   methods — the paper's proxy interface, unchanged.
//! * **Non-blocking** ([`SessionCore::bind_async`],
//!   [`SessionCore::invoke_async`] and their `poll_*` drivers): returns
//!   [`BindFuture`] / [`CallFuture`] tickets a poll-driven process
//!   ([`simnet::Process`]) redeems from its `poll` method via
//!   [`ProcCx`]. Nothing ever parks a thread: a pending bind or call
//!   registers its wakes (reply delivery, retransmission deadline,
//!   retry backoff) and the process returns `Poll::Pending`.
//!
//! The split is deliberate and narrow (see `DESIGN.md`): the async
//! surface speaks the same wire protocol through the same
//! [`rpc::Channel`] transport, so a server cannot tell a poll-driven
//! client from a blocking one. It currently supports **stub-grade**
//! bindings only — [`ProxySpec::Stub`] services, which is what
//! million-client workloads (experiment E16) bind. Services that chose
//! a smart proxy (caching, migratory, adaptive, replicated, custom)
//! still require the blocking surface, where the full proxy zoo lives;
//! asking for one through `bind_async` reports a descriptive error
//! rather than silently downgrading the service's chosen strategy.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use naming::NameRecord;
use rpc::{Channel, ChannelConfig, Oneway, RpcError};
use simnet::{Ctx, Endpoint, Poll, ProcCx, SimTime};
use wire::{Value, WireError};

use crate::object::FactoryRegistry;
use crate::proxy::{Proxy, ProxyStats};
use crate::runtime::Binder;
use crate::spec::ProxySpec;

/// Handle to a proxy owned by a session core (blocking surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProxyHandle(pub(crate) usize);

/// Ticket for an in-progress non-blocking bind; redeem with
/// [`SessionCore::poll_bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindFuture(usize);

/// Handle to a service bound through the non-blocking surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsyncHandle(usize);

/// Ticket for one in-flight non-blocking call; redeem with
/// [`SessionCore::poll_call`]. The `CallHandle`-style future of the
/// redesigned client API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallFuture {
    svc: usize,
    call: rpc::CallHandle,
}

impl CallFuture {
    /// The underlying RPC call id (diagnostics only).
    pub fn call_id(&self) -> u64 {
        self.call.call_id()
    }
}

/// How far a non-blocking bind has progressed.
enum BindState {
    /// Lookup RPC in flight on a dedicated channel to the name server.
    Resolving {
        service: String,
        chan: Box<Channel>,
        call: rpc::CallHandle,
        deadline: SimTime,
    },
    /// Name not registered yet; retry the lookup at `retry_at`.
    Backoff {
        service: String,
        retry_at: SimTime,
        deadline: SimTime,
    },
    /// Settled, result not yet claimed by `poll_bind`.
    Done(Result<usize, RpcError>),
    /// Result claimed.
    Claimed,
}

/// Names one of the core's channels.
#[derive(Clone, Copy)]
enum ChanAt {
    Service(usize),
    Bind(usize),
}

/// One service bound through the async surface: a pipelined channel to
/// its endpoint.
struct AsyncService {
    chan: Channel,
}

/// The client-context engine behind [`Session`](crate::Session): the
/// binder, the proxy table and the non-blocking call machinery.
///
/// See the [module docs](self) for the blocking/non-blocking split.
pub struct SessionCore {
    binder: Binder,
    proxies: Vec<Box<dyn Proxy>>,
    by_service: HashMap<String, usize>,
    /// Name-server replica endpoints for async lookups; empty means
    /// every lookup goes to the binder's single name server.
    ns_replicas: Vec<Endpoint>,
    // -- non-blocking surface state --
    cfg: ChannelConfig,
    binds: Vec<BindState>,
    services: Vec<AsyncService>,
    async_by_service: HashMap<String, usize>,
}

impl fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCore")
            .field("proxies", &self.proxies.len())
            .field("async_services", &self.services.len())
            .finish_non_exhaustive()
    }
}

impl SessionCore {
    /// Creates a core talking to the name server at `ns`.
    pub fn new(ns: Endpoint) -> SessionCore {
        SessionCore {
            binder: Binder::new(ns),
            proxies: Vec::new(),
            by_service: HashMap::new(),
            ns_replicas: Vec::new(),
            cfg: ChannelConfig::default(),
            binds: Vec::new(),
            services: Vec::new(),
            async_by_service: HashMap::new(),
        }
    }

    /// Spreads async name lookups across name-server replicas (see
    /// `naming::spawn_name_cluster`): each service name hashes to one
    /// replica, so a large fleet's NotFound-backoff polls fan out over
    /// the cluster instead of serializing on a single server process.
    /// The hash is by service name — repeated retries for one bind stick
    /// to one replica, keeping per-bind behavior identical to the
    /// single-server path. An empty list restores that path.
    pub fn with_ns_replicas(mut self, replicas: Vec<Endpoint>) -> SessionCore {
        self.ns_replicas = replicas;
        self
    }

    /// Sets the channel configuration (pipeline depth, batching,
    /// retries) used by async-bound services.
    pub fn with_channel_config(mut self, cfg: ChannelConfig) -> SessionCore {
        self.cfg = cfg;
        self
    }

    /// Supplies object factories (for migratory services).
    pub fn with_factories(mut self, factories: FactoryRegistry) -> SessionCore {
        self.binder = self.binder.with_factories(factories);
        self
    }

    /// Access to the underlying binder (to register custom proxy kinds).
    pub fn binder_mut(&mut self) -> &mut Binder {
        &mut self.binder
    }

    // -----------------------------------------------------------------
    // Blocking surface (the Session shim forwards here)
    // -----------------------------------------------------------------

    /// Binds to `service`, waiting up to 100ms of virtual time for it to
    /// register.
    ///
    /// # Errors
    ///
    /// See [`Binder::bind_wait`].
    pub fn bind(&mut self, ctx: &mut Ctx, service: &str) -> Result<ProxyHandle, RpcError> {
        let proxy = self
            .binder
            .bind_wait(ctx, service, Duration::from_millis(100))?;
        let idx = self.proxies.len();
        self.by_service.insert(proxy.service().to_owned(), idx);
        self.proxies.push(proxy);
        Ok(ProxyHandle(idx))
    }

    /// Invokes an operation through a bound proxy.
    ///
    /// Opens a causal invoke span for the duration of the call (child
    /// RPCs, retransmissions and server dispatches attach to it), records
    /// the invocation latency into the per-`(service, op)` histogram, and
    /// publishes the proxy's counters to the [`obs::MetricsRegistry`].
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the proxy.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx,
        handle: ProxyHandle,
        op: &str,
        args: Value,
    ) -> Result<Value, RpcError> {
        self.pump(ctx);
        let service = self.proxies[handle.0].service().to_owned();
        let span = ctx.obs().open_span(
            obs::SpanKind::Invoke,
            ctx.current_span(),
            &service,
            op,
            ctx.now().as_nanos(),
        );
        let previous = ctx.set_current_span(span);
        let mut strays: Vec<Oneway> = Vec::new();
        let result = self.proxies[handle.0].invoke(ctx, op, args, &mut strays);
        ctx.set_current_span(previous);
        ctx.obs()
            .close_span(span, ctx.now().as_nanos(), result.is_ok());
        ctx.obs()
            .set_proxy_stats(ctx.name(), &service, self.proxies[handle.0].stats());
        self.route(ctx, strays);
        result
    }

    /// Hosts an object directly in this context under `service` — the
    /// same-context fast path (experiment E5): invocations through the
    /// returned handle are ordinary procedure calls, no messages at all.
    pub fn host_local(
        &mut self,
        service: impl Into<String>,
        object: Box<dyn crate::ServiceObject>,
    ) -> ProxyHandle {
        let service = service.into();
        let idx = self.proxies.len();
        self.by_service.insert(service.clone(), idx);
        self.proxies
            .push(Box::new(crate::proxies::LocalProxy::new(service, object)));
        ProxyHandle(idx)
    }

    /// Drains the process mailbox and routes notifications; gives every
    /// proxy a chance to do deferred work (honour recalls, etc.). Call
    /// this periodically from client loops that go quiet.
    pub fn pump(&mut self, ctx: &mut Ctx) {
        let mut pending: Vec<Oneway> = Vec::new();
        while let Ok(Some(msg)) = ctx.try_recv() {
            if let Ok(rpc::Packet::Oneway(o)) = rpc::Packet::from_frame(&msg.payload) {
                pending.push(o);
            }
            // Replies outside any call are late duplicates: dropped.
        }
        self.route(ctx, pending);
        for p in &mut self.proxies {
            p.poll(ctx);
        }
    }

    pub(crate) fn route(&mut self, ctx: &mut Ctx, oneways: Vec<Oneway>) {
        for o in oneways {
            let target = o
                .args
                .get("svc")
                .and_then(Value::as_str)
                .and_then(|svc| self.by_service.get(svc).copied());
            if let Some(idx) = target {
                self.proxies[idx].on_oneway(ctx, &o);
            }
        }
    }

    /// Stats for one proxy.
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn stats(&self, handle: ProxyHandle) -> ProxyStats {
        self.proxies[handle.0].stats()
    }

    /// Cleanly detaches one proxy (unsubscribe, check state back in).
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn unbind(&mut self, ctx: &mut Ctx, handle: ProxyHandle) {
        self.proxies[handle.0].detach(ctx);
    }

    /// Detaches every proxy (call before client exit).
    pub fn shutdown(&mut self, ctx: &mut Ctx) {
        for p in &mut self.proxies {
            p.detach(ctx);
        }
    }

    // -----------------------------------------------------------------
    // Non-blocking surface (poll-driven processes)
    // -----------------------------------------------------------------

    /// Starts a non-blocking bind to `service`: issues the name lookup
    /// and returns a ticket to poll with [`SessionCore::poll_bind`].
    /// Waits (by retrying, never by blocking) up to 100ms of virtual
    /// time for the name to register, mirroring the blocking bind.
    pub fn bind_async(&mut self, cx: &mut ProcCx, service: &str) -> BindFuture {
        let deadline = cx.now() + Duration::from_millis(100);
        let state = self.start_lookup(cx, service, deadline);
        let idx = self.binds.len();
        self.binds.push(state);
        BindFuture(idx)
    }

    /// The name server answering lookups for `service`: the replica its
    /// name hashes to, or the binder's single server without replicas.
    fn ns_for(&self, service: &str) -> Endpoint {
        if self.ns_replicas.is_empty() {
            return self.binder.ns_endpoint();
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in service.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.ns_replicas[(h % self.ns_replicas.len() as u64) as usize]
    }

    fn start_lookup(&mut self, cx: &mut ProcCx, service: &str, deadline: SimTime) -> BindState {
        let mut chan = Box::new(Channel::new("ns", self.ns_for(service), self.cfg.clone()));
        let call = chan.begin_call(
            cx.ctx(),
            "lookup",
            Value::record([("name", Value::str(service))]),
        );
        chan.flush(cx.ctx());
        BindState::Resolving {
            service: service.to_owned(),
            chan,
            call,
            deadline,
        }
    }

    /// Drives a non-blocking bind. Returns `Poll::Pending` with wakes
    /// registered (reply delivery / retransmission deadline / retry
    /// backoff) until the bind settles; the first `Ready` claims the
    /// result, later polls of the same ticket report a timeout.
    ///
    /// # Errors (inside `Poll::Ready`)
    ///
    /// * name-service errors (unknown name after the wait, transport),
    /// * [`RpcError::Wire`] if the binding metadata is malformed,
    /// * [`rpc::ErrorCode::Unavailable`] if the service chose a proxy
    ///   strategy the async surface does not implement (anything but
    ///   [`ProxySpec::Stub`]) — bind through the blocking
    ///   [`Session`](crate::Session) instead.
    ///
    /// # Panics
    ///
    /// Panics if the ticket did not come from this core.
    pub fn poll_bind(
        &mut self,
        cx: &mut ProcCx,
        f: BindFuture,
    ) -> Poll<Result<AsyncHandle, RpcError>> {
        let r = self.poll_bind_inner(cx, f);
        // Same as poll_call: no channel may be left with an unarmed
        // retransmit deadline when the caller parks after this pass.
        self.arm_all_deadlines(cx);
        r
    }

    fn poll_bind_inner(
        &mut self,
        cx: &mut ProcCx,
        f: BindFuture,
    ) -> Poll<Result<AsyncHandle, RpcError>> {
        loop {
            let state = &mut self.binds[f.0];
            match state {
                BindState::Resolving {
                    service,
                    call,
                    deadline,
                    ..
                } => {
                    let (service, deadline, call) = (service.clone(), *deadline, *call);
                    match self.poll_channel(cx, ChanAt::Bind(f.0), call) {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready(Ok(rep)) => {
                            let settled = self.settle_bind(&service, &rep);
                            if let Ok(idx) = settled {
                                self.async_by_service.insert(service, idx);
                                self.binds[f.0] = BindState::Claimed;
                                return Poll::Ready(Ok(AsyncHandle(idx)));
                            }
                            self.binds[f.0] = BindState::Done(settled);
                        }
                        Poll::Ready(Err(e)) if naming::is_not_found(&e) && cx.now() < deadline => {
                            // Services register asynchronously at start:
                            // back off 1ms and look up again, exactly like
                            // the blocking bind_wait.
                            let retry_at = cx.now() + Duration::from_millis(1);
                            cx.wake_at(retry_at);
                            self.binds[f.0] = BindState::Backoff {
                                service,
                                retry_at,
                                deadline,
                            };
                            return Poll::Pending;
                        }
                        Poll::Ready(Err(e)) => {
                            self.binds[f.0] = BindState::Done(Err(e));
                        }
                    }
                }
                BindState::Backoff {
                    service,
                    retry_at,
                    deadline,
                } => {
                    if cx.now() < *retry_at {
                        let at = *retry_at;
                        cx.wake_at(at);
                        return Poll::Pending;
                    }
                    let (service, deadline) = (service.clone(), *deadline);
                    self.binds[f.0] = self.start_lookup(cx, &service, deadline);
                }
                BindState::Done(_) => {
                    let BindState::Done(result) =
                        std::mem::replace(&mut self.binds[f.0], BindState::Claimed)
                    else {
                        unreachable!()
                    };
                    return Poll::Ready(result.map(AsyncHandle));
                }
                BindState::Claimed => {
                    return Poll::Ready(Err(RpcError::Timeout { attempts: 0 }));
                }
            }
        }
    }

    /// Validates the resolved record and installs the async service.
    fn settle_bind(&mut self, service: &str, rep: &Value) -> Result<usize, RpcError> {
        if let Some(&idx) = self.async_by_service.get(service) {
            return Ok(idx);
        }
        let record = NameRecord::from_value(rep)?;
        let spec_v = record
            .meta
            .get("spec")
            .ok_or(RpcError::Wire(WireError::MissingField("spec")))?;
        let spec = ProxySpec::from_value(spec_v)?;
        if !matches!(spec, ProxySpec::Stub) {
            return Err(RpcError::Remote(rpc::RemoteError::new(
                rpc::ErrorCode::Unavailable,
                format!(
                    "service `{service}` chose proxy spec {spec:?}; the non-blocking \
                     surface implements stub-grade bindings only — use the blocking \
                     Session shim for smart proxies"
                ),
            )));
        }
        let idx = self.services.len();
        self.services.push(AsyncService {
            chan: Channel::new(service, record.endpoint, self.cfg.clone()),
        });
        Ok(idx)
    }

    /// Stages a non-blocking call on an async-bound service and returns
    /// its future. The call is flushed into the channel's pipeline
    /// window immediately; redeem with [`SessionCore::poll_call`].
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn invoke_async(
        &mut self,
        cx: &mut ProcCx,
        handle: AsyncHandle,
        op: &str,
        args: Value,
    ) -> CallFuture {
        let svc = &mut self.services[handle.0];
        let call = svc.chan.begin_call(cx.ctx(), op, args);
        svc.chan.flush(cx.ctx());
        CallFuture {
            svc: handle.0,
            call,
        }
    }

    /// Drives one non-blocking call to completion: absorbs deliveries,
    /// fires retransmission timers, and either yields the settled result
    /// or registers the wakes that will complete it.
    ///
    /// # Errors (inside `Poll::Ready`)
    ///
    /// Same contract as [`rpc::Channel::wait`]: `Timeout` after the
    /// retry budget, `Remote` for server-reported failures, `Stopped` on
    /// simulation shutdown.
    ///
    /// # Panics
    ///
    /// Panics if the future did not come from this core.
    pub fn poll_call(&mut self, cx: &mut ProcCx, f: CallFuture) -> Poll<Result<Value, RpcError>> {
        let r = self.poll_channel(cx, ChanAt::Service(f.svc), f.call);
        // The caller may park after this without polling its other
        // futures this pass; make sure no channel in the core is left
        // with an unarmed (possibly earlier) retransmit deadline.
        self.arm_all_deadlines(cx);
        r
    }

    /// Drives one of the core's channels and claims `call` once it has
    /// settled. The channel drains the whole mailbox, so it may absorb
    /// replies for calls begun on a sibling channel; call ids are unique
    /// per process, so each such reply goes to the channel that owns its
    /// id, and counts as stale only when no channel does.
    fn poll_channel(
        &mut self,
        cx: &mut ProcCx,
        at: ChanAt,
        call: rpc::CallHandle,
    ) -> Poll<Result<Value, RpcError>> {
        let foreign = match self.channel_mut(at).poll_shared(cx.ctx()) {
            Ok(foreign) => foreign,
            Err(e) => return Poll::Ready(Err(e)),
        };
        for (src, rep) in foreign {
            let owner = self.channels_mut().find(|c| c.owns(rep.call_id));
            if let Some(owner) = owner {
                owner.deliver(cx.ctx(), src, rep);
                // The owner's future may already have been polled this
                // pass; re-poll so the caller does not park on a call
                // that has settled without a wake of its own.
                cx.yield_now();
            } else {
                self.channel_mut(at).deliver(cx.ctx(), src, rep);
            }
        }
        match self.channel_mut(at).try_take(call) {
            Some(result) => Poll::Ready(result),
            None => Poll::Pending,
        }
    }

    fn channel_mut(&mut self, at: ChanAt) -> &mut Channel {
        match at {
            ChanAt::Service(i) => &mut self.services[i].chan,
            ChanAt::Bind(i) => match &mut self.binds[i] {
                BindState::Resolving { chan, .. } => chan,
                _ => unreachable!("only a resolving bind owns a channel"),
            },
        }
    }

    /// Every channel the core owns: bound services and in-flight binds.
    fn channels_mut(&mut self) -> impl Iterator<Item = &mut Channel> {
        let binds = self.binds.iter_mut().filter_map(|b| match b {
            BindState::Resolving { chan, .. } => Some(&mut **chan),
            _ => None,
        });
        self.services.iter_mut().map(|s| &mut s.chan).chain(binds)
    }

    /// Arms a timer wake at the earliest retransmit deadline across
    /// *every* channel this core owns — bound services and in-flight
    /// binds alike. A poll pass typically drives one future; any other
    /// channel with outstanding calls still needs its timer armed, or a
    /// deadline computed before the caller parked would go stale and
    /// its retransmissions would wait on an unrelated delivery.
    fn arm_all_deadlines(&self, cx: &mut ProcCx) {
        for s in &self.services {
            if let Some(dl) = s.chan.next_deadline() {
                cx.wake_at(dl);
            }
        }
        for b in &self.binds {
            if let BindState::Resolving { chan, .. } = b {
                if let Some(dl) = chan.next_deadline() {
                    cx.wake_at(dl);
                }
            }
        }
    }

    /// Per-service channel statistics for an async binding (calls,
    /// retries, timeouts, batches).
    ///
    /// # Panics
    ///
    /// Panics if the handle did not come from this core.
    pub fn async_stats(&self, handle: AsyncHandle) -> rpc::ChannelStats {
        self.services[handle.0].chan.stats
    }
}
