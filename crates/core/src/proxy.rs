//! The client-side proxy abstraction.
//!
//! A [`Proxy`] is the local representative of a remote service — the
//! paper's central artifact. Clients invoke operations *only* through a
//! proxy; what the proxy does (forward, cache, migrate, pick a replica)
//! is the service's business, selected by the [`crate::ProxySpec`] it
//! published.

use rpc::{Channel, Oneway, Packet, RpcError};
use simnet::{Ctx, Message};
use wire::Value;

/// Well-known operation and notification names of the proxy protocol.
///
/// Operations beginning with `_` are *system* operations handled by the
/// hosting [`crate::ServiceServer`] itself; all other operations are
/// dispatched to the hosted [`crate::ServiceObject`].
pub mod protocol {
    /// Fetch the service interface description.
    pub const OP_IFACE: &str = "_iface";
    /// Subscribe the caller for invalidation notifications.
    pub const OP_SUBSCRIBE: &str = "_subscribe";
    /// Remove an invalidation subscription.
    pub const OP_UNSUBSCRIBE: &str = "_unsubscribe";
    /// Check the object out into the caller's context (migratory).
    pub const OP_CHECKOUT: &str = "_checkout";
    /// Return a checked-out object's state.
    pub const OP_CHECKIN: &str = "_checkin";
    /// Capture the object state without transferring ownership.
    pub const OP_SNAPSHOT: &str = "_snapshot";
    /// Liveness / latency probe.
    pub const OP_PING: &str = "_ping";

    /// One-way: a cached tag became stale (`args: {svc, tag}`).
    pub const MSG_INVALIDATE: &str = "inv";
    /// One-way: the service wants a checked-out object back
    /// (`args: {svc}`).
    pub const MSG_RECALL: &str = "recall";
}

/// Counters every proxy maintains; the currency of the experiment
/// harness.
///
/// Canonical definition lives in the `obs` crate; each proxy keeps its
/// own copy here, and the simulation-wide [`obs::MetricsRegistry`]
/// snapshots the same counters per `(owner, service)` pair.
pub use obs::ProxyStats;

/// Collects one-way notifications that arrive while a proxy is blocked
/// in a call but belong to *other* proxies in the same context. The
/// [`crate::SessionCore`] routes them after the call returns.
pub trait OnewaySink {
    /// Queues a notification for later routing.
    fn push(&mut self, oneway: Oneway);

    /// Offers a *request* datagram that strayed into the mailbox while
    /// the proxy was blocked (e.g. a client call landing at a process
    /// that is itself a server — an edge cache mid-miss). Sinks that can
    /// requeue the message for later service return `true`; the default
    /// declines, and the caller counts the datagram as dropped — the
    /// sender's retransmission recovers it.
    fn push_request(&mut self, _msg: &Message) -> bool {
        false
    }
}

impl OnewaySink for Vec<Oneway> {
    fn push(&mut self, oneway: Oneway) {
        Vec::push(self, oneway);
    }
}

/// Hands `sink` the strays a channel absorbed while pumping, in arrival
/// order: one-way notifications are queued for routing, and requests
/// (this process is also a server, e.g. an edge cache blocked on its
/// origin) are offered for requeueing. A request the sink declines
/// counts as dropped; the sender's retransmission recovers it.
pub fn route_strays(ctx: &Ctx, chan: &mut Channel, sink: &mut dyn OnewaySink) {
    for msg in chan.take_strays() {
        match Packet::from_frame(&msg.payload) {
            Ok(Packet::Oneway(o)) => sink.push(o),
            _ => {
                if !sink.push_request(&msg) {
                    ctx.obs().on_stray_dropped();
                }
            }
        }
    }
}

/// A sink that discards notifications (for standalone proxies in
/// single-service processes that know no other traffic can arrive).
#[derive(Debug, Default, Clone, Copy)]
pub struct DiscardStrays;

impl OnewaySink for DiscardStrays {
    fn push(&mut self, _oneway: Oneway) {}
}

/// A local representative of a remote service.
pub trait Proxy: Send {
    /// The service name this proxy represents.
    fn service(&self) -> &str;

    /// Invokes an operation through the proxy. One-way notifications
    /// that arrive while waiting and are addressed to other services are
    /// pushed into `strays`.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`]: transport failure, remote failure, or shutdown.
    fn invoke(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError>;

    /// Delivers a one-way notification addressed to this proxy's service
    /// (invalidation, recall, …). Must not block.
    fn on_oneway(&mut self, _ctx: &mut Ctx, _oneway: &Oneway) {}

    /// Gives the proxy a chance to do deferred work (e.g. honour a
    /// pending recall). Called by the runtime between invocations.
    fn poll(&mut self, _ctx: &mut Ctx) {}

    /// Cleanly unbinds: unsubscribe, check state back in. Called by
    /// [`crate::SessionCore::unbind`] and before client exit.
    fn detach(&mut self, _ctx: &mut Ctx) {}

    /// Current counters.
    fn stats(&self) -> ProxyStats;
}

impl std::fmt::Debug for dyn Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Proxy({})", self.service())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Endpoint, NodeId, PortId};

    #[test]
    fn vec_sink_collects() {
        let mut sink: Vec<Oneway> = Vec::new();
        sink.push(Oneway {
            from: Endpoint::new(NodeId(0), PortId(1)),
            op: "inv".into(),
            args: Value::Null,
            span: 0,
        });
        OnewaySink::push(
            &mut sink,
            Oneway {
                from: Endpoint::new(NodeId(0), PortId(1)),
                op: "recall".into(),
                args: Value::Null,
                span: 0,
            },
        );
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn discard_sink_discards() {
        let mut sink = DiscardStrays;
        sink.push(Oneway {
            from: Endpoint::new(NodeId(0), PortId(1)),
            op: "inv".into(),
            args: Value::Null,
            span: 0,
        });
        // Nothing to observe: it simply must not panic or accumulate.
    }
}
