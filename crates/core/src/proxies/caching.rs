//! The caching proxy: read results cached in the client context.
//!
//! Reads declared in the service interface are cached under their *tag*
//! (see [`crate::OpDesc::tag`]). Coherence follows the service-chosen
//! [`Coherence`] mode:
//!
//! * **Leases** — every entry expires after a fixed duration; stale
//!   windows are bounded by the lease with zero server state.
//! * **Invalidations** — the proxy subscribes at bind time; the service
//!   pushes an `inv {svc, tag}` notification on every write, and the
//!   proxy drops the tag when it arrives (at its next mailbox poll).
//!
//! The proxy always invalidates its own tag on its own writes, so a
//! client reads its own writes regardless of mode.

use std::collections::{HashMap, HashSet, VecDeque};

use naming::NameClient;
use rpc::{endpoint_to_value, Channel, ChannelConfig, Packet, RpcError};
use simnet::{Ctx, Endpoint, SimTime};
use wire::Value;

use super::robust_call;
use crate::bulk::{BulkEngine, BulkParams};
use crate::interface::InterfaceDesc;
use crate::proxy::{protocol, OnewaySink, Proxy, ProxyStats};
use crate::spec::CachingParams;

#[derive(Debug, Clone)]
struct CacheEntry {
    value: Value,
    expires: Option<SimTime>,
}

/// A proxy that caches read results.
#[derive(Debug)]
pub struct CachingProxy {
    service: String,
    /// The proxy's one channel to the server: stop-and-wait calls, and
    /// staged writes in write-behind mode.
    rpc: Channel,
    ns: NameClient,
    iface: InterfaceDesc,
    params: CachingParams,
    subscribed: bool,
    /// tag → (request key → entry).
    cache: HashMap<String, HashMap<Vec<u8>, CacheEntry>>,
    /// Insertion order for capacity eviction (FIFO). May hold stale
    /// pairs for entries removed by invalidation or lease expiry;
    /// [`CachingProxy::compact_order`] bounds the slack.
    order: VecDeque<(String, Vec<u8>)>,
    len: usize,
    /// When set, writes are staged on the channel instead of blocking
    /// on a round trip (write-behind mode).
    write_behind: bool,
    /// When `Some`, over-threshold blobs spill out-of-band and reply
    /// references resolve out-of-band. Replies are resolved *before*
    /// they enter the cache, so repeat reads of a bulk value are pure
    /// local hits — the hierarchical edge cache's client-level tier.
    bulk: Option<BulkEngine>,
    stats: ProxyStats,
}

impl CachingProxy {
    /// Creates the proxy and, if the coherence mode calls for it,
    /// subscribes for invalidations.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the subscribe call.
    pub fn bind(
        ctx: &mut Ctx,
        service: impl Into<String>,
        server: Endpoint,
        ns: Endpoint,
        iface: InterfaceDesc,
        params: CachingParams,
    ) -> Result<CachingProxy, RpcError> {
        let service = service.into();
        let mut proxy = CachingProxy {
            rpc: Channel::new(service.clone(), server, ChannelConfig::with_depth(1)),
            service,
            ns: NameClient::new(ns),
            iface,
            params,
            subscribed: false,
            cache: HashMap::new(),
            order: VecDeque::new(),
            len: 0,
            write_behind: false,
            bulk: None,
            stats: ProxyStats::default(),
        };
        if proxy.params.coherence.subscribes() {
            proxy.subscribe(ctx)?;
        }
        Ok(proxy)
    }

    /// Subscribes for invalidation pushes.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub(crate) fn subscribe(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        self.rpc.call(
            ctx,
            protocol::OP_SUBSCRIBE,
            Value::record([("cb", endpoint_to_value(ctx.endpoint()))]),
        )?;
        self.subscribed = true;
        Ok(())
    }

    /// Cancels the invalidation subscription.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub(crate) fn unsubscribe(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        if self.subscribed {
            self.rpc.call(
                ctx,
                protocol::OP_UNSUBSCRIBE,
                Value::record([("cb", endpoint_to_value(ctx.endpoint()))]),
            )?;
            self.subscribed = false;
        }
        Ok(())
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.len
    }

    /// Length of the internal eviction queue (test hook: must stay
    /// O(capacity + live entries), see [`CachingProxy::compact_order`]).
    #[doc(hidden)]
    pub fn order_len(&self) -> usize {
        self.order.len()
    }

    /// Switches writes to write-behind: instead of blocking on a round
    /// trip, write ops are staged on the proxy's channel, now pipelined
    /// with `cfg`, and the call returns `Value::Null` immediately. The
    /// proxy still invalidates its own tags on write, and a read *miss*
    /// drains the channel before going remote, so the client continues
    /// to read its own writes. Durability is deferred: a write is only known to have
    /// executed once the channel drains ([`Proxy::poll`] makes progress;
    /// [`Proxy::detach`] drains fully).
    pub fn enable_write_behind(&mut self, cfg: ChannelConfig) {
        self.rpc = Channel::new(self.service.clone(), self.rpc.server(), cfg);
        self.write_behind = true;
    }

    /// Enables the out-of-band bulk data plane (see
    /// [`crate::bulk::BulkEngine`]). `ns` is the name server used to
    /// locate blob stores.
    pub fn enable_bulk(&mut self, params: BulkParams, ns: Endpoint) {
        self.bulk = Some(BulkEngine::new(params, ns));
    }

    /// The bulk engine, if [`Self::enable_bulk`] was called — for
    /// region routing overrides and transfer counters.
    pub fn bulk_mut(&mut self) -> Option<&mut BulkEngine> {
        self.bulk.as_mut()
    }

    fn bulk_spill(
        &mut self,
        ctx: &mut Ctx,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        match &mut self.bulk {
            Some(eng) if eng.wants_spill(&args) => eng.spill(ctx, args, strays),
            _ => Ok(args),
        }
    }

    fn bulk_resolve(
        &mut self,
        ctx: &mut Ctx,
        v: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        match &mut self.bulk {
            Some(eng) if BulkEngine::wants_resolve(&v) => eng.resolve(ctx, v, strays),
            _ => Ok(v),
        }
    }

    /// Replaces the caching parameters (used by the adaptive proxy when
    /// it flips strategies). Existing entries keep their old expiry.
    pub(crate) fn set_params(&mut self, params: CachingParams) {
        self.params = params;
    }

    /// Drops every cached entry.
    pub(crate) fn clear(&mut self) {
        self.cache.clear();
        self.order.clear();
        self.len = 0;
    }

    /// Drops all entries under one tag (`"*"` clears everything: a
    /// whole-object write invalidates every read).
    fn invalidate_tag(&mut self, tag: &str) {
        if tag == "*" {
            self.clear();
            return;
        }
        if let Some(entries) = self.cache.remove(tag) {
            self.len -= entries.len();
        }
        // Whole-object reads observe every key, so any write staleness
        // also invalidates the "*" tag.
        if let Some(entries) = self.cache.remove("*") {
            self.len -= entries.len();
        }
        self.compact_order();
    }

    /// Rebuilds the eviction queue once its stale slack (pairs whose
    /// entry was removed by invalidation or lease expiry, plus
    /// duplicates from expire-then-reinsert) exceeds the live entry
    /// count plus capacity. Keeps the *last* occurrence of each live
    /// pair so re-inserted entries age from their newest insert, and
    /// guarantees `order.len() <= 2 * (capacity + len)` at all times.
    fn compact_order(&mut self) {
        if self.order.len() <= self.params.capacity + self.len {
            return;
        }
        let mut seen: HashSet<(String, Vec<u8>)> = HashSet::with_capacity(self.len);
        let mut kept: Vec<(String, Vec<u8>)> = Vec::with_capacity(self.len);
        while let Some((t, k)) = self.order.pop_back() {
            let live = self
                .cache
                .get(&t)
                .is_some_and(|entries| entries.contains_key(&k));
            if live && seen.insert((t.clone(), k.clone())) {
                kept.push((t, k));
            }
        }
        kept.reverse();
        self.order = kept.into();
        debug_assert_eq!(self.order.len(), self.len);
    }

    fn cache_key(op: &str, args: &Value) -> Vec<u8> {
        wire::encode(&Value::record([
            ("op", Value::str(op)),
            ("a", args.clone()),
        ]))
        .to_vec()
    }

    fn lookup(&mut self, tag: &str, key: &[u8], now: SimTime) -> Option<Value> {
        let entries = self.cache.get_mut(tag)?;
        let entry = entries.get(key)?;
        if let Some(expires) = entry.expires {
            if expires <= now {
                entries.remove(key);
                if entries.is_empty() {
                    self.cache.remove(tag);
                }
                self.len -= 1;
                self.compact_order();
                return None;
            }
        }
        Some(entry.value.clone())
    }

    fn insert(&mut self, tag: String, key: Vec<u8>, value: Value, now: SimTime) {
        while self.len >= self.params.capacity {
            // FIFO eviction: pop until we actually remove a live entry
            // (entries may already be gone via invalidation).
            match self.order.pop_front() {
                Some((t, k)) => {
                    if let Some(entries) = self.cache.get_mut(&t) {
                        if entries.remove(&k).is_some() {
                            self.len -= 1;
                            if entries.is_empty() {
                                self.cache.remove(&t);
                            }
                        }
                    }
                }
                None => break,
            }
        }
        let expires = self.params.coherence.lease().map(|d| now + d);
        let fresh = self
            .cache
            .entry(tag.clone())
            .or_default()
            .insert(key.clone(), CacheEntry { value, expires })
            .is_none();
        if fresh {
            self.len += 1;
            self.order.push_back((tag, key));
            self.compact_order();
        }
    }

    /// Forwards a call without consulting or filling the cache (used by
    /// the adaptive proxy while caching is disabled).
    pub(crate) fn invoke_nocache(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        self.stats.invocations += 1;
        self.stats.remote_calls += 1;
        robust_call(
            &mut self.rpc,
            &mut self.ns,
            &self.service,
            ctx,
            op,
            args,
            strays,
            &mut self.stats,
        )
    }

    /// Drains invalidations already sitting in the process mailbox so a
    /// read that follows a remote write observes it promptly.
    fn drain_mailbox(&mut self, ctx: &mut Ctx, strays: &mut dyn OnewaySink) {
        while let Ok(Some(msg)) = ctx.try_recv() {
            match rpc::Packet::from_frame(&msg.payload) {
                Ok(rpc::Packet::Oneway(o)) => {
                    if o.args.get("svc").and_then(Value::as_str) == Some(self.service.as_str()) {
                        self.handle_oneway(&o);
                    } else {
                        strays.push(o);
                    }
                }
                // A request addressed to this process (it is itself a
                // server, e.g. an edge cache): offer it to the sink,
                // which may requeue it for service after this call.
                Ok(rpc::Packet::Request(_)) if strays.push_request(&msg) => {}
                // Anything else — late duplicate replies, unrequeued
                // requests, undecodable frames — cannot be serviced
                // from here. They used to vanish silently; now the drop
                // is at least visible.
                Ok(_) | Err(_) => {
                    self.stats.datagrams_discarded += 1;
                    ctx.obs().on_stray_dropped();
                }
            }
        }
    }

    /// Routes the strays the channel absorbed while pumping staged
    /// writes: invalidations for this service apply at once, other
    /// one-ways and requests go to `strays`.
    fn route_channel_strays(&mut self, ctx: &Ctx, strays: &mut dyn OnewaySink) {
        for msg in self.rpc.take_strays() {
            match Packet::from_frame(&msg.payload) {
                Ok(Packet::Oneway(o))
                    if o.args.get("svc").and_then(Value::as_str) == Some(self.service.as_str()) =>
                {
                    self.handle_oneway(&o);
                }
                Ok(Packet::Oneway(o)) => strays.push(o),
                _ => {
                    if !strays.push_request(&msg) {
                        ctx.obs().on_stray_dropped();
                    }
                }
            }
        }
    }

    /// Non-blocking write-behind progress: send staged writes, absorb
    /// replies already in the mailbox, drop settled records.
    fn pump_write_behind(
        &mut self,
        ctx: &mut Ctx,
        strays: &mut dyn OnewaySink,
    ) -> Result<(), RpcError> {
        if !self.write_behind {
            return Ok(());
        }
        let r = self.rpc.poll(ctx);
        self.rpc.reap_settled();
        self.route_channel_strays(ctx, strays);
        r
    }

    /// Drains the write-behind pipeline completely. Read misses call
    /// this before going remote so the server observes our writes first
    /// (read-your-writes survives the asynchrony).
    fn flush_write_behind(
        &mut self,
        ctx: &mut Ctx,
        strays: &mut dyn OnewaySink,
    ) -> Result<(), RpcError> {
        if !self.write_behind {
            return Ok(());
        }
        let r = self.rpc.wait_all(ctx);
        self.rpc.reap_settled();
        self.route_channel_strays(ctx, strays);
        r
    }

    fn handle_oneway(&mut self, o: &rpc::Oneway) {
        if o.op == protocol::MSG_INVALIDATE {
            if let Some(tag) = o.args.get("tag").and_then(Value::as_str) {
                let tag = tag.to_owned();
                self.invalidate_tag(&tag);
                self.stats.invalidations_rx += 1;
            }
        }
    }
}

impl Proxy for CachingProxy {
    fn service(&self) -> &str {
        &self.service
    }

    fn invoke(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        if self.write_behind {
            // The channel drains the mailbox itself: replies feed its
            // outstanding calls, one-ways come back via take_strays.
            // A raw drain here would eat the channel's replies.
            self.pump_write_behind(ctx, strays)?;
        } else if self.subscribed {
            self.drain_mailbox(ctx, strays);
        }
        self.stats.invocations += 1;
        let desc = self.iface.op(op).cloned();
        match desc {
            Some(d) if d.kind == crate::interface::OpKind::Read => {
                let tag = d.tag(&args);
                let key = Self::cache_key(op, &args);
                if let Some(v) = self.lookup(&tag, &key, ctx.now()) {
                    self.stats.local_hits += 1;
                    if ctx.obs().timeseries_enabled() {
                        ctx.obs().ts_add(
                            ctx.now().as_nanos(),
                            &format!("cache_hit@{}", self.service),
                            1,
                        );
                    }
                    ctx.trace(simnet::TraceEvent::ProxyCacheHit {
                        service: self.service.clone(),
                        op: op.to_owned(),
                        span: ctx.current_span(),
                    });
                    return Ok(v);
                }
                self.stats.remote_calls += 1;
                if ctx.obs().timeseries_enabled() {
                    ctx.obs().ts_add(
                        ctx.now().as_nanos(),
                        &format!("cache_miss@{}", self.service),
                        1,
                    );
                }
                ctx.trace(simnet::TraceEvent::ProxyCacheMiss {
                    service: self.service.clone(),
                    op: op.to_owned(),
                    span: ctx.current_span(),
                });
                // A miss goes remote: drain pending asynchronous writes
                // first so the server answers after our writes applied.
                self.flush_write_behind(ctx, strays)?;
                let args = self.bulk_spill(ctx, args, strays)?;
                let v = robust_call(
                    &mut self.rpc,
                    &mut self.ns,
                    &self.service,
                    ctx,
                    op,
                    args,
                    strays,
                    &mut self.stats,
                )?;
                let v = self.bulk_resolve(ctx, v, strays)?;
                self.insert(tag, key, v.clone(), ctx.now());
                Ok(v)
            }
            Some(d) => {
                // A write: forward, then drop our own stale reads of the
                // tag so we read our own writes.
                let tag = d.tag(&args);
                self.stats.remote_calls += 1;
                // Spill before staging: the write-behind channel then
                // carries only the fixed-size reference, so asynchronous
                // writes stay cheap on the RPC path too.
                let args = self.bulk_spill(ctx, args, strays)?;
                if self.write_behind {
                    // Write-behind: stage the call on the pipelined
                    // channel and return immediately. The channel's
                    // retransmission timers and the server's duplicate
                    // window keep execution at-most-once; the local
                    // invalidation below plus the flush-on-miss above
                    // keep read-your-writes.
                    self.rpc.begin_call(ctx, op, args);
                    self.pump_write_behind(ctx, strays)?;
                    self.invalidate_tag(&tag);
                    return Ok(Value::Null);
                }
                let v = robust_call(
                    &mut self.rpc,
                    &mut self.ns,
                    &self.service,
                    ctx,
                    op,
                    args,
                    strays,
                    &mut self.stats,
                )?;
                let v = self.bulk_resolve(ctx, v, strays)?;
                self.invalidate_tag(&tag);
                Ok(v)
            }
            None => {
                // Undeclared (system or unknown) op: pass through. It
                // might write, so drain asynchronous writes first to
                // preserve ordering.
                self.stats.remote_calls += 1;
                self.flush_write_behind(ctx, strays)?;
                let args = self.bulk_spill(ctx, args, strays)?;
                let v = robust_call(
                    &mut self.rpc,
                    &mut self.ns,
                    &self.service,
                    ctx,
                    op,
                    args,
                    strays,
                    &mut self.stats,
                )?;
                self.bulk_resolve(ctx, v, strays)
            }
        }
    }

    fn on_oneway(&mut self, _ctx: &mut Ctx, oneway: &rpc::Oneway) {
        self.handle_oneway(oneway);
    }

    fn poll(&mut self, ctx: &mut Ctx) {
        let mut sink: Vec<rpc::Oneway> = Vec::new();
        let _ = self.pump_write_behind(ctx, &mut sink);
        if !self.write_behind && self.subscribed {
            self.drain_mailbox(ctx, &mut sink);
            // Strays for other services found during a poll cannot be
            // routed from here; the runtime's pump drains the mailbox
            // itself, so this path only runs for standalone proxies.
        }
    }

    fn detach(&mut self, ctx: &mut Ctx) {
        // Flush asynchronous writes before tearing down: detach is the
        // durability point of write-behind mode.
        let mut sink: Vec<rpc::Oneway> = Vec::new();
        let _ = self.flush_write_behind(ctx, &mut sink);
        let _ = self.unsubscribe(ctx);
        self.clear();
    }

    fn stats(&self) -> ProxyStats {
        let mut s = self.stats;
        if let Some(eng) = &self.bulk {
            s.bulk_spills = eng.spills;
            s.bulk_resolves = eng.resolves;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use proptest::prelude::*;
    use simnet::{NodeId, PortId};

    use super::*;
    use crate::spec::Coherence;

    /// Builds a proxy without a simulation: the cache bookkeeping
    /// (insert / lookup / invalidate_tag) never touches the network.
    fn bare_proxy(capacity: usize, coherence: Coherence) -> CachingProxy {
        CachingProxy {
            service: "svc".into(),
            rpc: Channel::new(
                "svc",
                Endpoint::new(NodeId(0), PortId(1)),
                ChannelConfig::with_depth(1),
            ),
            ns: NameClient::new(Endpoint::new(NodeId(0), PortId(2))),
            iface: InterfaceDesc::new("svc", []),
            params: CachingParams {
                coherence,
                capacity,
            },
            subscribed: false,
            cache: HashMap::new(),
            order: VecDeque::new(),
            len: 0,
            write_behind: false,
            bulk: None,
            stats: ProxyStats::default(),
        }
    }

    fn live_entries(p: &CachingProxy) -> usize {
        p.cache.values().map(HashMap::len).sum()
    }

    /// Regression: before the fix, every expire-then-reinsert cycle and
    /// every tag invalidation left stale pairs in the eviction queue, so
    /// `order` grew without bound while the cache stayed tiny.
    #[test]
    fn order_queue_stays_bounded_under_expiry_and_invalidation() {
        let lease = Duration::from_millis(1);
        let mut p = bare_proxy(8, Coherence::Lease(lease));
        let mut now = SimTime::ZERO;
        for round in 0..1000u64 {
            let key = CachingProxy::cache_key("get", &Value::U64(round % 4));
            p.insert("t".into(), key.clone(), Value::U64(round), now);
            // Jump past the lease so the next lookup expires the entry.
            now = now + lease + Duration::from_millis(1);
            assert_eq!(p.lookup("t", &key, now), None, "entry must have expired");
            if round % 7 == 0 {
                p.invalidate_tag("t");
            }
            assert!(
                p.order_len() <= p.params.capacity + p.cache_len(),
                "round {round}: order queue leaked to {} (capacity {} + live {})",
                p.order_len(),
                p.params.capacity,
                p.cache_len()
            );
        }
    }

    /// Regression: removing the last expired entry of a tag used to
    /// leave an empty per-tag HashMap behind forever.
    #[test]
    fn expiry_removes_empty_tag_maps() {
        let lease = Duration::from_millis(1);
        let mut p = bare_proxy(8, Coherence::Lease(lease));
        for i in 0..50u64 {
            let key = CachingProxy::cache_key("get", &Value::U64(i));
            p.insert(format!("tag{i}"), key.clone(), Value::U64(i), SimTime::ZERO);
            let later = SimTime::ZERO + lease + Duration::from_millis(1);
            assert_eq!(p.lookup(&format!("tag{i}"), &key, later), None);
        }
        assert_eq!(p.cache_len(), 0);
        assert!(
            p.cache.is_empty(),
            "{} empty tag maps leaked",
            p.cache.len()
        );
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Insert(u8, u8),
        Lookup(u8),
        InvalidateTag(u8),
        InvalidateAll,
        Advance(u8),
        Clear,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<CacheOp>> {
        proptest::collection::vec(
            prop_oneof![
                (any::<u8>(), any::<u8>()).prop_map(|(t, k)| CacheOp::Insert(t % 5, k % 16)),
                any::<u8>().prop_map(|k| CacheOp::Lookup(k % 16)),
                any::<u8>().prop_map(|t| CacheOp::InvalidateTag(t % 5)),
                Just(CacheOp::InvalidateAll),
                any::<u8>().prop_map(CacheOp::Advance),
                Just(CacheOp::Clear),
            ],
            1..200,
        )
    }

    proptest! {
        /// Under any interleaving of inserts, invalidations, expiries
        /// and clears: `cache_len()` equals the number of live entries,
        /// the capacity is respected, and the eviction queue stays
        /// O(capacity + live entries).
        #[test]
        fn bookkeeping_invariants_hold(ops in arb_ops(), capacity in 1usize..12) {
            let lease = Duration::from_millis(2);
            let mut p = bare_proxy(capacity, Coherence::Lease(lease));
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    CacheOp::Insert(t, k) => {
                        let key = CachingProxy::cache_key("get", &Value::U64(k as u64));
                        p.insert(format!("t{t}"), key, Value::U64(k as u64), now);
                    }
                    CacheOp::Lookup(k) => {
                        // Sweep every tag so expiry can fire anywhere.
                        let key = CachingProxy::cache_key("get", &Value::U64(k as u64));
                        for t in 0..5 {
                            let _ = p.lookup(&format!("t{t}"), &key, now);
                        }
                    }
                    CacheOp::InvalidateTag(t) => p.invalidate_tag(&format!("t{t}")),
                    CacheOp::InvalidateAll => p.invalidate_tag("*"),
                    CacheOp::Advance(ms) => now += Duration::from_millis(ms as u64 % 5),
                    CacheOp::Clear => p.clear(),
                }
                prop_assert_eq!(
                    p.cache_len(),
                    live_entries(&p),
                    "len counter diverged from live entries"
                );
                prop_assert!(p.cache_len() <= p.params.capacity);
                prop_assert!(
                    p.order_len() <= p.params.capacity + p.cache_len(),
                    "order queue unbounded: {} > {} + {}",
                    p.order_len(), p.params.capacity, p.cache_len()
                );
            }
        }
    }
}
