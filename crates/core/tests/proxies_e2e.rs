//! End-to-end tests of the proxy zoo: every strategy exercised over the
//! simulated network, through the real binding protocol.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    AdaptiveParams, CachingParams, Coherence, DiscardStrays, FactoryRegistry, InterfaceDesc,
    OpDesc, Proxy, ProxySpec, ServiceBuilder, ServiceObject, SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

/// A key-value object used by most tests.
#[derive(Debug, Default)]
struct Kv {
    map: BTreeMap<String, String>,
    /// Counts real dispatches, shared with the test for assertions.
    dispatches: Option<Arc<AtomicU64>>,
}

impl Kv {
    fn iface() -> InterfaceDesc {
        InterfaceDesc::new(
            "kv",
            [
                OpDesc::read("get", "key"),
                OpDesc::write("put", "key"),
                OpDesc::read_whole("len"),
            ],
        )
    }

    fn with_counter(c: Arc<AtomicU64>) -> Kv {
        Kv {
            map: BTreeMap::new(),
            dispatches: Some(c),
        }
    }

    fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let mut kv = Kv::default();
        if let Some(fields) = v.as_record() {
            for (k, val) in fields {
                if let Some(s) = val.as_str() {
                    kv.map.insert(k.to_string_owned(), s.to_owned());
                }
            }
        }
        Ok(Box::new(kv))
    }
}

impl ServiceObject for Kv {
    fn interface(&self) -> InterfaceDesc {
        Kv::iface()
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        if let Some(c) = &self.dispatches {
            c.fetch_add(1, Ordering::SeqCst);
        }
        match op {
            "get" => {
                let key = args
                    .get_str("key")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                Ok(self
                    .map
                    .get(key)
                    .map(|v| Value::str(v.clone()))
                    .unwrap_or(Value::Null))
            }
            "put" => {
                let key = args
                    .get_str("key")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                let value = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.map.insert(key.to_owned(), value.to_owned());
                Ok(Value::Null)
            }
            "len" => Ok(Value::U64(self.map.len() as u64)),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(
            self.map
                .iter()
                .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
        ))
    }
}

fn get_args(key: &str) -> Value {
    Value::record([("key", Value::str(key))])
}

fn put_args(key: &str, value: &str) -> Value {
    Value::record([("key", Value::str(key)), ("value", Value::str(value))])
}

#[test]
fn stub_proxy_forwards_everything() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..5 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        let s = rt.stats(kv);
        assert_eq!(s.invocations, 6);
        assert_eq!(s.remote_calls, 6, "stub never answers locally");
        assert_eq!(s.local_hits, 0);
    });
    sim.run();
}

#[test]
fn caching_proxy_hits_after_first_read() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    let dispatches = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&dispatches);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(move || Box::new(Kv::with_counter(d)))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..10 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        let s = rt.stats(kv);
        assert_eq!(s.local_hits, 9, "all but the first read are cache hits");
        assert_eq!(s.remote_calls, 2, "one put + one fill");
    });
    sim.run();
    assert_eq!(dispatches.load(Ordering::SeqCst), 2);
}

#[test]
fn caching_proxy_reads_own_writes() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams::default()))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("1")
        );
        // The write must drop the cached read so this sees the new value.
        rt.invoke(ctx, kv, "put", put_args("a", "2")).unwrap();
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("2"),
            "stale cached value returned after own write"
        );
    });
    sim.run();
}

#[test]
fn invalidations_propagate_between_clients() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    let reader_saw = Arc::new(AtomicU64::new(0));
    let rs = Arc::clone(&reader_saw);
    // Reader caches "a", then waits; writer updates "a"; reader must see
    // the new value after the invalidation arrives.
    sim.spawn("reader", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "old")).unwrap();
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("old")
        );
        // Wait long enough for the writer (starts at 20ms) to write and
        // the invalidation to arrive.
        ctx.sleep(Duration::from_millis(50)).unwrap();
        let v = rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        assert_eq!(v, Value::str("new"), "stale read after invalidation");
        let s = rt.stats(kv);
        assert!(s.invalidations_rx >= 1, "invalidation was not processed");
        rs.store(1, Ordering::SeqCst);
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(20)).unwrap();
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "new")).unwrap();
    });
    sim.run();
    assert_eq!(reader_saw.load(Ordering::SeqCst), 1);
}

#[test]
fn lease_coherence_expires_entries() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    let dispatches = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&dispatches);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Lease(Duration::from_millis(5)),
            capacity: 64,
        }))
        .object(move || Box::new(Kv::with_counter(d)))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        // Fill, then hit within the lease.
        rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        assert_eq!(rt.stats(kv).local_hits, 1);
        // After the lease expires the next read must refetch.
        ctx.sleep(Duration::from_millis(6)).unwrap();
        rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        assert_eq!(rt.stats(kv).local_hits, 1, "expired entry served");
        assert_eq!(rt.stats(kv).remote_calls, 3);
    });
    sim.run();
}

#[test]
fn cache_capacity_is_bounded() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 6);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 4,
        }))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        for i in 0..16 {
            let k = format!("k{i}");
            rt.invoke(ctx, kv, "put", put_args(&k, "v")).unwrap();
            rt.invoke(ctx, kv, "get", get_args(&k)).unwrap();
        }
        // Only the 4 most recent entries can be hits.
        let mut hits = 0;
        for i in 0..16 {
            let before = rt.stats(kv).local_hits;
            rt.invoke(ctx, kv, "get", get_args(&format!("k{i}")))
                .unwrap();
            if rt.stats(kv).local_hits > before {
                hits += 1;
            }
        }
        assert!(hits <= 4, "cache held more than its capacity: {hits}");
    });
    sim.run();
}

#[test]
fn migratory_proxy_localizes_after_threshold() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = FactoryRegistry::new().register("kv", Kv::from_snapshot);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Migratory { threshold: 5 })
        .factories(factories.clone())
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..20 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        let s = rt.stats(kv);
        assert_eq!(s.migrations, 1, "object should have been checked out");
        assert!(
            s.local_hits >= 15,
            "post-migration calls must be local: {s:?}"
        );
        // State written before migration survived the move.
        assert_eq!(
            rt.invoke(ctx, kv, "len", Value::Null).unwrap(),
            Value::U64(1)
        );
    });
    sim.run();
}

#[test]
fn migratory_object_recalled_for_second_client() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 8);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = FactoryRegistry::new().register("kv", Kv::from_snapshot);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Migratory { threshold: 2 })
        .factories(factories.clone())
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    let b_done = Arc::new(AtomicU64::new(0));
    let bd = Arc::clone(&b_done);

    let fa = factories.clone();
    sim.spawn("client-a", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(fa);
        let kv = rt.bind(ctx, "kv").unwrap();
        // Trigger migration to A.
        rt.invoke(ctx, kv, "put", put_args("a", "from-a")).unwrap();
        for _ in 0..5 {
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        }
        assert_eq!(rt.stats(kv).migrations, 1);
        // Keep invoking slowly; the recall arrives during this window and
        // must be honoured (checkin) so client B can proceed. Once B has
        // the object checked out, our own calls may bounce Unavailable —
        // that is the protocol working, so retry.
        for _ in 0..40 {
            ctx.sleep(Duration::from_millis(2)).unwrap();
            match rt.invoke(ctx, kv, "get", get_args("a")) {
                Ok(v) => assert_eq!(v, Value::str("from-a")),
                Err(rpc::RpcError::Remote(ref e)) if e.code == ErrorCode::Unavailable => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rt.stats(kv).checkins >= 1, "recall was never honoured");
    });
    let fb = factories;
    sim.spawn("client-b", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(30)).unwrap();
        let mut rt = SessionCore::new(ns).with_factories(fb);
        let kv = rt.bind(ctx, "kv").unwrap();
        // The object is checked out to A; our calls bounce with
        // Unavailable until A checks in. Retry with backoff.
        let mut value = None;
        for _ in 0..100 {
            match rt.invoke(ctx, kv, "get", get_args("a")) {
                Ok(v) => {
                    value = Some(v);
                    break;
                }
                Err(rpc::RpcError::Remote(ref e)) if e.code == ErrorCode::Unavailable => {
                    ctx.sleep(Duration::from_millis(3)).unwrap();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(value, Some(Value::str("from-a")), "state lost in transfer");
        bd.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(b_done.load(Ordering::SeqCst), 1);
}

#[test]
fn adaptive_proxy_switches_with_workload() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 9);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Adaptive(AdaptiveParams {
            window: 20,
            enable_at: 0.8,
            disable_at: 0.4,
            caching: CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 64,
            },
        }))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();

        // Phase 1: read-heavy — caching should engage and produce hits.
        for _ in 0..60 {
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        }
        let after_reads = rt.stats(kv);
        assert!(after_reads.strategy_switches >= 1, "never enabled caching");
        assert!(after_reads.local_hits > 20, "caching produced no hits");

        // Phase 2: write-heavy — caching should disengage.
        for i in 0..60 {
            rt.invoke(ctx, kv, "put", put_args("a", &format!("v{i}")))
                .unwrap();
        }
        let after_writes = rt.stats(kv);
        assert!(
            after_writes.strategy_switches >= 2,
            "never disabled caching: {after_writes:?}"
        );
        // Correctness throughout: final read sees last write.
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("v59")
        );
    });
    sim.run();
}

#[test]
fn service_switches_spec_without_client_change() {
    // The encapsulation claim: the same client code works when the
    // service changes its published proxy from stub to caching.
    fn client_workload(rt: &mut SessionCore, ctx: &mut Ctx) -> u64 {
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..20 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        rt.stats(kv).remote_calls
    }

    let mut remote_calls = Vec::new();
    for (seed, spec) in [
        (10u64, ProxySpec::Stub),
        (
            11,
            ProxySpec::Caching(CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 64,
            }),
        ),
    ] {
        let mut sim = Simulation::new(NetworkConfig::lan(), seed);
        let ns = spawn_name_server(&sim, NodeId(0));
        ServiceBuilder::new("kv")
            .spec(spec)
            .object(|| Box::new(Kv::default()))
            .spawn(&sim, NodeId(1), ns);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        sim.spawn("client", NodeId(2), move |ctx| {
            let mut rt = SessionCore::new(ns);
            c.store(client_workload(&mut rt, ctx), Ordering::SeqCst);
        });
        sim.run();
        remote_calls.push(calls.load(Ordering::SeqCst));
    }
    assert_eq!(remote_calls[0], 21, "stub: every call remote");
    assert_eq!(remote_calls[1], 2, "caching: put + one fill");
}

#[test]
fn custom_proxy_kind_via_factory() {
    use proxy_core::{OnewaySink, Proxy, ProxyStats};

    /// A trivial custom proxy that counts invocations and forwards via a
    /// nested stub.
    struct CountingProxy {
        inner: proxy_core::proxies::StubProxy,
        count: Arc<AtomicU64>,
    }
    impl Proxy for CountingProxy {
        fn service(&self) -> &str {
            self.inner.service()
        }
        fn invoke(
            &mut self,
            ctx: &mut Ctx,
            op: &str,
            args: Value,
            strays: &mut dyn OnewaySink,
        ) -> Result<Value, rpc::RpcError> {
            self.count.fetch_add(1, Ordering::SeqCst);
            self.inner.invoke(ctx, op, args, strays)
        }
        fn stats(&self) -> ProxyStats {
            self.inner.stats()
        }
    }

    let mut sim = Simulation::new(NetworkConfig::lan(), 12);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Custom {
            kind: "counting".into(),
            params: Value::Null,
        })
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let c2 = Arc::clone(&c);
        rt.binder_mut().register_proxy("counting", move |_ctx, bc| {
            Ok(Box::new(CountingProxy {
                inner: proxy_core::proxies::StubProxy::new(bc.service, bc.record.endpoint, bc.ns),
                count: Arc::clone(&c2),
            }))
        });
        let kv = rt.bind(ctx, "kv").unwrap();
        for _ in 0..7 {
            rt.invoke(ctx, kv, "len", Value::Null).unwrap();
        }
    });
    sim.run();
    assert_eq!(count.load(Ordering::SeqCst), 7);
}

#[test]
fn unknown_custom_kind_fails_bind() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 13);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Custom {
            kind: "alien".into(),
            params: Value::Null,
        })
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let err = rt.bind(ctx, "kv").unwrap_err();
        match err {
            rpc::RpcError::Remote(e) => assert_eq!(e.code, ErrorCode::Unavailable),
            other => panic!("unexpected error {other:?}"),
        }
    });
    sim.run();
}

#[test]
fn stub_invoke_many_pipelines_calls() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 21);
    let ns = spawn_name_server(&sim, NodeId(0));
    let dispatches = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&dispatches);
    let server = ServiceBuilder::new("kv")
        .object(move || Box::new(Kv::with_counter(Arc::clone(&d))))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut stub = proxy_core::proxies::StubProxy::new("kv", server, ns);
        let cfg = rpc::ChannelConfig::with_depth(8).batched(4);
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();

        let puts: Vec<(&str, Value)> = keys
            .iter()
            .map(|k| ("put", put_args(k, &format!("v-{k}"))))
            .collect();
        let results = stub
            .invoke_many(ctx, &puts, cfg.clone(), &mut DiscardStrays)
            .unwrap();
        assert_eq!(results.len(), 8);
        for r in &results {
            assert_eq!(*r.as_ref().unwrap(), Value::Null);
        }

        // A second pipelined round reads everything back: results come
        // out in call order even though the wire work overlapped.
        let gets: Vec<(&str, Value)> = keys.iter().map(|k| ("get", get_args(k))).collect();
        let results = stub
            .invoke_many(ctx, &gets, cfg, &mut DiscardStrays)
            .unwrap();
        for (k, r) in keys.iter().zip(&results) {
            assert_eq!(*r.as_ref().unwrap(), Value::str(format!("v-{k}")));
        }

        let s = stub.stats();
        assert_eq!(s.invocations, 16);
        assert_eq!(s.remote_calls, 16);
    });
    sim.run();
    assert_eq!(
        dispatches.load(Ordering::SeqCst),
        16,
        "each pipelined call dispatched exactly once"
    );
}

#[test]
fn caching_write_behind_reads_own_writes_and_drains_on_detach() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 22);
    let ns = spawn_name_server(&sim, NodeId(0));
    let dispatches = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&dispatches);
    let server = ServiceBuilder::new("kv")
        .object(move || Box::new(Kv::with_counter(Arc::clone(&d))))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut p = proxy_core::proxies::CachingProxy::bind(
            ctx,
            "kv",
            server,
            ns,
            Kv::iface(),
            CachingParams::default(),
        )
        .unwrap();
        p.enable_write_behind(rpc::ChannelConfig::with_depth(8).batched(4));

        // Staged writes return immediately: six puts cost less wall
        // clock than a single one-way network hop (500us on this LAN).
        let t0 = ctx.now();
        for i in 0..6 {
            let r = p
                .invoke(
                    ctx,
                    "put",
                    put_args(&format!("k{i}"), &format!("v{i}")),
                    &mut DiscardStrays,
                )
                .unwrap();
            assert_eq!(r, Value::Null, "write-behind acks locally");
        }
        assert!(
            ctx.now() - t0 < Duration::from_micros(500),
            "write-behind puts must not block on round trips"
        );

        // A read miss flushes the pipeline first, so the client reads
        // its own (still-in-flight) writes.
        let v = p
            .invoke(ctx, "get", get_args("k3"), &mut DiscardStrays)
            .unwrap();
        assert_eq!(v, Value::str("v3"));

        // More writes, then detach: detach is the durability point.
        for i in 6..9 {
            p.invoke(
                ctx,
                "put",
                put_args(&format!("k{i}"), &format!("v{i}")),
                &mut DiscardStrays,
            )
            .unwrap();
        }
        p.detach(ctx);

        // A plain stub sees every write on the server.
        let mut stub = proxy_core::proxies::StubProxy::new("kv", server, ns);
        for i in 0..9 {
            let v = stub
                .invoke(ctx, "get", get_args(&format!("k{i}")), &mut DiscardStrays)
                .unwrap();
            assert_eq!(v, Value::str(format!("v{i}")), "k{i} durable after detach");
        }
    });
    sim.run();
    // 9 puts + 1 caching-proxy get + 9 stub gets, each exactly once.
    assert_eq!(dispatches.load(Ordering::SeqCst), 19);
}
