//! Tests of the client runtime's notification routing: one-way traffic
//! for proxy A arriving while proxy B is mid-call must reach A, never
//! be lost, and never corrupt B's call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    CachingParams, Coherence, InterfaceDesc, OpDesc, ProxySpec, ServiceBuilder, ServiceObject,
    SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

/// KV whose reads can be made artificially slow, to hold a call open
/// while other traffic arrives.
struct SlowKv {
    map: BTreeMap<String, String>,
    read_delay: Duration,
}

impl ServiceObject for SlowKv {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "slow-kv",
            [OpDesc::read("get", "key"), OpDesc::write("put", "key")],
        )
    }
    fn dispatch(&mut self, ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        let key = args
            .get_str("key")
            .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
        match op {
            "get" => {
                if !self.read_delay.is_zero() {
                    let _ = ctx.sleep(self.read_delay);
                }
                Ok(self
                    .map
                    .get(key)
                    .map(|v| Value::str(v.clone()))
                    .unwrap_or(Value::Null))
            }
            "put" => {
                let v = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.map.insert(key.to_owned(), v.to_owned());
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

#[test]
fn invalidation_for_proxy_a_arriving_during_call_to_b_is_routed() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 10);
    let ns = spawn_name_server(&sim, NodeId(0));
    let caching = ProxySpec::Caching(CachingParams {
        coherence: Coherence::Invalidate,
        capacity: 64,
    });
    // Service A: fast kv, invalidation-coherent caching.
    ServiceBuilder::new("svc-a")
        .spec(caching.clone())
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::ZERO,
            })
        })
        .spawn(&sim, NodeId(1), ns);
    // Service B: reads take 30ms, holding the observer's call open.
    ServiceBuilder::new("svc-b")
        .spec(caching)
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::from_millis(30),
            })
        })
        .spawn(&sim, NodeId(2), ns);

    let observed = Arc::new(AtomicU64::new(0));
    let o2 = Arc::clone(&observed);
    sim.spawn("observer", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        let b = rt.bind(ctx, "svc-b").unwrap();
        // Prime A's cache.
        rt.invoke(ctx, a, "put", kv("x", "old")).unwrap();
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("old")
        );
        // Long call to B (its RetryPolicy default timeout is 10ms, so
        // raise nothing: the call itself just takes 30ms of server time
        // — the stub retransmits and dedup suppresses; the reply
        // eventually arrives). During that window, the writer updates
        // A's key and the invalidation lands in OUR mailbox while we
        // wait on B. The runtime must hand it to proxy A.
        let _ = rt.invoke(ctx, b, "get", key("anything")).unwrap();
        // No sleeps: immediately read A again. If the invalidation was
        // lost, the stale cached "old" comes back.
        let v = rt.invoke(ctx, a, "get", key("x")).unwrap();
        assert_eq!(v, Value::str("new"), "invalidation was lost in transit");
        assert!(rt.stats(a).invalidations_rx >= 1);
        o2.store(1, Ordering::SeqCst);
    });
    sim.spawn("writer", NodeId(4), move |ctx| {
        // Fire while the observer is blocked on B (B's read takes 30ms
        // and starts ~6ms in; write at 15ms lands inside the window).
        ctx.sleep(Duration::from_millis(15)).unwrap();
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "new")).unwrap();
    });
    sim.run();
    assert_eq!(observed.load(Ordering::SeqCst), 1);
}

#[test]
fn pump_routes_notifications_while_idle() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 11);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("svc-a")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::ZERO,
            })
        })
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("observer", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "old")).unwrap();
        rt.invoke(ctx, a, "get", key("x")).unwrap(); // cached
                                                     // Go idle; a writer invalidates; pump (not invoke) processes it.
        ctx.sleep(Duration::from_millis(30)).unwrap();
        rt.pump(ctx);
        assert_eq!(rt.stats(a).invalidations_rx, 1, "pump did not route");
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("new")
        );
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(10)).unwrap();
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "new")).unwrap();
    });
    sim.run();
}

fn kv(k: &str, v: &str) -> Value {
    Value::record([("key", Value::str(k)), ("value", Value::str(v))])
}

fn key(k: &str) -> Value {
    Value::record([("key", Value::str(k))])
}
