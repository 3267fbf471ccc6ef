//! E11 — Failure transparency: crash recovery behind the proxy.
//!
//! An extension experiment (the SOS system the paper came from treated
//! objects as persistent). A checkpointing service is killed mid-
//! workload and restarted from its node's stable storage; the client —
//! same proxy, no special code — rides through the outage via the
//! binding protocol's re-resolution path.
//!
//! We sweep the checkpoint interval and report the durability cost
//! (writes lost at the crash) against the runtime cost (checkpoints
//! written). Expected shape: lost writes are bounded by the interval;
//! checkpoint count scales inversely with it; the client always
//! reconverges with exactly one rebind.

use std::collections::BTreeMap;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    CheckpointPolicy, InterfaceDesc, OpDesc, ProxySpec, ServiceBuilder, ServiceObject,
    ServiceServer, SessionCore, StableStore,
};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{check, obs_report, slot, take, ExperimentOutput, ObsReport, Table};

const WRITES_BEFORE_CRASH: u64 = 23;

#[derive(Debug, Default)]
struct Ledger(BTreeMap<String, String>);

impl Ledger {
    fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let mut l = Ledger::default();
        if let Some(fields) = v.as_record() {
            for (k, val) in fields {
                if let Some(s) = val.as_str() {
                    l.0.insert(k.to_string_owned(), s.to_owned());
                }
            }
        }
        Ok(Box::new(l))
    }
}

impl ServiceObject for Ledger {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "ledger",
            [OpDesc::read("get", "key"), OpDesc::write("put", "key")],
        )
    }
    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        let key = args
            .get_str("key")
            .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
        match op {
            "get" => Ok(self
                .0
                .get(key)
                .map(|v| Value::str(v.clone()))
                .unwrap_or(Value::Null)),
            "put" => {
                let v = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.0.insert(key.to_owned(), v.to_owned());
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
        ))
    }
}

fn factories() -> proxy_core::FactoryRegistry {
    proxy_core::FactoryRegistry::new().register("ledger", Ledger::from_snapshot)
}

#[derive(Debug, Clone, Copy)]
struct Point {
    lost_writes: u64,
    rebinds: u64,
    outage_us: f64,
}

fn measure(interval: u64, seed: u64) -> (Point, ObsReport) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    let incarnation = ServiceBuilder::new("ledger")
        .factories(factories())
        .recovered(CheckpointPolicy::every(store.clone(), interval))
        .object(|| Box::<Ledger>::default())
        .spawn(&sim, NodeId(1), ns);
    let (w, r) = slot::<Point>();
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let h = rt.bind(ctx, "ledger").unwrap();
        for i in 0..WRITES_BEFORE_CRASH {
            rt.invoke(
                ctx,
                h,
                "put",
                Value::record([
                    ("key", Value::str(format!("k{i}"))),
                    ("value", Value::str("v")),
                ]),
            )
            .unwrap();
        }

        // Crash & restart from the checkpoint.
        assert!(ctx.kill(incarnation));
        let t_down = ctx.now();
        let f = factories();
        let policy = CheckpointPolicy::every(store.clone(), interval);
        ctx.spawn("ledger-reborn", NodeId(1), move |sctx| {
            let default: Box<dyn ServiceObject> = Box::new(Ledger::default());
            let object = match policy.store.load(sctx.node(), "ledger") {
                Some(snapshot) => f.create("ledger", &snapshot).unwrap_or(default),
                None => default,
            };
            ServiceServer::new("ledger", object, ProxySpec::Stub)
                .with_factories(f)
                .with_checkpointing(policy)
                .run(sctx, ns);
        });
        ctx.sleep(Duration::from_millis(5)).unwrap();

        // First call after the crash rides through the rebind path.
        let before = rt.stats(h).rebinds;
        let mut lost = 0u64;
        for i in 0..WRITES_BEFORE_CRASH {
            let v = match rt.invoke(
                ctx,
                h,
                "get",
                Value::record([("key", Value::str(format!("k{i}")))]),
            ) {
                Ok(v) => v,
                Err(RpcError::Timeout { .. }) => {
                    // One extra settle round if the re-registration raced.
                    ctx.sleep(Duration::from_millis(5)).unwrap();
                    rt.invoke(
                        ctx,
                        h,
                        "get",
                        Value::record([("key", Value::str(format!("k{i}")))]),
                    )
                    .unwrap()
                }
                Err(e) => panic!("unexpected: {e}"),
            };
            if v == Value::Null {
                lost += 1;
            }
        }
        let outage_us = (ctx.now() - t_down).as_secs_f64() * 1e6;
        *w.lock().unwrap() = Some(Point {
            lost_writes: lost,
            rebinds: rt.stats(h).rebinds - before,
            outage_us,
        });
    });
    sim.run();
    (
        take(r),
        obs_report(format!("checkpoint-every-{interval}"), &sim),
    )
}

/// Runs E11 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let intervals = [1u64, 2, 5, 10, 25];
    let mut table = Table::new(
        format!(
            "crash after {WRITES_BEFORE_CRASH} writes, restart from checkpoint — interval sweep"
        ),
        &[
            "checkpoint every",
            "writes lost",
            "client rebinds",
            "time to reconverge us",
        ],
    );
    let mut pts = Vec::new();
    let mut reports = Vec::new();
    for (i, &n) in intervals.iter().enumerate() {
        let (p, obs) = measure(n, 130 + i as u64);
        if n == 5 {
            reports.push(obs);
        }
        table.add_row(vec![
            format!("{n} writes"),
            p.lost_writes.to_string(),
            p.rebinds.to_string(),
            format!("{:.0}", p.outage_us),
        ]);
        pts.push((n, p));
    }

    let checks = vec![
        check(
            "lost writes are bounded by the checkpoint interval",
            pts.iter().all(|(n, p)| p.lost_writes < *n),
            format!(
                "lost by interval: {:?}",
                pts.iter()
                    .map(|(n, p)| (*n, p.lost_writes))
                    .collect::<Vec<_>>()
            ),
        ),
        check(
            "checkpoint-every-write loses nothing",
            pts[0].1.lost_writes == 0,
            format!("interval 1: {} lost", pts[0].1.lost_writes),
        ),
        check(
            "durability degrades monotonically with the interval",
            pts.windows(2)
                .all(|w| w[1].1.lost_writes >= w[0].1.lost_writes),
            "lost writes non-decreasing in interval".to_string(),
        ),
        check(
            "the client reconverges with at most one rebind",
            pts.iter().all(|(_, p)| p.rebinds <= 1),
            format!(
                "rebinds: {:?}",
                pts.iter().map(|(_, p)| p.rebinds).collect::<Vec<_>>()
            ),
        ),
    ];

    ExperimentOutput {
        id: "E11",
        title: "Failure transparency: crash recovery behind an unchanged proxy (extension)",
        tables: vec![table],
        checks,
        reports,
        traces: vec![],
    }
}
