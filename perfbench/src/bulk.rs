//! The `bulk-wan` workload: a media catalog read across a WAN through
//! pass-by-reference proxies and region edge caches.
//!
//! Shape (the E19 bulk leg): an origin region holding the name server,
//! the catalog (`ProxySpec::Bulk` over a stub KV) and the blob store;
//! three client regions at E19's latencies, each with an edge cache
//! smaller than the working set. Readers use the blocking `SessionCore`
//! surface on thread-backed processes (the async surface is stub-only)
//! and read Zipf(1.1)-chosen assets of 8–64 KiB; a publisher re-puts
//! assets while they read, so spills, origin writes and edge
//! invalidations run beside the reads. The network loses nothing.
//!
//! Output check: every payload a reader receives must be byte-identical
//! to a version the publisher wrote for that asset — a torn or
//! mixed-chunk payload matches none. Reads older than the last completed
//! re-put are counted (`services.stale_reads`), not judged.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use proxy_core::{BulkParams, ProxySpec, ServiceBuilder, SessionCore};
use services::blob::{spawn_edge_cache, BlobStore};
use services::kv::KvStore;
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::common::{harvest, new_sim, Calls, Observe, Phases, Rep, Rng, Zipf};
use crate::span::Recorder;

/// The workload's shape.
#[derive(Debug, Clone)]
pub struct Shape {
    pub readers_per_region: usize,
    pub assets: usize,
    pub reads_per_reader: u32,
    /// Re-puts the publisher makes during the read phase.
    pub republishes: u32,
    /// Edge cache capacity in chunk entries (below the working set).
    pub edge_capacity: usize,
}

impl Shape {
    pub fn bulk_wan(small: bool) -> Shape {
        Shape {
            readers_per_region: if small { 2 } else { 6 },
            assets: if small { 12 } else { 48 },
            reads_per_reader: if small { 8 } else { 50 },
            republishes: if small { 4 } else { 24 },
            edge_capacity: if small { 16 } else { 64 },
        }
    }

    fn readers(&self) -> usize {
        REGIONS * self.readers_per_region
    }
}

/// Client regions (E19's three).
const REGIONS: usize = 3;
const PAYLOAD_MIN: usize = 8 * 1024;
const PAYLOAD_MAX: usize = 64 * 1024;
/// Virtual time between the publisher's re-puts.
const REPUBLISH_GAP: Duration = Duration::from_millis(40);
/// Virtual think time between a reader's gets.
const THINK: Duration = Duration::from_millis(2);

const NODE_NS: u32 = 0;
const NODE_CATALOG: u32 = 1;
const NODE_BLOB: u32 = 2;
const NODE_PUBLISHER: u32 = 3;
const FIRST_EDGE: u32 = 4;

/// Bulk contract: spill anything over 4 KiB in 16 KiB chunks.
fn bulk_params() -> BulkParams {
    BulkParams {
        store: "blob".into(),
        threshold: 4096,
        chunk: 16 * 1024,
        depth: 8,
    }
}

fn reader_node(shape: &Shape, r: usize, c: usize) -> NodeId {
    NodeId(FIRST_EDGE + REGIONS as u32 + (r * shape.readers_per_region + c) as u32)
}

/// Latency region of a node: 0 = origin, 1.. = client regions.
fn region_of(shape: &Shape, n: u32) -> usize {
    if n < FIRST_EDGE {
        0
    } else if n < FIRST_EDGE + REGIONS as u32 {
        (n - FIRST_EDGE) as usize + 1
    } else {
        (n - FIRST_EDGE - REGIONS as u32) as usize / shape.readers_per_region + 1
    }
}

/// E19's one-way latency matrix: 1 ms inside a region, 20/35/50 ms from
/// the origin to regions 1/2/3, wider between client regions.
fn region_latency(a: usize, b: usize) -> Duration {
    if a == b {
        return Duration::from_millis(1);
    }
    let (lo, hi) = (a.min(b), a.max(b));
    if lo == 0 {
        Duration::from_millis(20 + 15 * (hi as u64 - 1))
    } else {
        Duration::from_millis(25 + 10 * (lo as u64 + hi as u64))
    }
}

fn apply_latency_matrix(sim: &Simulation, shape: &Shape) {
    let n = FIRST_EDGE + REGIONS as u32 + shape.readers() as u32;
    let mut net = sim.net();
    for a in 0..n {
        for b in (a + 1)..n {
            let d = region_latency(region_of(shape, a), region_of(shape, b));
            net.set_link_latency(NodeId(a), NodeId(b), d);
        }
    }
}

/// Every version of every asset the publisher will write, generated from
/// the seed before the run. Each payload starts with its `(asset,
/// version)` and every byte depends on both, so a payload stitched from
/// two versions' chunks equals neither.
struct Catalog {
    versions: Vec<Vec<Bytes>>,
    /// The publisher's re-put schedule (asset per re-put).
    schedule: Vec<usize>,
}

impl Catalog {
    fn generate(shape: &Shape, seed: u64) -> Catalog {
        let mut rng = Rng::new(seed, 0xb10b);
        let schedule: Vec<usize> = (0..shape.republishes)
            .map(|_| rng.below(shape.assets as u64) as usize)
            .collect();
        let mut counts = vec![1u32; shape.assets];
        for &a in &schedule {
            counts[a] += 1;
        }
        let span = (PAYLOAD_MAX - PAYLOAD_MIN) as f64;
        let versions = counts
            .iter()
            .enumerate()
            .map(|(a, &n)| {
                (0..n)
                    .map(|v| {
                        let mut g = Rng::new(seed, ((a as u64) << 20) | u64::from(v));
                        // Sizes are spread evenly over the popularity
                        // ranks (golden-ratio stride) with a small seeded
                        // jitter, so the seed picks contents and access
                        // order but not whether the hottest asset is 8 or
                        // 64 KiB.
                        let stride = (a as f64 * 0.618_033_988_7).fract();
                        let frac = (stride + (g.unit() - 0.5) * 0.08).clamp(0.0, 1.0);
                        let len = PAYLOAD_MIN + (span * frac) as usize;
                        let mut buf = Vec::with_capacity(len);
                        buf.extend_from_slice(&(a as u32).to_le_bytes());
                        buf.extend_from_slice(&v.to_le_bytes());
                        while buf.len() < len {
                            buf.extend_from_slice(&g.next_u64().to_le_bytes());
                        }
                        buf.truncate(len);
                        Bytes::from(buf)
                    })
                    .collect()
            })
            .collect();
        Catalog { versions, schedule }
    }

    /// The version `payload` is, if it is exactly one of `asset`'s.
    fn identify(&self, asset: usize, payload: &[u8]) -> Option<u32> {
        let v = u32::from_le_bytes(payload.get(4..8)?.try_into().ok()?);
        let want = self.versions.get(asset)?.get(v as usize)?;
        (want.as_ref() == payload).then_some(v)
    }
}

/// Shared between the publisher and readers. Thread-backed processes run
/// one at a time under the scheduler baton, so reads of this state happen
/// at deterministic points of virtual time.
#[derive(Default)]
struct Shared {
    /// Latest version of each asset whose put has completed.
    published: Vec<u32>,
    /// The publisher has put a first version of every asset.
    ready: bool,
    calls: Calls,
    violations: Vec<String>,
    stale_reads: u64,
    gets: u64,
    /// Readers that ran to the end.
    finished: usize,
    bind_sim_ns: Vec<u64>,
}

type SharedRef = Arc<Mutex<Shared>>;

/// Binds `service` with retries: the name lookup crosses the WAN, longer
/// than the blocking bind's own 100 ms registration wait.
fn bind_service(
    core: &mut SessionCore,
    ctx: &mut Ctx,
    rec: &mut Recorder,
    shared: &SharedRef,
    service: &str,
) -> Option<proxy_core::ProxyHandle> {
    let t0 = ctx.now();
    for _ in 0..400 {
        let open = rec.open();
        let r = core.bind(ctx, service);
        rec.close(open, "core.bind_blocking", 0, 0);
        match r {
            Ok(h) => {
                let dt = ctx.now().as_nanos() - t0.as_nanos();
                shared
                    .lock()
                    .expect("a reader or the publisher panicked while holding the shared state")
                    .bind_sim_ns
                    .push(dt);
                return Some(h);
            }
            Err(_) => ctx.sleep(Duration::from_millis(5)).ok()?,
        }
    }
    None
}

/// Waits until the publisher has filled the catalog. The wait reads the
/// shared state at 10 ms steps of virtual time and sends nothing, so the
/// workload's calls are only the publisher's puts and the readers' gets.
fn catalog_ready(ctx: &mut Ctx, shared: &SharedRef) -> bool {
    for _ in 0..4000 {
        let ready = shared
            .lock()
            .expect("a reader or the publisher panicked while holding the shared state")
            .ready;
        if ready {
            return true;
        }
        if ctx.sleep(Duration::from_millis(10)).is_err() {
            return false;
        }
    }
    false
}

/// One blocking call, timed in virtual time and (traced) host time.
fn call(
    core: &mut SessionCore,
    ctx: &mut Ctx,
    rec: &mut Recorder,
    h: proxy_core::ProxyHandle,
    op: &str,
    args: Value,
    calls: &mut Calls,
) -> Option<Value> {
    calls.attempted += 1;
    let t0 = ctx.now();
    let open = rec.open();
    let r = core.invoke(ctx, h, op, args);
    rec.close(open, "core.invoke_blocking", 0, calls.attempted);
    calls.lat_ns.push(ctx.now().as_nanos() - t0.as_nanos());
    match r {
        Ok(v) => {
            calls.ok += 1;
            Some(v)
        }
        Err(_) => {
            calls.failed += 1;
            None
        }
    }
}

fn key(asset: usize) -> Value {
    Value::str(format!("asset-{asset}"))
}

#[allow(clippy::too_many_arguments)]
fn put_version(
    core: &mut SessionCore,
    ctx: &mut Ctx,
    rec: &mut Recorder,
    h: proxy_core::ProxyHandle,
    catalog: &Catalog,
    shared: &SharedRef,
    calls: &mut Calls,
    (asset, v): (usize, u32),
) {
    let data = catalog.versions[asset][v as usize].clone();
    let args = Value::record([("key", key(asset)), ("value", Value::Blob(data))]);
    if call(core, ctx, rec, h, "put", args, calls).is_some() {
        let mut s = shared
            .lock()
            .expect("a reader or the publisher panicked while holding the shared state");
        s.published[asset] = s.published[asset].max(v);
    }
}

fn publisher(
    ctx: &mut Ctx,
    ns: simnet::Endpoint,
    shape: &Shape,
    catalog: &Catalog,
    shared: &SharedRef,
    rec: &mut Recorder,
) {
    let mut core = SessionCore::new(ns);
    let Some(h) = bind_service(&mut core, ctx, rec, shared, "catalog") else {
        return;
    };
    let mut calls = Calls::default();
    for a in 0..shape.assets {
        put_version(&mut core, ctx, rec, h, catalog, shared, &mut calls, (a, 0));
    }
    shared
        .lock()
        .expect("a reader or the publisher panicked while holding the shared state")
        .ready = true;
    let mut next = vec![1u32; shape.assets];
    for &a in &catalog.schedule {
        if ctx.sleep(REPUBLISH_GAP).is_err() {
            break;
        }
        put_version(
            &mut core,
            ctx,
            rec,
            h,
            catalog,
            shared,
            &mut calls,
            (a, next[a]),
        );
        next[a] += 1;
    }
    shared
        .lock()
        .expect("a reader or the publisher panicked while holding the shared state")
        .calls
        .merge(calls);
}

#[allow(clippy::too_many_arguments)]
fn reader(
    ctx: &mut Ctx,
    ns: simnet::Endpoint,
    region: usize,
    id: usize,
    seed: u64,
    shape: &Shape,
    catalog: &Catalog,
    shared: &SharedRef,
    rec: &mut Recorder,
) {
    let mut core = SessionCore::new(ns);
    core.binder_mut()
        .set_bulk_route(Some(format!("edge{region}")));
    let mut calls = Calls::default();
    let (mut gets, mut stale) = (0u64, 0u64);
    let mut violations = Vec::new();
    // The region's edge cache registers over the WAN too: bind it before
    // the first read resolves a reference through it.
    let edge = format!("edge{region}");
    let bound = bind_service(&mut core, ctx, rec, shared, "catalog").filter(|_| {
        catalog_ready(ctx, shared) && bind_service(&mut core, ctx, rec, shared, &edge).is_some()
    });
    if let Some(h) = bound {
        let zipf = Zipf::new(shape.assets, 1.1);
        let mut rng = Rng::new(seed, 0x5eed_0000 + id as u64);
        for _ in 0..shape.reads_per_reader {
            let asset = zipf.sample(&mut rng);
            let floor = shared
                .lock()
                .expect("a reader or the publisher panicked while holding the shared state")
                .published[asset];
            let args = Value::record([("key", key(asset))]);
            if let Some(v) = call(&mut core, ctx, rec, h, "get", args, &mut calls) {
                gets += 1;
                match v.as_blob().map(|b| catalog.identify(asset, b)) {
                    Some(Some(ver)) => stale += u64::from(ver < floor),
                    _ if violations.len() < 4 => violations.push(format!(
                        "reader {id} asset {asset}: payload matches no published version \
                         ({} bytes)",
                        v.as_blob().map_or(0, |b| b.len())
                    )),
                    _ => {}
                }
            }
            if ctx.sleep(THINK).is_err() {
                break;
            }
        }
    } else {
        // Every read this reader would have made fails.
        calls.attempted += u64::from(shape.reads_per_reader);
        calls.failed += u64::from(shape.reads_per_reader);
    }
    let mut s = shared
        .lock()
        .expect("a reader or the publisher panicked while holding the shared state");
    s.calls.merge(calls);
    s.violations.extend(violations);
    s.gets += gets;
    s.stale_reads += stale;
    s.finished += 1;
}

/// Runs one repetition of `bulk-wan`.
pub fn run_rep(shape: &Shape, seed: u64, obs: &Observe) -> Rep {
    let mut rep = Rep::default();
    let catalog = Arc::new(Catalog::generate(shape, seed));
    let shared: SharedRef = Arc::new(Mutex::new(Shared {
        published: vec![0; shape.assets],
        ..Shared::default()
    }));

    let mut ph = Phases::start(obs);
    let mut sim = new_sim(NetworkConfig::wan(), seed, 1, 1, obs);
    apply_latency_matrix(&sim, shape);
    let ns = ph.spawn(|| naming::spawn_name_server(&sim, NodeId(NODE_NS)));
    ph.spawn(|| {
        ServiceBuilder::new("catalog")
            .spec(ProxySpec::Bulk {
                inner: Box::new(ProxySpec::Stub),
                params: bulk_params(),
            })
            .object(|| Box::new(KvStore::new()))
            .spawn(&sim, NodeId(NODE_CATALOG), ns)
    });
    ph.spawn(|| {
        ServiceBuilder::new("blob")
            .object(|| Box::new(BlobStore::new()))
            .spawn(&sim, NodeId(NODE_BLOB), ns)
    });
    for r in 0..REGIONS {
        ph.spawn(|| {
            spawn_edge_cache(
                &sim,
                NodeId(FIRST_EDGE + r as u32),
                ns,
                format!("edge{r}"),
                "blob",
                shape.edge_capacity,
            )
        });
    }
    {
        let (shape, catalog, shared) = (shape.clone(), Arc::clone(&catalog), Arc::clone(&shared));
        let mut rec = Recorder::new(obs.tracer.as_ref());
        ph.spawn(|| {
            sim.spawn("publisher", NodeId(NODE_PUBLISHER), move |ctx| {
                publisher(ctx, ns, &shape, &catalog, &shared, &mut rec);
            })
        });
    }
    for r in 0..REGIONS {
        for c in 0..shape.readers_per_region {
            let id = r * shape.readers_per_region + c;
            let (shape2, catalog, shared) =
                (shape.clone(), Arc::clone(&catalog), Arc::clone(&shared));
            let mut rec = Recorder::new(obs.tracer.as_ref());
            ph.spawn(|| {
                sim.spawn(format!("r{r}c{c}"), reader_node(shape, r, c), move |ctx| {
                    reader(ctx, ns, r, id, seed, &shape2, &catalog, &shared, &mut rec);
                })
            });
        }
    }
    let report = ph.run(&mut sim, &mut rep);
    harvest(&sim, obs, &mut rep);
    drop(sim);

    let mut s = shared
        .lock()
        .expect("a reader or the publisher panicked while holding the shared state");
    rep.calls = std::mem::take(&mut s.calls);
    rep.violations = std::mem::take(&mut s.violations);
    rep.bind_sim_ns = std::mem::take(&mut s.bind_sim_ns);
    if s.finished != shape.readers() {
        rep.violations.push(format!(
            "{} of {} readers finished",
            s.finished,
            shape.readers()
        ));
    }
    rep.extra
        .push(("services.stale_reads", s.stale_reads as f64));
    rep.extra.push(("bulk.gets", s.gets as f64));
    drop(s);
    rep.calls.lat_ns.sort_unstable();
    rep.bind_sim_ns.sort_unstable();
    rep.fingerprint = crate::common::fingerprint(&rep, &report);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_distinct_and_identifiable() {
        let shape = Shape::bulk_wan(true);
        let cat = Catalog::generate(&shape, 7);
        for (a, vs) in cat.versions.iter().enumerate() {
            for (v, p) in vs.iter().enumerate() {
                assert!((PAYLOAD_MIN..=PAYLOAD_MAX).contains(&p.len()));
                assert_eq!(cat.identify(a, p), Some(v as u32));
            }
        }
        // A payload spliced from two versions matches neither.
        let a = cat.schedule[0];
        let (v0, v1) = (&cat.versions[a][0], &cat.versions[a][1]);
        let n = v0.len().min(v1.len()) / 2;
        let mut mixed = v0[..n].to_vec();
        mixed.extend_from_slice(&v1[n..]);
        assert_eq!(cat.identify(a, &mixed), None);
    }
}
