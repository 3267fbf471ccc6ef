//! End-to-end tests of the out-of-band bulk data plane: pass-by-reference
//! proxies over the blob store, the two-level edge-cache hierarchy, and
//! chunked reassembly under network chaos.

#![recursion_limit = "256"]

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use naming::spawn_name_server;
use parking_lot::Mutex;
use proptest::prelude::*;
use proxy_core::bulk::BlobClient;
use proxy_core::{
    BulkParams, CachingParams, Coherence, ProxySpec, ServiceBuilder, Session, SessionCore,
};
use services::blob::{spawn_edge_cache, BlobStore};
use services::kv::KvStore;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// A bulk-enabled stub proxy spills a large put argument out-of-band and
/// resolves the reference on get — the client sees plain blobs on both
/// ends while the KV service only ever holds a fixed-size handle.
#[test]
fn stub_proxy_spills_and_resolves_through_blob_store() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Bulk {
            inner: Box::new(ProxySpec::Stub),
            params: BulkParams::default(),
        })
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(2), ns);
    sim.spawn("client", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let kv = s.bind("kv").unwrap();
        let data = payload(256 * 1024, 3);
        s.invoke(
            kv,
            "put",
            Value::record([
                ("key", Value::str("asset")),
                ("value", Value::blob(data.clone())),
            ]),
        )
        .unwrap();
        let got = s
            .invoke(kv, "get", Value::record([("key", Value::str("asset"))]))
            .unwrap();
        assert_eq!(got.as_blob().map(|b| b.as_ref()), Some(&data[..]));
        let stats = s.stats(kv);
        assert_eq!(stats.bulk_spills, 1, "large put must spill");
        assert_eq!(stats.bulk_resolves, 1, "get must resolve the ref");
        // Small values stay inline: no extra spill.
        s.invoke(
            kv,
            "put",
            Value::record([("key", Value::str("tiny")), ("value", Value::blob(vec![1]))]),
        )
        .unwrap();
        assert_eq!(s.stats(kv).bulk_spills, 1);
    });
    sim.run();
}

/// A bulk-enabled caching proxy resolves a reference once; the repeat
/// read is a pure local hit serving the already-resolved bytes.
#[test]
fn caching_proxy_caches_resolved_bulk_values() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 8);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Bulk {
            inner: Box::new(ProxySpec::Caching(CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 64,
            })),
            params: BulkParams::default(),
        })
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(2), ns);
    sim.spawn("client", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let kv = s.bind("kv").unwrap();
        let data = payload(64 * 1024, 9);
        s.invoke(
            kv,
            "put",
            Value::record([
                ("key", Value::str("a")),
                ("value", Value::blob(data.clone())),
            ]),
        )
        .unwrap();
        for _ in 0..3 {
            let got = s
                .invoke(kv, "get", Value::record([("key", Value::str("a"))]))
                .unwrap();
            assert_eq!(got.as_blob().map(|b| b.as_ref()), Some(&data[..]));
        }
        let stats = s.stats(kv);
        assert_eq!(stats.bulk_resolves, 1, "only the miss fetches out-of-band");
        assert_eq!(stats.local_hits, 2, "repeat reads are local");
    });
    sim.run();
}

/// Satellite 4: two-level hierarchy invalidation. A write at the origin
/// must never let the edge serve the stale blob once the invalidation is
/// delivered — the reader observes the writer's bytes through the edge.
/// The chaos leg (duplicates + reordering, which delay but never drop
/// delivery) asserts the same read-your-writes property.
fn hierarchy_invalidation(net: NetworkConfig, seed: u64) {
    let mut sim = Simulation::new(net, seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    spawn_edge_cache(&sim, NodeId(2), ns, "edge1", "blob", 64);
    let refs: Arc<Mutex<Vec<wire::BlobRef>>> = Arc::new(Mutex::new(Vec::new()));
    // Set once the reader has warmed the edge with version 1; the writer
    // holds version 2 until then, so the phases never race.
    let warmed = Arc::new(Mutex::new(false));
    let writer_refs = Arc::clone(&refs);
    let writer_warmed = Arc::clone(&warmed);
    sim.spawn("writer", NodeId(3), move |ctx| {
        let mut client = BlobClient::new("blob", ns, 4096, 4);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        ctx.sleep(Duration::from_millis(50)).unwrap();
        let r1 = client
            .put(ctx, "asset", &Bytes::from(payload(40_000, 1)), &mut strays)
            .unwrap();
        writer_refs.lock().push(r1);
        let mut patience = 3000;
        while !*writer_warmed.lock() {
            patience -= 1;
            assert!(patience > 0, "reader never warmed the edge");
            ctx.sleep(Duration::from_millis(10)).unwrap();
        }
        let r2 = client
            .put(ctx, "asset", &Bytes::from(payload(52_000, 2)), &mut strays)
            .unwrap();
        writer_refs.lock().push(r2);
    });
    let reader_refs = Arc::clone(&refs);
    sim.spawn("reader", NodeId(4), move |ctx| {
        let wait_for_ref = |ctx: &mut simnet::Ctx, n: usize| {
            let mut patience = 3000;
            loop {
                if let Some(r) = reader_refs.lock().get(n) {
                    break r.clone();
                }
                patience -= 1;
                assert!(patience > 0, "writer never published ref {n}");
                ctx.sleep(Duration::from_millis(10)).unwrap();
            }
        };
        let mut edge = BlobClient::new("edge1", ns, 4096, 4);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        // Warm the edge with the first version.
        let r1 = wait_for_ref(ctx, 0);
        let v1 = edge.get(ctx, &r1, &mut strays).unwrap();
        assert_eq!(v1.as_ref(), &payload(40_000, 1)[..]);
        // Cached repeat read, still version 1 (no write happened yet).
        let again = edge.get(ctx, &r1, &mut strays).unwrap();
        assert_eq!(again, v1);
        *warmed.lock() = true;
        // After the origin write + invalidation delivery, the edge must
        // serve version 2 — CRC verification in `get` would reject any
        // stale chunk it tried to serve.
        let r2 = wait_for_ref(ctx, 1);
        ctx.sleep(Duration::from_millis(100)).unwrap();
        let v2 = edge.get(ctx, &r2, &mut strays).unwrap();
        assert_eq!(v2.as_ref(), &payload(52_000, 2)[..]);
    });
    sim.run();
}

#[test]
fn edge_cache_honours_origin_invalidation() {
    hierarchy_invalidation(NetworkConfig::wan(), 21);
}

#[test]
fn edge_cache_honours_origin_invalidation_under_chaos() {
    hierarchy_invalidation(
        NetworkConfig::wan()
            .with_duplicate(0.10)
            .with_reorder_window(Duration::from_millis(2)),
        22,
    );
}

/// Satellite 3 (reassembly half; `Value::Ref` codec round-trips live in
/// the wire crate's proptests): chunked put/get reassembles the exact
/// payload under loss, reordering, and duplicate delivery. Duplicated
/// chunk retransmits must be absorbed by the server's dedup window, and
/// CRC verification must accept the reassembled bytes.
fn reassembly_case(len: usize, seed: u64, loss: f64, dup: f64) -> bool {
    let net = NetworkConfig::lan()
        .with_loss(loss)
        .with_duplicate(dup)
        .with_reorder_window(Duration::from_micros(800));
    let mut sim = Simulation::new(net, seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    let ok = Arc::new(Mutex::new(false));
    let done = Arc::clone(&ok);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut client = BlobClient::new("blob", ns, 16 * 1024, 6);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        ctx.sleep(Duration::from_millis(20)).unwrap();
        let data = Bytes::from(payload(len, seed as u8));
        let r = client.put(ctx, "k", &data, &mut strays).unwrap();
        assert_eq!(r.len, len as u64);
        let back = client.get(ctx, &r, &mut strays).unwrap();
        assert_eq!(back, data);
        *done.lock() = true;
    });
    sim.run();
    let completed = *ok.lock();
    completed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn chunked_reassembly_survives_chaos(
        len in 0usize..150_000,
        seed in 0u64..1000,
        loss in 0.0f64..0.08,
        dup in 0.0f64..0.08,
    ) {
        prop_assert!(
            reassembly_case(len, seed, loss, dup),
            "client did not complete"
        );
    }
}
