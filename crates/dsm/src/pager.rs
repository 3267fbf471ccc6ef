//! The pager: a context's coherence servant.
//!
//! A sibling process sharing the app's page cache; it serves the
//! manager's downgrade/invalidate/surrender requests synchronously, the
//! way an MMU trap handler would shoot down a mapping.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rpc::{ErrorCode, RemoteError, RpcServer};
use simnet::Ctx;
use wire::Value;

use crate::{proto, Mode, PageId};

/// One locally mapped page.
#[derive(Debug, Clone)]
pub(crate) struct CachedPage {
    pub data: Vec<u8>,
    pub mode: Mode,
}

/// The page table shared between an app context and its pager.
pub(crate) type PageCache = Arc<Mutex<HashMap<PageId, CachedPage>>>;

fn page_arg(args: &Value) -> Result<PageId, RemoteError> {
    let n = args
        .get_u64("page")
        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
    Ok(PageId(u32::try_from(n).map_err(|_| {
        RemoteError::new(ErrorCode::BadArgs, "page id out of range")
    })?))
}

/// The pager process body: serves coherence traffic forever.
pub(crate) fn pager_body(ctx: &mut Ctx, cache: PageCache) {
    let mut rpc = RpcServer::new();
    while let Ok(msg) = ctx.recv() {
        rpc.handle(ctx, &msg, |_ctx, req| {
            let page = page_arg(&req.args)?;
            let mut table = cache.lock();
            match req.op.as_str() {
                proto::OP_DOWNGRADE => match table.get_mut(&page) {
                    Some(entry) => {
                        entry.mode = Mode::Read;
                        Ok(Value::blob(entry.data.clone()))
                    }
                    None => Err(RemoteError::new(
                        ErrorCode::NoSuchObject,
                        format!("{page} not mapped here"),
                    )),
                },
                proto::OP_INVALIDATE => {
                    // Idempotent: invalidating an unmapped page is fine
                    // (we may have dropped it voluntarily).
                    table.remove(&page);
                    Ok(Value::Null)
                }
                proto::OP_SURRENDER => match table.remove(&page) {
                    Some(entry) => Ok(Value::blob(entry.data)),
                    None => Err(RemoteError::new(
                        ErrorCode::NoSuchObject,
                        format!("{page} not mapped here"),
                    )),
                },
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc::{Channel, ChannelConfig};
    use simnet::{NetworkConfig, NodeId, Simulation};

    #[test]
    fn pager_serves_coherence_ops() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let cache: PageCache = Arc::new(Mutex::new(HashMap::new()));
        cache.lock().insert(
            PageId(3),
            CachedPage {
                data: vec![1, 2, 3],
                mode: Mode::Write,
            },
        );
        let c2 = Arc::clone(&cache);
        let pager = sim.spawn("pager", NodeId(0), move |ctx| pager_body(ctx, c2));
        let c3 = Arc::clone(&cache);
        sim.spawn("manager", NodeId(1), move |ctx| {
            let mut rpc = Channel::new("pager", pager, ChannelConfig::with_depth(1));
            // Downgrade returns the bytes and leaves a Read mapping.
            let v = rpc
                .call(
                    ctx,
                    proto::OP_DOWNGRADE,
                    Value::record([("page", Value::U64(3))]),
                )
                .unwrap();
            assert_eq!(v.as_blob().unwrap().as_ref(), &[1, 2, 3]);
            assert_eq!(c3.lock().get(&PageId(3)).unwrap().mode, Mode::Read);
            // Surrender removes it and returns the bytes.
            let v = rpc
                .call(
                    ctx,
                    proto::OP_SURRENDER,
                    Value::record([("page", Value::U64(3))]),
                )
                .unwrap();
            assert_eq!(v.as_blob().unwrap().as_ref(), &[1, 2, 3]);
            assert!(c3.lock().is_empty());
            // Invalidate is idempotent on unmapped pages.
            rpc.call(
                ctx,
                proto::OP_INVALIDATE,
                Value::record([("page", Value::U64(3))]),
            )
            .unwrap();
            // Surrendering an unmapped page is an error.
            let err = rpc
                .call(
                    ctx,
                    proto::OP_SURRENDER,
                    Value::record([("page", Value::U64(3))]),
                )
                .unwrap_err();
            assert!(
                matches!(err, rpc::RpcError::Remote(ref e) if e.code == ErrorCode::NoSuchObject)
            );
        });
        sim.run();
    }
}
