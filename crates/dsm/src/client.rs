//! The app-side DSM handle: map-on-fault reads and writes.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rpc::{endpoint_to_value, Channel, ChannelConfig, RpcError};
use simnet::{Ctx, Endpoint};
use wire::Value;

use crate::pager::{pager_body, CachedPage, PageCache};
use crate::{proto, Mode, PageId};

/// Error from a DSM access.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmError {
    /// The coherence protocol failed (manager unreachable, transfer
    /// refused).
    Rpc(RpcError),
    /// Offset/length fall outside the page.
    OutOfBounds {
        /// The page size.
        page_size: usize,
        /// The requested end offset.
        end: usize,
    },
}

impl std::fmt::Display for DsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsmError::Rpc(e) => write!(f, "dsm protocol error: {e}"),
            DsmError::OutOfBounds { page_size, end } => {
                write!(f, "access to byte {end} exceeds page size {page_size}")
            }
        }
    }
}

impl std::error::Error for DsmError {}

impl From<RpcError> for DsmError {
    fn from(e: RpcError) -> DsmError {
        DsmError::Rpc(e)
    }
}

/// Access counters for one DSM client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Reads satisfied by an existing mapping (no messages).
    pub read_hits: u64,
    /// Reads that faulted and fetched a mapping.
    pub read_faults: u64,
    /// Writes satisfied by an existing exclusive mapping (no messages).
    pub write_hits: u64,
    /// Writes that faulted and acquired exclusivity.
    pub write_faults: u64,
}

/// A context's handle onto the shared address space.
///
/// Created with [`DsmClient::attach`], which also spawns the context's
/// pager. Reads and writes hit the local page table when the page is
/// mapped appropriately and fault to the manager otherwise — after
/// which they are pure local memory operations until another context
/// forces a demotion.
#[derive(Debug)]
pub struct DsmClient {
    manager: Channel,
    pager: Endpoint,
    cache: PageCache,
    page_size: usize,
    /// Access counters.
    pub stats: DsmStats,
}

impl DsmClient {
    /// Attaches this context to the shared memory managed at `manager`,
    /// spawning the pager sibling process. The page size is negotiated
    /// from the first fetched page.
    pub fn attach(ctx: &mut Ctx, manager: Endpoint) -> DsmClient {
        let cache: PageCache = Arc::new(Mutex::new(HashMap::new()));
        let pager_cache = Arc::clone(&cache);
        let pager = ctx.spawn("pager", ctx.node(), move |pctx| {
            pager_body(pctx, pager_cache)
        });
        DsmClient {
            manager: Channel::new("dsm", manager, ChannelConfig::with_depth(1)),
            pager,
            cache,
            page_size: 0, // learned on first fault
            stats: DsmStats::default(),
        }
    }

    /// The pager endpoint (the identity the manager knows us by).
    pub fn pager(&self) -> Endpoint {
        self.pager
    }

    fn fault(&mut self, ctx: &mut Ctx, page: PageId, exclusive: bool) -> Result<(), DsmError> {
        let op = if exclusive {
            proto::OP_FETCH_RW
        } else {
            proto::OP_FETCH_RO
        };
        let reply = self.manager.call(
            ctx,
            op,
            Value::record([
                ("page", Value::U64(page.0.into())),
                ("pager", endpoint_to_value(self.pager)),
            ]),
        );
        self.manager.discard_strays(ctx);
        let reply = reply?;
        let mut table = self.cache.lock();
        match reply.as_blob() {
            Some(bytes) => {
                self.page_size = self.page_size.max(bytes.len());
                table.insert(
                    page,
                    CachedPage {
                        data: bytes.to_vec(),
                        mode: if exclusive { Mode::Write } else { Mode::Read },
                    },
                );
            }
            None => {
                // Null reply to fetch_rw: we already owned it (duplicate
                // grant); upgrade the local mode if needed.
                if let Some(entry) = table.get_mut(&page) {
                    entry.mode = Mode::Write;
                }
            }
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` within `page`, mapping it on demand.
    ///
    /// # Errors
    ///
    /// [`DsmError::OutOfBounds`] for accesses past the page, or any
    /// protocol error.
    pub fn read(
        &mut self,
        ctx: &mut Ctx,
        page: PageId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, DsmError> {
        {
            let table = self.cache.lock();
            if let Some(entry) = table.get(&page) {
                self.stats.read_hits += 1;
                return slice_page(&entry.data, offset, len);
            }
        }
        self.stats.read_faults += 1;
        self.fault(ctx, page, false)?;
        let table = self.cache.lock();
        let entry = table.get(&page).expect("page mapped by fault");
        slice_page(&entry.data, offset, len)
    }

    /// Writes `data` at `offset` within `page`, acquiring exclusivity on
    /// demand. Once exclusive, writes cost nothing until another context
    /// touches the page.
    ///
    /// # Errors
    ///
    /// [`DsmError::OutOfBounds`] for accesses past the page, or any
    /// protocol error.
    pub fn write(
        &mut self,
        ctx: &mut Ctx,
        page: PageId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), DsmError> {
        {
            let mut table = self.cache.lock();
            if let Some(entry) = table.get_mut(&page) {
                if entry.mode == Mode::Write {
                    self.stats.write_hits += 1;
                    return write_page(&mut entry.data, offset, data);
                }
            }
        }
        self.stats.write_faults += 1;
        self.fault(ctx, page, true)?;
        let mut table = self.cache.lock();
        let entry = table.get_mut(&page).expect("page mapped by fault");
        write_page(&mut entry.data, offset, data)
    }

    /// Whether `page` is currently mapped, and how.
    pub fn mapping(&self, page: PageId) -> Option<Mode> {
        self.cache.lock().get(&page).map(|e| e.mode)
    }
}

fn slice_page(data: &[u8], offset: usize, len: usize) -> Result<Vec<u8>, DsmError> {
    let end = offset.saturating_add(len);
    if end > data.len() {
        return Err(DsmError::OutOfBounds {
            page_size: data.len(),
            end,
        });
    }
    Ok(data[offset..end].to_vec())
}

fn write_page(data: &mut [u8], offset: usize, bytes: &[u8]) -> Result<(), DsmError> {
    let end = offset.saturating_add(bytes.len());
    if end > data.len() {
        return Err(DsmError::OutOfBounds {
            page_size: data.len(),
            end,
        });
    }
    data[offset..end].copy_from_slice(bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_checks() {
        let mut page = vec![0u8; 8];
        assert!(write_page(&mut page, 6, b"abc").is_err());
        assert!(write_page(&mut page, 5, b"abc").is_ok());
        assert_eq!(slice_page(&page, 5, 3).unwrap(), b"abc");
        assert!(slice_page(&page, 7, 2).is_err());
        // Overflow-safe.
        assert!(slice_page(&page, usize::MAX, 2).is_err());
    }
}
