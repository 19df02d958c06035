//! Stateful RIB reconstruction with time-travel queries.
//!
//! The paper's per-AS and per-prefix case studies (MOAS detection,
//! AS visibility during outages) all reduce to *"what did the routing
//! table look like at time T?"* — a question the pipeline could
//! previously answer only by replaying an entire sorted stream. This
//! crate folds the stream into per-`(collector, peer)` Loc-RIB state
//! once, publishes a journal plus periodic sealed snapshots, and
//! answers time-travel queries in O(snapshot + delta):
//!
//! ```text
//!   sorted/live stream ──▶ RibFold ──▶ RibStore ◀── RibQuery
//!    (RIB walks seed,       │ apply     │ journal      .at(T)
//!     updates delta)        ▼           │ snapshots    .prefix(..)
//!                        RibTable ──────┘ watermark    .history(..)
//! ```
//!
//! * [`table`] — the Loc-RIB state, the [`RibEvent`] journal
//!   vocabulary, and canonical (order-independent) serialization;
//! * [`fold`] — [`RibFold`]: stream in, state + publications out;
//!   drives historical runs directly ([`RibFold::ingest`]) and backs
//!   the live `corsaro` plugin; checkpoint/restore for supervision;
//! * [`store`] — [`RibStore`] (idempotent watermark-guarded
//!   publication; journal + snapshot retrieval) and the in-memory
//!   [`MemoryRibStore`] backend;
//! * [`query`] — the [`RibQuery`] builder.
//!
//! Time-travel in five lines (the README snippet):
//!
//! ```
//! use rib::{MemoryRibStore, RibQuery, RibStore, RibFold};
//!
//! let store = MemoryRibStore::shared();
//! // ... feed a RibFold::new(900).with_store(store.clone()) from a
//! // stream (historical ingest or the live RibFeeder plugin) ...
//! # let mut fold = RibFold::new(900).with_store(store.clone());
//! # fold.advance_watermark(1800);
//! let table = RibQuery::new().at(900).table(&*store)?;
//! println!("{} routes at t=900", table.len());
//! # Ok::<(), rib::RibError>(())
//! ```

#![forbid(unsafe_code)]

pub mod fold;
pub mod query;
pub mod store;
pub mod table;

pub use bgp_types::trie::PrefixMatch;
pub use fold::{FoldStats, MacroState, RibFold, RtErrorStats};
pub use query::{RibError, RibQuery};
pub use store::{MemoryRibStore, RibStore, Snapshot};
pub use table::{LocRib, RibAction, RibEvent, RibRoute, RibTable, TableRow, TableView};
