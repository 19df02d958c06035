//! Benchmark-owned decorators that time and count the calls the
//! program's layers receive, from outside the program:
//!
//! * [`TracedBroker`] wraps the `Arc<dyn BrokerClient>` a stream reads
//!   through (`broker.query`, `broker.poll` spans);
//! * [`Probe`] wraps a corsaro plugin or the `RibFeeder` (busy spans
//!   per plugin kind, `rib.fold.*` spans, root `merge_bin` spans) and
//!   can log the instant each bin closes;
//! * [`CountingStore`] wraps the `MemoryRibStore` and counts what is
//!   published into it and what queries read back out of it (journal
//!   events, and the snapshots it hands out).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgpstream::BgpStreamRecord;
use broker::{
    BrokerClient, BrokerCursor, BrokerError, Index, LeaseId, LivePoll, Query, ReleasePolicy,
    Response,
};
use corsaro::runtime::ShardedPlugin;
use corsaro::{ElemCounter, Partitioning, PfxMonitor, Plugin, RibFeeder, RtPlugin};
use rib::{MemoryRibStore, RibEvent, RibStore, Snapshot};

use crate::trace;

/// Spans around broker calls; also remembers which dumps historical
/// queries returned, for the `mrt` side pass.
pub struct TracedBroker {
    inner: Arc<dyn BrokerClient>,
    returned: Mutex<BTreeMap<PathBuf, u64>>,
}

impl TracedBroker {
    pub fn new(inner: Arc<dyn BrokerClient>) -> Arc<Self> {
        Arc::new(TracedBroker {
            inner,
            returned: Mutex::new(BTreeMap::new()),
        })
    }

    /// Every dump path historical queries returned, with how often.
    pub fn returned_dumps(&self) -> BTreeMap<PathBuf, u64> {
        self.returned.lock().expect("dump log poisoned").clone()
    }
}

impl BrokerClient for TracedBroker {
    fn query(
        &self,
        query: &Query,
        cursor: &mut BrokerCursor,
        now: u64,
    ) -> Result<Response, BrokerError> {
        let resp = {
            let _s = trace::span("broker.query");
            self.inner.query(query, cursor, now)
        };
        if let Ok(r) = &resp {
            let mut seen = self.returned.lock().expect("dump log poisoned");
            for m in &r.files {
                *seen.entry(m.path.clone()).or_default() += 1;
            }
        }
        resp
    }

    fn open_live(
        &self,
        query: &Query,
        policy: ReleasePolicy,
        resume: Option<LeaseId>,
    ) -> Result<LeaseId, BrokerError> {
        self.inner.open_live(query, policy, resume)
    }

    fn poll_live(&self, lease: LeaseId, now: u64) -> Result<LivePoll, BrokerError> {
        let poll = {
            let _s = trace::span("broker.poll");
            self.inner.poll_live(lease, now)
        };
        if let Ok(p) = &poll {
            if !p.files.is_empty() || !p.late.is_empty() {
                trace::count("broker.poll_hits", 1);
            }
        }
        poll
    }

    fn renew_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        self.inner.renew_lease(lease)
    }

    fn close_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        self.inner.close_lease(lease)
    }

    fn version(&self) -> u64 {
        self.inner.version()
    }

    fn wait_for_new(&self, last_version: u64, timeout: Duration) -> bool {
        self.inner.wait_for_new(last_version, timeout)
    }

    fn local_index(&self) -> Option<Arc<Index>> {
        self.inner.local_index()
    }
}

/// The instants at which bins closed, as `(bin_start, instant)`.
pub type BinLog = Mutex<Vec<(u64, Instant)>>;

/// Span names a [`Probe`] records under.
#[derive(Clone, Copy)]
pub struct Names {
    /// `process_record` / `process_sharded` (and `take_partial`).
    pub work: &'static str,
    /// `end_bin`.
    pub close: &'static str,
    /// Counts closed bins on the root instance (`corsaro.bins`).
    pub counts_bins: bool,
}

/// The span names for a plugin, by its `Plugin::name`.
pub fn names_for(plugin: &'static str) -> Names {
    let (work, close) = match plugin {
        "elem-counter" => ("corsaro.elem-counter", "corsaro.elem-counter"),
        "pfxmonitor" => ("corsaro.pfxmonitor", "corsaro.pfxmonitor"),
        "routing-tables" => ("corsaro.routing-tables", "corsaro.routing-tables"),
        "ribfeed" => ("rib.fold.apply", "rib.fold.publish"),
        _ => ("corsaro.other", "corsaro.other"),
    };
    Names {
        work,
        close,
        counts_bins: plugin == "elem-counter",
    }
}

/// Plugin decorator. `names` turns on spans (without them it only
/// passes calls through); `bins` logs the instant
/// each bin closed on the root instance (after `end_bin` in a
/// sequential run, after `merge_bin` in the sharded runtime).
pub struct Probe<P> {
    pub inner: P,
    names: Option<Names>,
    bins: Option<Arc<BinLog>>,
    root: bool,
}

impl<P: Plugin> Probe<P> {
    pub fn new(inner: P, traced: bool, bins: Option<Arc<BinLog>>) -> Self {
        let names = traced.then(|| names_for(inner.name()));
        Probe {
            inner,
            names,
            bins,
            root: true,
        }
    }

    fn span(&self, pick: fn(&Names) -> &'static str) -> Option<trace::SpanGuard> {
        self.names.as_ref().map(|n| trace::span(pick(n)))
    }

    fn closed(&self, bin_start: u64) {
        if let Some(log) = &self.bins {
            log.lock()
                .expect("bin log poisoned")
                .push((bin_start, Instant::now()));
        }
        if self.names.is_some_and(|n| n.counts_bins) {
            trace::count("corsaro.bins", 1);
        }
    }
}

impl<P: Plugin> Plugin for Probe<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        let _s = self.span(|n| n.work);
        self.inner.process_record(record);
    }

    fn end_bin(&mut self, bin_start: u64, bin_end: u64) {
        {
            let _s = self.span(|n| n.close);
            self.inner.end_bin(bin_start, bin_end);
        }
        if self.root {
            self.closed(bin_start);
        }
    }

    fn partitioning(&self) -> Partitioning {
        self.inner.partitioning()
    }

    fn checkpoint(&self) -> Vec<u8> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore(bytes)
    }
}

impl<P: ShardedPlugin> ShardedPlugin for Probe<P> {
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(Probe {
            inner: Dyn(self.inner.fork(shard, shards)),
            names: self.names,
            bins: None,
            root: false,
        })
    }

    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        let _s = self.span(|n| n.work);
        self.inner.process_sharded(record, mask);
    }

    fn take_partial(&mut self) -> Vec<u8> {
        let _s = self.span(|n| n.work);
        self.inner.take_partial()
    }

    fn merge_bin(&mut self, bin_start: u64, bin_end: u64, partials: Vec<Vec<u8>>) {
        {
            let _s = self
                .names
                .as_ref()
                .map(|_| trace::span("corsaro.runtime.merge_bin"));
            self.inner.merge_bin(bin_start, bin_end, partials);
        }
        self.closed(bin_start);
    }
}

/// A forked shard instance, so a [`Probe`] can wrap it.
pub struct Dyn(Box<dyn ShardedPlugin>);

impl Plugin for Dyn {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn process_record(&mut self, record: &BgpStreamRecord) {
        self.0.process_record(record)
    }
    fn end_bin(&mut self, bin_start: u64, bin_end: u64) {
        self.0.end_bin(bin_start, bin_end)
    }
    fn partitioning(&self) -> Partitioning {
        self.0.partitioning()
    }
    fn checkpoint(&self) -> Vec<u8> {
        self.0.checkpoint()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.restore(bytes)
    }
}

impl ShardedPlugin for Dyn {
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        self.0.fork(shard, shards)
    }
    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        self.0.process_sharded(record, mask)
    }
    fn take_partial(&mut self) -> Vec<u8> {
        self.0.take_partial()
    }
    fn merge_bin(&mut self, bin_start: u64, bin_end: u64, partials: Vec<Vec<u8>>) {
        self.0.merge_bin(bin_start, bin_end, partials)
    }
}

/// A plugin whose per-bin output the output checks compare.
pub trait Output {
    /// Canonical bytes of everything the plugin emitted.
    fn output(&self) -> Vec<u8>;

    /// Elems counted, for the plugin that counts them.
    fn elems(&self) -> u64 {
        0
    }
}

impl Output for ElemCounter {
    fn output(&self) -> Vec<u8> {
        format!("{:?}", self.series).into_bytes()
    }
    fn elems(&self) -> u64 {
        self.total_elems()
    }
}

impl Output for PfxMonitor {
    fn output(&self) -> Vec<u8> {
        format!("{:?}", self.series).into_bytes()
    }
}

impl Output for RtPlugin {
    fn output(&self) -> Vec<u8> {
        format!("{:?} {:?}", self.bin_series, self.error_stats).into_bytes()
    }
}

/// The feeder's output is its store, which is compared separately.
impl Output for RibFeeder {
    fn output(&self) -> Vec<u8> {
        Vec::new()
    }
}

impl<P: Output> Output for Probe<P> {
    fn output(&self) -> Vec<u8> {
        self.inner.output()
    }
    fn elems(&self) -> u64 {
        self.inner.elems()
    }
}

/// A root plugin of the benchmark's plugin set.
pub trait Stage: ShardedPlugin + Output {}
impl<T: ShardedPlugin + Output> Stage for T {}

/// Counts what is published into and read out of a RIB store, and
/// keeps the snapshots it hands out until [`take_handed`] drains them,
/// so their rows can be counted outside the timed call.
///
/// [`take_handed`]: CountingStore::take_handed
pub struct CountingStore {
    inner: Arc<MemoryRibStore>,
    events: AtomicU64,
    snapshots: AtomicU64,
    snapshot_bytes: AtomicU64,
    delta_events: AtomicU64,
    handed: Mutex<Vec<Snapshot>>,
}

/// Store counters, see [`CountingStore`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    pub events: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub delta_events: u64,
}

impl CountingStore {
    /// The snapshots `snapshot_at` returned since the last call.
    pub fn take_handed(&self) -> Vec<Snapshot> {
        std::mem::take(&mut *self.handed.lock().expect("snapshot log poisoned"))
    }

    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            events: self.events.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            delta_events: self.delta_events.load(Ordering::Relaxed),
        }
    }
}

impl RibStore for CountingStore {
    fn watermark(&self) -> u64 {
        self.inner.watermark()
    }

    fn publish(&self, upto: u64, events: Vec<RibEvent>, snapshot: Option<Snapshot>) -> bool {
        let n = events.len() as u64;
        let frame = snapshot.as_ref().map(|s| s.frame().len() as u64);
        let accepted = self.inner.publish(upto, events, snapshot);
        if accepted {
            self.events.fetch_add(n, Ordering::Relaxed);
            if let Some(bytes) = frame {
                self.snapshots.fetch_add(1, Ordering::Relaxed);
                self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        accepted
    }

    fn snapshot_at(&self, t: u64) -> Option<Snapshot> {
        let snap = self.inner.snapshot_at(t);
        if let Some(s) = &snap {
            self.handed
                .lock()
                .expect("snapshot log poisoned")
                .push(s.clone());
        }
        snap
    }

    fn events_in(&self, from: u64, to: u64) -> Vec<RibEvent> {
        let evs = self.inner.events_in(from, to);
        self.delta_events
            .fetch_add(evs.len() as u64, Ordering::Relaxed);
        evs
    }

    fn event_count(&self) -> usize {
        self.inner.event_count()
    }

    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }
}

/// A fresh RIB store behind a [`CountingStore`]. Producers and
/// queries use [`handle`](Store::handle); output checks read `mem`
/// directly.
pub struct Store {
    pub mem: Arc<MemoryRibStore>,
    pub counted: Arc<CountingStore>,
}

impl Store {
    pub fn new() -> Self {
        let mem = MemoryRibStore::shared();
        let counted = Arc::new(CountingStore {
            inner: mem.clone(),
            events: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            delta_events: AtomicU64::new(0),
            handed: Mutex::new(Vec::new()),
        });
        Store { mem, counted }
    }

    /// The handle producers and queries use.
    pub fn handle(&self) -> Arc<dyn RibStore> {
        self.counted.clone()
    }
}
