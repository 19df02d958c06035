//! The standing plugin set `ingest` and `live` both run, and the
//! output checks that compare their results.

use std::sync::Arc;

use bgpstream::BgpStream;
use broker::{BrokerClient, LocalBroker};
use corsaro::runtime::ShardedPlugin;
use corsaro::{run_pipeline, ElemCounter, PfxMonitor, Plugin, RibFeeder, RtPlugin};
use rib::{MemoryRibStore, RibQuery, RibStore};

use crate::layers::{BinLog, Probe, Stage, Store, TracedBroker};
use crate::report::Metrics;
use crate::world::{World, BIN, SNAPSHOT_EVERY};

/// `ElemCounter`, 6 `PfxMonitor`s watching overlapping slices of the
/// originated IPv4 space (all of it but its first `k % 3` prefixes, as
/// the repository's pipeline bench does), one `RtPlugin` per
/// collector, and a `RibFeeder` publishing into `store`, each behind a
/// [`Probe`] that records spans when traced. The feeder comes last, so the
/// bin log (when asked for) records the instant a bin's RIB state and
/// every plugin output are complete.
pub struct PluginSet {
    pub stages: Vec<Box<dyn Stage>>,
    pub bins: Option<Arc<BinLog>>,
    pub store: Store,
}

impl PluginSet {
    pub fn new(world: &World, traced: bool, log_bins: bool) -> Self {
        let store = Store::new();
        let bins = log_bins.then(|| Arc::new(BinLog::default()));
        let mut stages: Vec<Box<dyn Stage>> =
            vec![Box::new(Probe::new(ElemCounter::new(), traced, None))];
        for k in 0..6 {
            let ranges = world.v4_prefixes.iter().skip(k % 3).copied();
            stages.push(Box::new(Probe::new(PfxMonitor::new(ranges), traced, None)));
        }
        for c in &world.collectors {
            stages.push(Box::new(Probe::new(RtPlugin::new(c), traced, None)));
        }
        let feeder = RibFeeder::new(SNAPSHOT_EVERY, store.handle());
        stages.push(Box::new(Probe::new(feeder, traced, bins.clone())));
        PluginSet {
            stages,
            bins,
            store,
        }
    }

    pub fn plugins(&mut self) -> Vec<&mut dyn Plugin> {
        self.stages
            .iter_mut()
            .map(|s| s.as_mut() as &mut dyn Plugin)
            .collect()
    }

    pub fn sharded(&mut self) -> Vec<&mut dyn ShardedPlugin> {
        self.stages
            .iter_mut()
            .map(|s| s.as_mut() as &mut dyn ShardedPlugin)
            .collect()
    }

    /// Every plugin's output, in plugin order.
    pub fn outputs(&self) -> Vec<Vec<u8>> {
        self.stages.iter().map(|s| s.output()).collect()
    }

    /// Elems the set processed (the `ElemCounter`'s total).
    pub fn elems(&self) -> u64 {
        self.stages.iter().map(|s| s.elems()).sum()
    }
}

/// The RIB layer's size metrics for a folded store (traced runs).
pub fn rib_metrics(m: &mut Metrics, store: &Store) {
    let c = store.counted.counts();
    m.set("rib.events", c.events as f64);
    m.set("rib.snapshots", c.snapshots as f64);
    m.set("rib.snapshot_bytes", c.snapshot_bytes as f64);
    let rows = RibQuery::new().table(&*store.mem).map_or(0, |v| v.len());
    m.set("rib.table_rows", rows as f64);
}

/// The client every historical stream reads through: the world's
/// index, behind a [`TracedBroker`] when traced.
pub fn client(world: &World, traced: Option<&Arc<TracedBroker>>) -> Arc<dyn BrokerClient> {
    match traced {
        Some(t) => t.clone(),
        None => LocalBroker::shared(world.index.clone()),
    }
}

pub fn historical(client: Arc<dyn BrokerClient>, world: &World) -> BgpStream {
    BgpStream::builder()
        .broker_client(client)
        .interval(0, Some(world.horizon))
        .start()
}

/// Result of one full-archive pass.
pub struct Pass {
    pub set: PluginSet,
    pub records: u64,
    /// End of the last closed bin: the live workload stops there.
    pub stop: u64,
    /// The broker error that ended the stream early, if any.
    pub error: Option<broker::BrokerError>,
}

/// One sequential full-archive pass through the plugin set.
pub fn ingest_pass(world: &World, client: Arc<dyn BrokerClient>, mut set: PluginSet) -> Pass {
    let mut stream = historical(client, world);
    let records = run_pipeline(&mut stream, BIN, &mut set.plugins());
    let stop = set.store.mem.watermark();
    Pass {
        set,
        records,
        stop,
        error: stream.last_error().cloned(),
    }
}

/// Instants the store checks resolve `at(T)` for.
pub fn sample_instants(stop: u64) -> [u64; 3] {
    [stop / 3, stop / 2 + SNAPSHOT_EVERY / 2, stop - 1]
}

/// Byte-compare two folded stores: journal, every sealed snapshot,
/// and, with `queries`, `at(T)` answers at a few instants.
pub fn compare_stores(
    got: &MemoryRibStore,
    want: &MemoryRibStore,
    queries: bool,
) -> Result<(), String> {
    if got.watermark() != want.watermark() {
        return Err(format!(
            "RIB watermark {} != {}",
            got.watermark(),
            want.watermark()
        ));
    }
    if got.events_in(0, u64::MAX) != want.events_in(0, u64::MAX) {
        return Err("RIB journals differ".into());
    }
    if got.snapshot_count() != want.snapshot_count() {
        return Err("RIB snapshot counts differ".into());
    }
    let stop = want.watermark();
    let mut t = 0;
    while t < stop {
        let a = got.snapshot_at(t).map(|s| (s.at, s.frame().to_vec()));
        let b = want.snapshot_at(t).map(|s| (s.at, s.frame().to_vec()));
        if a != b {
            return Err(format!("RIB snapshots at {t} differ"));
        }
        t += SNAPSHOT_EVERY;
    }
    for t in sample_instants(stop).into_iter().filter(|_| queries) {
        let a = RibQuery::new().at(t).table(got).map(|v| v.encode());
        let b = RibQuery::new().at(t).table(want).map(|v| v.encode());
        if a != b {
            return Err(format!("RIB at({t}) answers differ"));
        }
    }
    Ok(())
}
