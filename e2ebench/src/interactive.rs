//! `interactive`: one analyst in a closed loop over a store folded
//! during set-up. The seeded plan interleaves four op kinds in steps
//! of four (one of each kind per step, in a seeded order):
//!
//! * a full-table `RibQuery::at(T)`;
//! * `at(T).prefix(p)` or `at(T).origin_asn(a)`;
//! * an unfiltered `BgpStream` scan of a 1 h window;
//! * a selective scan of a 1 h window (prefix subtree, peer ASN or
//!   community filter).
//!
//! A step's latency (the sum of its four ops) is the workload's op
//! latency, and `elems_per_s` is the scans' throughput; a host probe
//! is timed after each step, and the times of each block of
//! [`BLOCK_OPS`] ops are scaled by its probes. Checks: sampled query
//! answers equal a full-genesis replay of the journal, and every scan's
//! elem count equals a hand filter over the unfiltered scan of the same
//! window.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, Prefix};
use bgpstream::{BgpStream, BgpStreamElem, CommunityFilter, ElemType, StreamStats};
use broker::{BrokerClient, LocalBroker};
use corsaro::{run_pipeline, Plugin, RibFeeder};
use rib::{RibQuery, RibStore, RibTable, TableView};

use crate::host::HostProbe;
use crate::layers::{Probe, Store, TracedBroker};
use crate::pipeline::{historical, rib_metrics};
use crate::report::{layer_metrics, percentile, set_timings, Block, Metrics, MIN_SAMPLES};
use crate::rng::Rng;
use crate::world::{World, BIN, SNAPSHOT_EVERY};
use crate::{common_metrics, set_up, trace, Args, Outcome, HARD_LIMIT};

/// Scan window length (s).
const WINDOW: u64 = 3600;
/// Distinct query instants and scan windows the plan draws from: an
/// analyst revisits instants, and the output checks stay cheap.
const INSTANTS: usize = 64;
const WINDOWS: usize = 32;
/// Query answers of each kind checked against a full replay.
const CHECKED_QUERIES: usize = 3;
/// Ops per block: ten analyst steps of four ops, about a second.
const BLOCK_OPS: u64 = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    ScanFull,
    ScanFiltered,
    QueryTable,
    QueryPrefix,
}

const KINDS: [Kind; 4] = [
    Kind::ScanFull,
    Kind::ScanFiltered,
    Kind::QueryTable,
    Kind::QueryPrefix,
];

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::ScanFull => "op.scan_full",
            Kind::ScanFiltered => "op.scan_filtered",
            Kind::QueryTable => "op.query_table",
            Kind::QueryPrefix => "op.query_prefix",
        }
    }

    fn metrics(self) -> (&'static str, &'static str) {
        match self {
            Kind::ScanFull => (
                "interactive.scan_full_p50_ms",
                "interactive.scan_full_p90_ms",
            ),
            Kind::ScanFiltered => (
                "interactive.scan_filtered_p50_ms",
                "interactive.scan_filtered_p90_ms",
            ),
            Kind::QueryTable => (
                "interactive.query_table_p50_ms",
                "interactive.query_table_p90_ms",
            ),
            Kind::QueryPrefix => (
                "interactive.query_prefix_p50_ms",
                "interactive.query_prefix_p90_ms",
            ),
        }
    }
}

/// A selective-scan filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Filter {
    /// Elems of prefixes inside this prefix.
    Subtree(Prefix),
    PeerAsn(Asn),
    /// Routes carrying any community of this AS (withdrawals and
    /// state messages pass, as in libBGPStream).
    Community(u16),
}

impl Filter {
    /// The hand filter the selective scans are checked against.
    fn matches(&self, e: &BgpStreamElem) -> bool {
        match *self {
            Filter::Subtree(p) => match &e.prefix {
                Some(q) => p.contains(q),
                None => e.elem_type == ElemType::PeerState,
            },
            Filter::PeerAsn(a) => e.peer_asn == a,
            Filter::Community(asn) => match e.elem_type {
                ElemType::Withdrawal | ElemType::PeerState => true,
                _ => e
                    .communities
                    .as_ref()
                    .is_some_and(|cs| cs.iter().any(|c| c.asn == asn)),
            },
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Table { at: u64 },
    Prefix { at: u64, prefix: Prefix },
    Origin { at: u64, asn: Asn },
    Scan { from: u64 },
    Filtered { from: u64, filter: Filter },
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Table { .. } => Kind::QueryTable,
            Op::Prefix { .. } | Op::Origin { .. } => Kind::QueryPrefix,
            Op::Scan { .. } => Kind::ScanFull,
            Op::Filtered { .. } => Kind::ScanFiltered,
        }
    }
}

/// The seeded op schedule: op `i` depends only on the seed, `i` and
/// the world's facts.
pub struct Plan {
    seed: u64,
    instants: Vec<u64>,
    windows: Vec<u64>,
    filters: Vec<Filter>,
    originated: Vec<(Prefix, Asn)>,
}

impl Plan {
    pub fn new(
        seed: u64,
        stop: u64,
        originated: &[(Prefix, Asn)],
        vp_asns: &[Asn],
        taggers: &[Asn],
    ) -> Plan {
        // Instants and windows are stratified over the archive (one per
        // equal slice, seeded within it), so every seed's plan covers
        // bootstrap, churn and outage periods alike.
        let mut rng = Rng::new(seed ^ 0x0a11_7157);
        let mut spread = |n: usize, span: u64| -> Vec<u64> {
            let n = n as u64;
            (0..n)
                .map(|k| k * span / n + rng.below((span / n).max(1)))
                .collect()
        };
        let instants = spread(INSTANTS, stop);
        let slots = stop.saturating_sub(WINDOW) / 300 + 1;
        let windows = spread(WINDOWS, slots)
            .into_iter()
            .map(|k| 300 * k)
            .collect();
        let mut filters = Vec::new();
        for _ in 0..4 {
            let (p, _) = *rng.pick(originated);
            let wider = (p.len() as u64).min(4 + rng.below(5)) as u8;
            filters.push(Filter::Subtree(Prefix::new(p.network(), p.len() - wider)));
            filters.push(Filter::PeerAsn(*rng.pick(vp_asns)));
            if !taggers.is_empty() {
                filters.push(Filter::Community(rng.pick(taggers).0 as u16));
            }
        }
        Plan {
            seed,
            instants,
            windows,
            filters,
            originated: originated.to_vec(),
        }
    }

    pub fn op(&self, i: u64) -> Op {
        let mut block = Rng::new(self.seed ^ (i / 4).wrapping_mul(0x9e37_79b9));
        let mut order = KINDS;
        for k in (1..order.len()).rev() {
            order.swap(k, block.below(k as u64 + 1) as usize);
        }
        let mut rng = Rng::new(self.seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03));
        let at = *rng.pick(&self.instants);
        let from = *rng.pick(&self.windows);
        let (prefix, asn) = *rng.pick(&self.originated);
        match order[(i % 4) as usize] {
            Kind::QueryTable => Op::Table { at },
            Kind::QueryPrefix if rng.below(2) == 0 => Op::Prefix { at, prefix },
            Kind::QueryPrefix => Op::Origin { at, asn },
            Kind::ScanFull => Op::Scan { from },
            Kind::ScanFiltered => Op::Filtered {
                from,
                filter: *rng.pick(&self.filters),
            },
        }
    }
}

/// Fold the whole archive into a fresh store (the set-up step).
fn fold(world: &World, traced: bool) -> Store {
    let store = Store::new();
    let mut feeder = Probe::new(RibFeeder::new(SNAPSHOT_EVERY, store.handle()), traced, None);
    let mut stream = historical(LocalBroker::shared(world.index.clone()), world);
    run_pipeline(&mut stream, BIN, &mut [&mut feeder as &mut dyn Plugin]);
    store
}

fn query(op: &Op) -> RibQuery {
    match *op {
        Op::Table { at } => RibQuery::new().at(at),
        Op::Prefix { at, prefix } => RibQuery::new().at(at).prefix(prefix),
        Op::Origin { at, asn } => RibQuery::new().at(at).origin_asn(asn),
        Op::Scan { .. } | Op::Filtered { .. } => unreachable!("not a query"),
    }
}

enum Answer {
    View(TableView),
    Scan(ScanResult),
}

struct ScanResult {
    records: u64,
    elems: u64,
    stats: StreamStats,
}

fn scan(
    client: Arc<dyn BrokerClient>,
    from: u64,
    filter: Option<Filter>,
) -> Result<ScanResult, String> {
    let mut b = BgpStream::builder()
        .broker_client(client)
        .interval(from, Some(from + WINDOW));
    b = match filter {
        None => b,
        Some(Filter::Subtree(p)) => b.filter_prefix(p, PrefixMatch::MoreSpecific),
        Some(Filter::PeerAsn(a)) => b.filter_peer_asn(a),
        Some(Filter::Community(asn)) => b.filter_community(CommunityFilter {
            asn: Some(asn),
            value: None,
        }),
    };
    let mut stream = b.try_start().map_err(|e| e.to_string())?;
    let (mut records, mut elems) = (0u64, 0u64);
    loop {
        let rec = {
            let _s = trace::span("core.next_record");
            stream.next_record()
        };
        let Some(rec) = rec else { break };
        records += 1;
        elems += rec.elems().len() as u64;
    }
    if let Some(e) = stream.last_error() {
        return Err(e.to_string());
    }
    Ok(ScanResult {
        records,
        elems,
        stats: stream.stats(),
    })
}

/// Elem counts of the unfiltered scan of `from`'s window, whole and
/// through each hand filter.
fn hand_counts(world: &World, from: u64, filters: &[Filter]) -> (u64, Vec<u64>) {
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(from, Some(from + WINDOW))
        .start();
    let mut all = 0u64;
    let mut hits = vec![0u64; filters.len()];
    while let Some(rec) = stream.next_record() {
        for e in rec.elems() {
            all += 1;
            for (f, h) in filters.iter().zip(hits.iter_mut()) {
                *h += f.matches(e) as u64;
            }
        }
    }
    (all, hits)
}

/// The answer to `op` from a full-genesis replay of the journal.
fn replayed(store: &dyn RibStore, op: &Op) -> TableView {
    let at = match *op {
        Op::Table { at } | Op::Prefix { at, .. } | Op::Origin { at, .. } => at,
        Op::Scan { .. } | Op::Filtered { .. } => unreachable!("not a query"),
    };
    let mut table = RibTable::new();
    for ev in store.events_in(0, at) {
        table.apply(&ev);
    }
    let mut view = table.view(at);
    match *op {
        Op::Prefix { prefix, .. } => view.rows.retain(|r| r.prefix == prefix),
        Op::Origin { asn, .. } => view.rows.retain(|r| r.route.origin_asn() == Some(asn)),
        _ => {}
    }
    view
}

pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let su = set_up(args, root, args.trace, fold);
    let world = &su.world;
    let store = &su.prepared;
    let mut m = Metrics::default();
    common_metrics(&mut m, &su);
    m.set("setup.fold_s", su.prepare_s);
    let stop = store.mem.watermark();
    if stop == 0 {
        return Err("the set-up fold published nothing".into());
    }
    let plan = Plan::new(
        args.seed,
        stop,
        &world.originated,
        &world.vp_asns,
        &world.taggers,
    );

    let mut schedule = crate::world::Fnv::default();
    for i in 0..1000 {
        schedule.write(format!("{:?}", plan.op(i)).as_bytes());
    }
    eprintln!("e2ebench: op schedule digest {:016x}", schedule.0);

    let traced_broker = args
        .trace
        .then(|| TracedBroker::new(LocalBroker::shared(world.index.clone())));
    let client: Arc<dyn BrokerClient> = match &traced_broker {
        Some(t) => t.clone(),
        None => LocalBroker::shared(world.index.clone()),
    };
    let handle = store.handle();
    trace::set_enabled(args.trace);
    let setup_snap = trace::snapshot();

    let mut lat: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut step_ms = 0.0;
    let mut step_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut scan_elems = 0u64;
    let mut checked: Vec<(Op, Vec<u8>)> = Vec::new();
    let mut scans: Vec<(u64, Option<Filter>, u64)> = Vec::new();
    // Rows of each snapshot instant, counted outside the timed ops.
    let mut snapshot_rows: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut rows_materialised, mut rows_returned) = (0u64, 0u64);
    let (mut records, mut filtered_records, mut filtered_elems) = (0u64, 0u64, 0u64);
    let (mut files, mut groups, mut width) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let mut i = 0u64;
    let mut probe = HostProbe::default();
    while start.elapsed().as_secs_f64() < args.seconds
        || i < 4 * MIN_SAMPLES as u64
        || !i.is_multiple_of(BLOCK_OPS)
    {
        if start.elapsed() > HARD_LIMIT / 2 {
            return Err(format!("only {i} analyst ops before the time limit"));
        }
        if i.is_multiple_of(BLOCK_OPS) {
            blocks.push(Block::default());
        }
        let block = blocks.last_mut().expect("pushed at op 0");
        let op = plan.op(i);
        i += 1;
        attempted += 1;
        trace::set_op(i);
        let kind = op.kind();
        let deltas_before = store.counted.counts().delta_events;
        let t0 = Instant::now();
        let outcome = {
            let _op = trace::span(kind.span());
            match op {
                Op::Scan { from } => scan(client.clone(), from, None).map(Answer::Scan),
                Op::Filtered { from, filter } => {
                    scan(client.clone(), from, Some(filter)).map(Answer::Scan)
                }
                _ => {
                    let _q = trace::span("rib.query.table");
                    query(&op)
                        .table(&*handle)
                        .map(Answer::View)
                        .map_err(|e| e.to_string())
                }
            }
        };
        let dt = t0.elapsed().as_secs_f64();
        step_ms += dt * 1e3;
        let handed = store.counted.take_handed();
        match outcome {
            Ok(Answer::View(view)) => {
                lat.entry(kind).or_default().push(dt * 1e3);
                if kind == Kind::QueryPrefix && args.trace {
                    // What the store handed the query: snapshot rows
                    // plus the journal events replayed on top.
                    rows_returned += view.len() as u64;
                    rows_materialised += store.counted.counts().delta_events - deltas_before;
                    for snap in handed {
                        let rows = match snapshot_rows.get(&snap.at) {
                            Some(&n) => n,
                            None => {
                                let n = snap.table()?.route_count() as u64;
                                snapshot_rows.insert(snap.at, n);
                                n
                            }
                        };
                        rows_materialised += rows;
                    }
                }
                let done = checked.iter().filter(|(o, _)| o.kind() == kind).count();
                if done < CHECKED_QUERIES {
                    checked.push((op.clone(), view.encode()));
                }
            }
            Ok(Answer::Scan(s)) => {
                lat.entry(kind).or_default().push(dt * 1e3);
                scan_elems += s.elems;
                block.elems += s.elems as f64;
                block.busy_s += dt;
                records += s.records;
                files += s.stats.files_opened;
                groups += s.stats.groups;
                width = width.max(s.stats.max_group_width);
                let (from, filter) = match op {
                    Op::Scan { from } => (from, None),
                    Op::Filtered { from, filter } => {
                        filtered_records += s.records;
                        filtered_elems += s.elems;
                        (from, Some(filter))
                    }
                    _ => unreachable!("scan ops only"),
                };
                scans.push((from, filter, s.elems));
            }
            Err(e) => {
                eprintln!("e2ebench: op {i} ({op:?}) failed: {e}");
                failed += 1;
                step_ok = false;
            }
        }
        if i.is_multiple_of(4) {
            if step_ok {
                block.lat_ms.push(step_ms);
            }
            block.probe_s.push(probe.run());
            step_ms = 0.0;
            step_ok = true;
        }
    }
    let loop_snap = trace::snapshot().since(&setup_snap);
    trace::set_enabled(false);
    eprintln!(
        "e2ebench: {attempted} analyst ops ({} blocks) in {:.2} s",
        blocks.len(),
        start.elapsed().as_secs_f64()
    );

    // Output checks, outside the timed loop.
    let mut mismatch = None;
    for (op, got) in &checked {
        if replayed(&*store.mem, op).encode() != *got {
            mismatch.get_or_insert(format!("{op:?} differs from a full replay"));
        }
    }
    let mut windows: BTreeMap<u64, Vec<Filter>> = BTreeMap::new();
    for (from, filter, _) in &scans {
        let fs = windows.entry(*from).or_default();
        if let Some(f) = filter {
            if !fs.contains(f) {
                fs.push(*f);
            }
        }
    }
    let mut expected: BTreeMap<(u64, Option<Filter>), u64> = BTreeMap::new();
    for (from, filters) in &windows {
        let (all, hits) = hand_counts(world, *from, filters);
        expected.insert((*from, None), all);
        for (f, h) in filters.iter().zip(hits) {
            expected.insert((*from, Some(*f)), h);
        }
    }
    for (from, filter, elems) in &scans {
        let want = expected[&(*from, *filter)];
        if *elems != want {
            mismatch.get_or_insert(format!(
                "scan of [{from}, +{WINDOW}) with {filter:?}: {elems} elems, hand filter {want}"
            ));
        }
    }

    let samples: usize = lat.values().map(Vec::len).min().unwrap_or(0);
    eprintln!("e2ebench: fewest samples of one op kind: {samples}");
    set_timings(&mut m, &blocks)?;

    if args.trace {
        let ops = attempted as f64;
        layer_metrics(&mut m, &loop_snap, ops, "interactive.residual_frac");
        for kind in KINDS {
            let (p50, p90) = kind.metrics();
            let v = lat.get(&kind).map(Vec::as_slice).unwrap_or(&[]);
            m.set(p50, percentile(v, 0.5).unwrap_or(0.0));
            m.set(p90, percentile(v, 0.9).unwrap_or(0.0));
        }
        m.set("core.records", records as f64 / ops);
        m.set("core.elems", scan_elems as f64 / ops);
        m.set("core.files_opened", files as f64 / ops);
        m.set("core.groups", groups as f64 / ops);
        m.set("core.max_group_width", width as f64);
        if filtered_records > 0 {
            m.set(
                "core.filter_yield",
                filtered_elems as f64 / filtered_records as f64,
            );
        }
        // The fold's spans come from the last set-up.
        m.set("rib.fold.apply_s", setup_snap.self_s("rib.fold.apply"));
        m.set("rib.fold.publish_s", setup_snap.self_s("rib.fold.publish"));
        rib_metrics(&mut m, store);
        m.set(
            "rib.query.delta_events",
            store.counted.counts().delta_events as f64 / ops,
        );
        m.set(
            "rib.query.rows_materialised",
            rows_materialised as f64 / ops,
        );
        m.set("rib.query.rows_returned", rows_returned as f64 / ops);
        if rows_materialised > 0 {
            m.set(
                "rib.query.yield",
                rows_returned as f64 / rows_materialised as f64,
            );
        }
        if let Some(b) = &traced_broker {
            let (bytes, recs, secs) = mrt_side_pass(&b.returned_dumps())?;
            m.set("mrt.bytes", bytes / ops);
            m.set("mrt.records", recs / ops);
            m.set("mrt.decode_s", secs / ops);
        }
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        mismatch,
    })
}

/// Decode every dump the scans were handed through `ChunkedReader`,
/// weighting each by how often it was handed out: bytes, records and
/// seconds of framing plus decode.
fn mrt_side_pass(dumps: &BTreeMap<std::path::PathBuf, u64>) -> Result<(f64, f64, f64), String> {
    let (mut bytes, mut records, mut secs) = (0.0, 0.0, 0.0);
    for (path, n) in dumps {
        let n = *n as f64;
        let t0 = Instant::now();
        let mut reader = mrt::ChunkedReader::open(path).map_err(|e| e.to_string())?;
        let mut count = 0u64;
        while let Some(rec) = reader.next() {
            rec.map_err(|e| format!("{}: {e}", path.display()))?;
            count += 1;
        }
        secs += n * t0.elapsed().as_secs_f64();
        records += n * count as f64;
        bytes += n * std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
    }
    Ok((bytes, records, secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Plan {
        let originated: Vec<(Prefix, Asn)> = (0..50u32)
            .map(|k| {
                (
                    Prefix::new(format!("10.{k}.0.0").parse().unwrap(), 16),
                    Asn(100 + k),
                )
            })
            .collect();
        Plan::new(seed, 14_400, &originated, &[Asn(7), Asn(8)], &[Asn(9)])
    }

    #[test]
    fn one_seed_gives_one_schedule() {
        let (a, b, c) = (plan(1), plan(1), plan(2));
        let ops = |p: &Plan| (0..400).map(|i| p.op(i)).collect::<Vec<_>>();
        assert_eq!(ops(&a), ops(&b));
        assert_ne!(ops(&a), ops(&c));
    }

    #[test]
    fn every_step_of_four_holds_each_kind_once() {
        let p = plan(3);
        for block in 0..50 {
            let mut kinds: Vec<Kind> = (0..4).map(|k| p.op(block * 4 + k).kind()).collect();
            kinds.sort();
            assert_eq!(kinds, KINDS.to_vec());
        }
    }
}
