//! The tentpole equivalence proof: for **any** generated stream —
//! updates and RIB dumps with the paper's data faults (see
//! `common`) — snapshot cadence, bin size and crash plan, a time-travel
//! query answered from the nearest sealed snapshot plus the event
//! delta is byte-identical to a full replay of the journal from
//! genesis — and the store contents themselves are unperturbed by
//! checkpoint/restore crashes mid-bin (the supervisor's recovery
//! model: restore the last bin-boundary checkpoint, replay the open
//! bin, and rely on the store's idempotent publication to drop
//! duplicates). Narrowed queries (every prefix match mode, origin,
//! peer, collector) must equal the same filter applied by hand to the
//! full replay.

mod common;

use std::sync::Arc;

use bgp_types::{Asn, Prefix};
use bgpstream::BgpStreamRecord;
use common::{arb_record, materialize, COLLECTORS, PEERS};
use proptest::collection::vec;
use proptest::prelude::*;
use rib::{MemoryRibStore, PrefixMatch, RibFold, RibQuery, RibStore, RibTable, TableRow};

/// Prefixes narrowed queries ask about: the pool plus covering and
/// covered prefixes outside it.
const QUERY_PREFIXES: &[&str] = &[
    "203.0.113.0/24",
    "198.51.100.0/24",
    "203.0.113.128/25",
    "2001:db8:1::/48",
    "203.0.112.0/23",
    "198.51.100.128/25",
    "2001:db8::/32",
];
const MODES: [PrefixMatch; 4] = [
    PrefixMatch::Exact,
    PrefixMatch::MoreSpecific,
    PrefixMatch::LessSpecific,
    PrefixMatch::Any,
];

/// How a checked query narrows the table.
#[derive(Clone, Debug)]
enum Narrow {
    Prefix(Prefix, PrefixMatch),
    Origin(Asn),
    Peer(usize),
    Collector(usize),
}

impl Narrow {
    fn query(&self, q: RibQuery) -> RibQuery {
        match *self {
            Narrow::Prefix(p, mode) => q.prefix_matching(p, mode),
            Narrow::Origin(asn) => q.origin_asn(asn),
            Narrow::Peer(i) => q.peer(PEERS[i].parse().unwrap()),
            Narrow::Collector(i) => q.collector(COLLECTORS[i].1),
        }
    }

    /// The same filter, written out by hand.
    fn keeps(&self, row: &TableRow) -> bool {
        match *self {
            Narrow::Prefix(f, PrefixMatch::Exact) => row.prefix == f,
            Narrow::Prefix(f, PrefixMatch::MoreSpecific) => f.contains(&row.prefix),
            Narrow::Prefix(f, PrefixMatch::LessSpecific) => row.prefix.contains(&f),
            Narrow::Prefix(f, PrefixMatch::Any) => {
                f.contains(&row.prefix) || row.prefix.contains(&f)
            }
            Narrow::Origin(asn) => row.route.origin_asn() == Some(asn),
            Narrow::Peer(i) => row.peer == PEERS[i].parse::<std::net::IpAddr>().unwrap(),
            Narrow::Collector(i) => &*row.collector == COLLECTORS[i].1,
        }
    }
}

fn arb_narrow() -> impl Strategy<Value = Narrow> {
    (0usize..7, 0usize..QUERY_PREFIXES.len(), 1u32..16).prop_map(|(kind, i, origin)| match kind {
        0..=3 => Narrow::Prefix(QUERY_PREFIXES[i].parse().unwrap(), MODES[kind]),
        4 => Narrow::Origin(Asn(origin)),
        5 => Narrow::Peer(i % PEERS.len()),
        _ => Narrow::Collector(i % COLLECTORS.len()),
    })
}

/// Drive a fold over `records` with the sequential runner's binning,
/// crashing (checkpoint-restore-replay) just before the record
/// indexes in `faults`, mirroring the supervisor: the checkpoint is
/// whatever was sealed at the last bin boundary, and the open bin is
/// replayed from its start after the restore.
fn fold_with_faults(
    records: &[BgpStreamRecord],
    snapshot_every: u64,
    bin: u64,
    faults: &[usize],
) -> Arc<MemoryRibStore> {
    let store = MemoryRibStore::shared();
    let mut fold = RibFold::new(snapshot_every).with_store(store.clone());
    let mut ckpt = fold.checkpoint();
    let mut bin_replay: Vec<&BgpStreamRecord> = Vec::new();
    let mut bin_end: Option<u64> = None;
    for (i, rec) in records.iter().enumerate() {
        let t = rec.timestamp;
        match bin_end {
            None => bin_end = Some(t - t % bin + bin),
            Some(e) if t >= e => {
                let mut e = e;
                while t >= e {
                    fold.advance_watermark(e);
                    e += bin;
                }
                bin_end = Some(e);
                ckpt = fold.checkpoint();
                bin_replay.clear();
            }
            _ => {}
        }
        if faults.contains(&i) {
            let mut revived = RibFold::new(snapshot_every).with_store(store.clone());
            revived.restore(&ckpt).expect("restore checkpoint");
            for r in &bin_replay {
                revived.apply_record(r);
            }
            fold = revived;
        }
        fold.apply_record(rec);
        bin_replay.push(rec);
    }
    if let Some(e) = bin_end {
        fold.advance_watermark(e);
    }
    fold.finish();
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_plus_delta_equals_full_replay(
        gen in vec(arb_record(), 1..40),
        snapshot_every in prop_oneof![Just(0u64), 300u64..2000],
        bin in prop_oneof![Just(60u64), Just(300u64)],
        faults in vec(0usize..40, 0..4),
        queries in vec((0u64..20_000, arb_narrow()), 1..6),
    ) {
        let records = materialize(&gen);

        // Reference: no snapshots, no faults — the bare journal.
        let reference = fold_with_faults(&records, 0, bin, &[]);
        // Candidate: snapshot cadence + crash plan under test.
        let store = fold_with_faults(&records, snapshot_every, bin, &faults);

        // Crashes must be invisible in the published journal: the
        // store's idempotent publication drops every replayed bin.
        prop_assert_eq!(store.event_count(), reference.event_count());
        prop_assert_eq!(
            store.events_in(0, u64::MAX),
            reference.events_in(0, u64::MAX),
            "journals diverged"
        );

        // Time-travel: at any T, snapshot+delta resolution over the
        // candidate store is byte-identical to replaying the full
        // reference journal from genesis.
        for (t, narrow) in &queries {
            let t = *t;
            let got = RibQuery::new().at(t).table(&*store).expect("within watermark");
            let mut replay = RibTable::new();
            for e in reference.events_in(0, t) {
                replay.apply(&e);
            }
            let mut want = replay.view(t);
            prop_assert_eq!(
                got.encode(),
                want.encode(),
                "query at {} diverged from full replay",
                t
            );
            // Narrowed: from the snapshots and from the bare journal
            // alike, the same rows a hand filter keeps.
            want.rows.retain(|row| narrow.keeps(row));
            for source in [&store, &reference] {
                let got = narrow
                    .query(RibQuery::new().at(t))
                    .table(&**source)
                    .expect("within watermark");
                prop_assert_eq!(
                    got.encode(),
                    want.encode(),
                    "{:?} at {} diverged from the filtered replay",
                    narrow,
                    t
                );
            }
        }
    }
}
