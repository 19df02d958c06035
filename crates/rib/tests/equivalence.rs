//! The tentpole equivalence proof: for **any** generated update
//! stream, snapshot cadence, bin size and crash plan, a time-travel
//! query answered from the nearest sealed snapshot plus the event
//! delta is byte-identical to a full replay of the journal from
//! genesis — and the store contents themselves are unperturbed by
//! checkpoint/restore crashes mid-bin (the supervisor's recovery
//! model: restore the last bin-boundary checkpoint, replay the open
//! bin, and rely on the store's idempotent publication to drop
//! duplicates). Narrowed queries (every prefix match mode, origin,
//! peer, collector) must equal the same filter applied by hand to the
//! full replay.

use std::sync::Arc;

use bgp_types::{AsPath, AsPathSegment, Asn, Community, CommunitySet, Prefix, SessionState};
use bgpstream::elem::{BgpStreamElem, ElemType};
use bgpstream::record::{DumpPosition, RecordStatus};
use bgpstream::BgpStreamRecord;
use broker::DumpType;
use proptest::collection::vec;
use proptest::prelude::*;
use rib::{MemoryRibStore, PrefixMatch, RibFold, RibQuery, RibStore, RibTable, TableRow};

const PEERS: &[&str] = &["192.0.2.1", "192.0.2.2", "2001:db8::1"];
const PREFIXES: &[&str] = &[
    "203.0.113.0/24",
    "198.51.100.0/24",
    "203.0.113.128/25",
    "2001:db8:1::/48",
];
const COLLECTORS: &[(&str, &str)] = &[("ris", "rrc00"), ("routeviews", "route-views2")];
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

/// One generated elem: what kind, from which pooled peer, about which
/// pooled prefix, with which origin AS.
#[derive(Clone, Debug)]
struct GenElem {
    kind: u8,
    peer: usize,
    prefix: usize,
    origin: u32,
}

/// One generated record: a time increment, a collector, whether it is
/// a RIB-dump record (bootstrap path) or an updates record, whether
/// the first pooled peer shows its other ASN, and its elems.
#[derive(Clone, Debug)]
struct GenRecord {
    dt: u64,
    collector: usize,
    rib: bool,
    renumbered: bool,
    elems: Vec<GenElem>,
}

fn arb_record() -> impl Strategy<Value = GenRecord> {
    (
        0u64..400,
        0usize..COLLECTORS.len(),
        any::<bool>(),
        any::<bool>(),
        vec(
            (
                0u8..5,
                0usize..PEERS.len(),
                0usize..PREFIXES.len(),
                1u32..16,
            ),
            1..4,
        ),
    )
        .prop_map(|(dt, collector, rib, renumbered, elems)| GenRecord {
            dt,
            collector,
            rib,
            renumbered,
            elems: elems
                .into_iter()
                .map(|(kind, peer, prefix, origin)| GenElem {
                    kind,
                    peer,
                    prefix,
                    origin,
                })
                .collect(),
        })
}

/// Materialize the generated stream as time-sorted records.
fn materialize(gen: &[GenRecord]) -> Vec<BgpStreamRecord> {
    let mut t = 0u64;
    let mut out = Vec::with_capacity(gen.len());
    for g in gen {
        t += g.dt;
        let (project, collector) = COLLECTORS[g.collector];
        let mut elems = Vec::new();
        for e in &g.elems {
            let peer_address = PEERS[e.peer].parse().unwrap();
            // The first pooled peer changes its ASN from record to record.
            let peer_asn = match (e.peer, g.renumbered) {
                (0, true) => Asn(64999),
                _ => Asn(65000 + e.peer as u32),
            };
            let prefix = Some(PREFIXES[e.prefix].parse().unwrap());
            let announce = |aggregated: bool| BgpStreamElem {
                // A RIB-dump record's rows take the bootstrap path.
                elem_type: if g.rib {
                    ElemType::RibEntry
                } else {
                    ElemType::Announcement
                },
                time: t,
                peer_address,
                peer_asn,
                prefix,
                next_hop: Some(peer_address),
                as_path: Some(if aggregated {
                    // Ends in an AS_SET: no single origin.
                    AsPath::from_segments(vec![
                        AsPathSegment::Sequence(vec![peer_asn, Asn(3356)]),
                        AsPathSegment::Set(vec![Asn(e.origin), Asn(e.origin + 1)]),
                    ])
                } else {
                    AsPath::from_sequence([peer_asn.0, 3356, e.origin])
                }),
                communities: Some(CommunitySet::from_iter([Community::new(3356, 666)])),
                old_state: None,
                new_state: None,
            };
            let session = |state| BgpStreamElem {
                elem_type: ElemType::PeerState,
                time: t,
                peer_address,
                peer_asn,
                prefix: None,
                next_hop: None,
                as_path: None,
                communities: None,
                old_state: Some(SessionState::Established),
                new_state: Some(state),
            };
            match e.kind {
                0 | 1 => elems.push(announce(e.kind == 1)),
                2 => elems.push(BgpStreamElem {
                    elem_type: ElemType::Withdrawal,
                    next_hop: None,
                    as_path: None,
                    communities: None,
                    ..announce(false)
                }),
                // Odd origins take the session down, even ones bring
                // it (back) up.
                3 => elems.push(session(if e.origin % 2 == 1 {
                    SessionState::Idle
                } else {
                    SessionState::Established
                })),
                // A flap: down, then re-announced at the same instant,
                // so one delta always holds both.
                _ => {
                    elems.push(session(SessionState::Idle));
                    elems.push(announce(false));
                }
            }
        }
        out.push(BgpStreamRecord::new(
            project,
            collector,
            if g.rib {
                DumpType::Rib
            } else {
                DumpType::Updates
            },
            t,
            t,
            DumpPosition::Middle,
            RecordStatus::Valid,
            elems,
        ));
    }
    out
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
