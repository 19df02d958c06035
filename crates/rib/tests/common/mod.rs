//! The generated record streams the RIB equivalence proofs share:
//! updates (announcements, AS_SET-terminated paths, withdrawals,
//! session flaps, one peer that renumbers) interleaved with RIB dumps
//! of two collectors, and the paper's data faults — corrupted dump
//! records (E1), rows older than the updates before them (E2),
//! corrupted Updates records (E3), and routes or whole VPs missing
//! from a later dump. Each test target uses a part of it.
#![allow(dead_code)]

use bgp_types::{AsPath, AsPathSegment, Asn, Community, CommunitySet, SessionState};
use bgpstream::elem::{BgpStreamElem, ElemType};
use bgpstream::record::{DumpPosition, RecordStatus};
use bgpstream::BgpStreamRecord;
use broker::DumpType;
use proptest::collection::vec;
use proptest::prelude::*;

pub const PEERS: &[&str] = &["192.0.2.1", "192.0.2.2", "2001:db8::1"];
pub const PREFIXES: &[&str] = &[
    "203.0.113.0/24",
    "198.51.100.0/24",
    "203.0.113.128/25",
    "2001:db8:1::/48",
];
pub const COLLECTORS: &[(&str, &str)] = &[("ris", "rrc00"), ("routeviews", "route-views2")];
/// How much older than its record a dump row may be (E2).
const ROW_AGES: [u64; 4] = [0, 0, 40, 400];

/// What one generated record is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// A valid Updates record.
    Updates,
    /// An Updates record that failed to decode (E3).
    CorruptUpdates,
    /// The first record of a RIB dump, without rows.
    DumpStart,
    /// A RIB dump record carrying rows.
    DumpRows,
    /// A RIB dump record that failed to decode (E1).
    CorruptDump,
    /// The last record of a RIB dump, carrying rows.
    DumpEnd,
}

/// One generated elem: what kind, from which pooled peer, about which
/// pooled prefix, with which origin AS, and (as a dump row) how old.
#[derive(Clone, Debug)]
pub struct GenElem {
    kind: u8,
    peer: usize,
    prefix: usize,
    origin: u32,
    age: usize,
}

/// One generated record: a time increment, a collector, its kind,
/// whether the first pooled peer shows its other ASN, and its elems.
#[derive(Clone, Debug)]
pub struct GenRecord {
    dt: u64,
    collector: usize,
    kind: Kind,
    renumbered: bool,
    elems: Vec<GenElem>,
}

pub fn arb_record() -> impl Strategy<Value = GenRecord> {
    (
        0u64..400,
        0usize..COLLECTORS.len(),
        0u8..12,
        any::<bool>(),
        vec(
            (
                0u8..5,
                0usize..PEERS.len(),
                0usize..PREFIXES.len(),
                1u32..16,
                0usize..ROW_AGES.len(),
            ),
            1..4,
        ),
    )
        .prop_map(|(dt, collector, kind, renumbered, elems)| GenRecord {
            dt,
            collector,
            kind: match kind {
                0..=4 => Kind::Updates,
                5 => Kind::DumpStart,
                6..=8 => Kind::DumpRows,
                9 => Kind::DumpEnd,
                10 => Kind::CorruptDump,
                _ => Kind::CorruptUpdates,
            },
            renumbered,
            elems: elems
                .into_iter()
                .map(|(kind, peer, prefix, origin, age)| GenElem {
                    kind,
                    peer,
                    prefix,
                    origin,
                    age,
                })
                .collect(),
        })
}

/// Materialize the generated stream as time-sorted records.
pub fn materialize(gen: &[GenRecord]) -> Vec<BgpStreamRecord> {
    let mut t = 0u64;
    let mut out = Vec::with_capacity(gen.len());
    for g in gen {
        t += g.dt;
        let (project, collector) = COLLECTORS[g.collector];
        let rib = matches!(
            g.kind,
            Kind::DumpStart | Kind::DumpRows | Kind::CorruptDump | Kind::DumpEnd
        );
        let mut elems = Vec::new();
        for e in g
            .elems
            .iter()
            .filter(|_| matches!(g.kind, Kind::Updates | Kind::DumpRows | Kind::DumpEnd))
        {
            let peer_address = PEERS[e.peer].parse().unwrap();
            // The first pooled peer changes its ASN from record to record.
            let peer_asn = match (e.peer, g.renumbered) {
                (0, true) => Asn(64999),
                _ => Asn(65000 + e.peer as u32),
            };
            let prefix = Some(PREFIXES[e.prefix].parse().unwrap());
            let announce = |aggregated: bool| BgpStreamElem {
                elem_type: ElemType::Announcement,
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
            if rib {
                // A dump row, possibly older than the record (E2).
                elems.push(BgpStreamElem {
                    elem_type: ElemType::RibEntry,
                    time: t.saturating_sub(ROW_AGES[e.age]),
                    ..announce(e.kind == 1)
                });
                continue;
            }
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
            if rib {
                DumpType::Rib
            } else {
                DumpType::Updates
            },
            t,
            t,
            match g.kind {
                Kind::DumpStart => DumpPosition::Start,
                Kind::DumpEnd => DumpPosition::End,
                _ => DumpPosition::Middle,
            },
            match g.kind {
                Kind::CorruptDump | Kind::CorruptUpdates => RecordStatus::CorruptedRecord,
                _ => RecordStatus::Valid,
            },
            elems,
        ));
    }
    out
}
