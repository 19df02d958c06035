//! `RibQuery` — the one consumer-facing query surface over a
//! [`RibStore`].
//!
//! A query is a builder: pick an instant ([`at`](RibQuery::at),
//! default = latest complete) or a range
//! ([`history`](RibQuery::history)), narrow by
//! [`prefix`](RibQuery::prefix) / [`origin_asn`](RibQuery::origin_asn)
//! / [`peer`](RibQuery::peer) / [`collector`](RibQuery::collector),
//! then resolve: [`table`](RibQuery::table) materializes the routing
//! table *as of* the instant (time-travel), [`events`](RibQuery::events)
//! returns the journal slice (what changed, when).
//!
//! Resolution is O(snapshot + delta) and reads the snapshot in place:
//!
//! 1. The latest sealed snapshot `S ≤ T` is opened (its checksum is
//!    verified on every query) but not decoded into a [`RibTable`]:
//!    its frame is already in canonical `(collector, peer, prefix)`
//!    order, so it is streamed section by section, row by row.
//! 2. The journal tail `[S, T]` is folded into a small delta table
//!    through [`RibTable::apply`], the same transition function the
//!    fold used, noting which `(peer, prefix)` cells it touched and
//!    which peers it took down.
//! 3. One canonical merge walks the snapshot's sections and the
//!    delta's peers together: a touched cell takes the delta's route
//!    (or is gone, when the delta has none), a peer the delta took
//!    down drops its snapshot section, and a touched peer takes the
//!    delta's latest ASN.
//! 4. Narrowing happens before anything is built: the collector and
//!    peer filters test each section header, the prefix and origin
//!    filters each raw row, and only a row that passes is decoded
//!    into a [`TableRow`].
//!
//! The answer is byte-identical to replaying the whole journal from
//! genesis and filtering [`RibTable::view`] by hand
//! (`tests/equivalence.rs`).

use std::fmt;
use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, Prefix};
use bgpstream::codec::{ip_sort_key, prefix_sort_key};
use fxhash::FxHashMap;

use crate::store::RibStore;
use crate::table::{RibAction, RibEvent, RibRoute, RibTable, TableReader, TableRow, TableView};

/// Why a query could not resolve.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RibError {
    /// The requested instant is at or past the fold watermark — the
    /// RIB is not yet complete there. Retry later (live) or lower `T`.
    BeyondWatermark {
        /// The instant asked for.
        requested: u64,
        /// Folds are complete strictly below this.
        watermark: u64,
    },
    /// Nothing has been folded into the store yet.
    EmptyStore,
    /// [`events`](RibQuery::events) needs a
    /// [`history`](RibQuery::history) range.
    MissingHistoryRange,
    /// A stored snapshot failed to open (torn write, version skew).
    Corrupt(String),
}

impl fmt::Display for RibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RibError::BeyondWatermark {
                requested,
                watermark,
            } => write!(
                f,
                "instant {requested} is beyond the RIB watermark (complete below {watermark})"
            ),
            RibError::EmptyStore => write!(f, "the RIB store holds no folded state yet"),
            RibError::MissingHistoryRange => {
                write!(f, "events() needs a history(from, to) range")
            }
            RibError::Corrupt(msg) => write!(f, "corrupt RIB artifact: {msg}"),
        }
    }
}

impl std::error::Error for RibError {}

/// A time-travel query over reconstructed RIB state. See the module
/// docs; construction is `RibQuery::new()` plus chained narrowing.
#[derive(Clone, Debug, Default)]
pub struct RibQuery {
    at: Option<u64>,
    history: Option<(u64, u64)>,
    prefix: Option<(Prefix, PrefixMatch)>,
    origin: Option<Asn>,
    peer: Option<IpAddr>,
    collector: Option<String>,
}

impl RibQuery {
    /// An unconstrained query (resolves the full latest table).
    pub fn new() -> Self {
        RibQuery::default()
    }

    /// Resolve the table as of instant `t` (must be below the store
    /// watermark). Without this, [`table`](RibQuery::table) resolves
    /// the latest complete instant.
    pub fn at(mut self, t: u64) -> Self {
        self.at = Some(t);
        self
    }

    /// Select the journal range `[from, to]` (inclusive) for
    /// [`events`](RibQuery::events).
    pub fn history(mut self, from: u64, to: u64) -> Self {
        self.history = Some((from, to));
        self
    }

    /// Keep only this exact prefix.
    pub fn prefix(self, prefix: Prefix) -> Self {
        self.prefix_matching(prefix, PrefixMatch::Exact)
    }

    /// Keep prefixes related to `prefix` under `mode` (the four
    /// filter-language match modes: exact, more-specific,
    /// less-specific, any overlap).
    pub fn prefix_matching(mut self, prefix: Prefix, mode: PrefixMatch) -> Self {
        self.prefix = Some((prefix, mode));
        self
    }

    /// Keep only routes originated by this AS.
    pub fn origin_asn(mut self, asn: Asn) -> Self {
        self.origin = Some(asn);
        self
    }

    /// Keep only this vantage point's Loc-RIB.
    pub fn peer(mut self, peer: IpAddr) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Keep only vantage points of this collector.
    pub fn collector(mut self, name: impl Into<String>) -> Self {
        self.collector = Some(name.into());
        self
    }

    /// Materialize the routing table as of the queried instant: the
    /// latest snapshot `S ≤ T` streamed in canonical order, the
    /// journal tail `[S, T]` merged in, the query's narrowing filters
    /// applied before any row is built.
    pub fn table(&self, store: &dyn RibStore) -> Result<TableView, RibError> {
        let watermark = store.watermark();
        if watermark == 0 {
            return Err(RibError::EmptyStore);
        }
        let at = self.at.unwrap_or(watermark - 1);
        if at >= watermark {
            return Err(RibError::BeyondWatermark {
                requested: at,
                watermark,
            });
        }
        let snap = store.snapshot_at(at);
        let frame = match &snap {
            Some(snap) => Some(TableReader::open(snap.frame()).map_err(RibError::Corrupt)?),
            None => None,
        };
        // The snapshot holds events with time < S; the journal tail
        // [S, at] is exactly what is missing.
        let events = store.events_in(snap.as_ref().map_or(0, |s| s.at), at);
        let mut delta = RibTable::new();
        for ev in &events {
            delta.apply(ev);
        }
        let rows = self
            .merge(frame, &touched(&events, &delta))
            .map_err(RibError::Corrupt)?;
        Ok(TableView { at, rows })
    }

    /// Walk the snapshot's sections and the delta's peers in one
    /// canonical merge, building a row only for a cell that passes the
    /// query's filters.
    fn merge(
        &self,
        mut frame: Option<TableReader<'_>>,
        delta: &[DeltaPeer<'_>],
    ) -> Result<Vec<TableRow>, String> {
        let mut rows = Vec::new();
        let mut delta = delta.iter().peekable();
        loop {
            let section = match frame.as_mut() {
                Some(reader) => reader.next_section()?,
                None => None,
            };
            let key = section
                .as_ref()
                .map(|s| (s.collector, ip_sort_key(&s.peer)));
            // Peers the snapshot does not hold, ordered before it.
            while let Some(d) = delta.next_if(|d| key.is_none_or(|k| d.key() < k)) {
                if self.matches_meta(d.collector, &d.peer) {
                    let peer = (d.collector.clone(), d.peer, d.peer_asn);
                    self.push_cells(&mut rows, &peer, &d.cells);
                }
            }
            let (Some(section), Some(reader)) = (section, frame.as_mut()) else {
                return Ok(rows);
            };
            let d = delta.next_if(|d| key == Some(d.key()));
            if !self.matches_meta(section.collector, &section.peer) {
                continue;
            }
            let peer = match d {
                Some(d) => (d.collector.clone(), d.peer, d.peer_asn),
                None => (Arc::from(section.collector), section.peer, section.peer_asn),
            };
            let mut cells = d.map_or(&[][..], |d| &d.cells);
            if d.is_some_and(|d| d.down) {
                // Taken down in the delta: the snapshot section is void.
                self.push_cells(&mut rows, &peer, cells);
                continue;
            }
            while let Some(row) = reader.next_row()? {
                // Touched cells up to this row's prefix go first; when
                // one is this row's cell, the delta's value wins.
                let key = prefix_sort_key(&row.prefix);
                let upto = cells.partition_point(|(p, _)| prefix_sort_key(p) <= key);
                let touched = cells[..upto].last().is_some_and(|(p, _)| *p == row.prefix);
                self.push_cells(&mut rows, &peer, &cells[..upto]);
                cells = &cells[upto..];
                if !touched && self.matches_row(&row.prefix, row.origin) {
                    let (collector, peer, peer_asn) = &peer;
                    rows.push(TableRow {
                        collector: collector.clone(),
                        peer: *peer,
                        peer_asn: *peer_asn,
                        prefix: row.prefix,
                        route: row.route()?,
                    });
                }
            }
            self.push_cells(&mut rows, &peer, cells);
        }
    }

    /// Append the delta's live routes among `cells` that pass the
    /// filters.
    fn push_cells(
        &self,
        rows: &mut Vec<TableRow>,
        (collector, peer, peer_asn): &(Arc<str>, IpAddr, Asn),
        cells: &[(Prefix, Option<&RibRoute>)],
    ) {
        for (prefix, route) in cells {
            let Some(route) = route else { continue };
            if self.matches_row(prefix, route.origin_asn()) {
                rows.push(TableRow {
                    collector: collector.clone(),
                    peer: *peer,
                    peer_asn: *peer_asn,
                    prefix: *prefix,
                    route: (*route).clone(),
                });
            }
        }
    }

    /// The journal slice for the [`history`](RibQuery::history)
    /// range, narrowed by the query's filters.
    pub fn events(&self, store: &dyn RibStore) -> Result<Vec<RibEvent>, RibError> {
        let (from, to) = self.history.ok_or(RibError::MissingHistoryRange)?;
        let watermark = store.watermark();
        if watermark == 0 {
            return Err(RibError::EmptyStore);
        }
        if to >= watermark {
            return Err(RibError::BeyondWatermark {
                requested: to,
                watermark,
            });
        }
        Ok(store
            .events_in(from, to)
            .into_iter()
            .filter(|ev| self.matches_event(ev))
            .collect())
    }

    fn matches_meta(&self, collector: &str, peer: &IpAddr) -> bool {
        self.collector.as_deref().is_none_or(|c| c == collector)
            && self.peer.is_none_or(|p| p == *peer)
    }

    fn matches_row(&self, prefix: &Prefix, origin: Option<Asn>) -> bool {
        self.matches_prefix(prefix) && self.origin.is_none_or(|o| origin == Some(o))
    }

    fn matches_prefix(&self, prefix: &Prefix) -> bool {
        let Some((f, mode)) = &self.prefix else {
            return true;
        };
        match mode {
            PrefixMatch::Exact => f == prefix,
            PrefixMatch::MoreSpecific => f.contains(prefix),
            PrefixMatch::LessSpecific => prefix.contains(f),
            PrefixMatch::Any => f.overlaps(prefix),
        }
    }

    fn matches_event(&self, ev: &RibEvent) -> bool {
        if !self.matches_meta(&ev.collector, &ev.peer) {
            return false;
        }
        match ev.prefix() {
            Some(p) => {
                if !self.matches_prefix(p) {
                    return false;
                }
            }
            // Session events carry no prefix: they pass only when the
            // query does not narrow by prefix or origin.
            None => {
                if self.prefix.is_some() || self.origin.is_some() {
                    return false;
                }
            }
        }
        if let Some(origin) = self.origin {
            // Only announcements carry an origin; withdrawals are
            // excluded from origin-narrowed histories.
            let RibAction::Announce { route, .. } = &ev.action else {
                return false;
            };
            if route.origin_asn() != Some(origin) {
                return false;
            }
        }
        true
    }
}

/// One peer the journal tail touched: what the merge needs to lay its
/// events over the snapshot.
struct DeltaPeer<'d> {
    collector: &'d Arc<str>,
    peer: IpAddr,
    /// The tail's latest ASN for the peer.
    peer_asn: Asn,
    /// The tail took the peer down, so the snapshot's section is void.
    down: bool,
    /// The cells the tail touched (since its last `PeerDown`), in
    /// canonical prefix order, with the tail's final route; `None` is
    /// a withdrawal.
    cells: Vec<(Prefix, Option<&'d RibRoute>)>,
}

impl DeltaPeer<'_> {
    fn key(&self) -> (&str, (bool, u128)) {
        (self.collector, ip_sort_key(&self.peer))
    }
}

/// Which peers and cells `events` touched, in canonical order, with the
/// values `delta` (the same events folded) holds for them.
fn touched<'d>(events: &'d [RibEvent], delta: &'d RibTable) -> Vec<DeltaPeer<'d>> {
    let mut index: FxHashMap<(&str, IpAddr), usize> = FxHashMap::default();
    let mut out: Vec<DeltaPeer<'d>> = Vec::new();
    for ev in events {
        let i = *index.entry((&ev.collector, ev.peer)).or_insert_with(|| {
            out.push(DeltaPeer {
                collector: &ev.collector,
                peer: ev.peer,
                peer_asn: ev.peer_asn,
                down: false,
                cells: Vec::new(),
            });
            out.len() - 1
        });
        let peer = &mut out[i];
        match &ev.action {
            RibAction::Announce { prefix, .. } | RibAction::Withdraw { prefix } => {
                peer.cells.push((*prefix, None))
            }
            RibAction::PeerUp => {}
            RibAction::PeerDown => {
                peer.down = true;
                peer.cells.clear();
            }
        }
    }
    for peer in &mut out {
        peer.cells.sort_unstable_by_key(|(p, _)| prefix_sort_key(p));
        peer.cells.dedup_by_key(|(p, _)| *p);
        // Present: every event creates its peer's Loc-RIB.
        if let Some(rib) = delta.loc_rib(peer.collector, &peer.peer) {
            peer.peer_asn = rib.peer_asn;
            for (prefix, route) in &mut peer.cells {
                *route = rib.route(prefix);
            }
        }
    }
    out.sort_unstable_by(|a, b| a.key().cmp(&b.key()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemoryRibStore, Snapshot};
    use crate::table::{RibAction, RibRoute};
    use bgp_types::{AsPath, AsPathSegment};
    use std::sync::Arc;

    fn announce(
        time: u64,
        collector: &str,
        peer: &str,
        asn: u32,
        prefix: &str,
        path: &[u32],
    ) -> RibEvent {
        RibEvent {
            time,
            collector: collector.into(),
            peer: peer.parse().unwrap(),
            peer_asn: Asn(asn),
            action: RibAction::Announce {
                prefix: prefix.parse().unwrap(),
                route: RibRoute {
                    path: Some(AsPath::from_sequence(path.iter().copied())),
                    next_hop: None,
                    communities: Default::default(),
                    updated_at: time,
                },
            },
        }
    }

    fn withdraw(time: u64, collector: &str, peer: &str, asn: u32, prefix: &str) -> RibEvent {
        RibEvent {
            time,
            collector: collector.into(),
            peer: peer.parse().unwrap(),
            peer_asn: Asn(asn),
            action: RibAction::Withdraw {
                prefix: prefix.parse().unwrap(),
            },
        }
    }

    fn seeded_store() -> Arc<MemoryRibStore> {
        let store = MemoryRibStore::shared();
        store.publish(
            100,
            vec![
                announce(10, "rrc00", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 20]),
                announce(20, "rrc00", "10.0.0.9", 65001, "2.0.0.0/8", &[65001, 30]),
                announce(
                    30,
                    "route-views2",
                    "10.0.1.9",
                    65002,
                    "1.0.0.0/8",
                    &[65002, 99],
                ),
            ],
            None,
        );
        store.publish(
            200,
            vec![withdraw(150, "rrc00", "10.0.0.9", 65001, "2.0.0.0/8")],
            None,
        );
        store
    }

    #[test]
    fn time_travel_sees_state_as_of_the_instant() {
        let store = seeded_store();
        let before = RibQuery::new().at(149).table(&*store).unwrap();
        assert_eq!(before.len(), 3);
        let after = RibQuery::new().at(199).table(&*store).unwrap();
        assert_eq!(after.len(), 2);
        // Default instant = latest complete.
        let latest = RibQuery::new().table(&*store).unwrap();
        assert_eq!(latest.at, 199);
        assert_eq!(latest.encode(), after.encode());
    }

    #[test]
    fn narrowing_filters_compose() {
        let store = seeded_store();
        let q = RibQuery::new().at(149).prefix("1.0.0.0/8".parse().unwrap());
        let view = q.table(&*store).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.origin_asns(), vec![Asn(20), Asn(99)]);
        let one = RibQuery::new()
            .at(149)
            .prefix("1.0.0.0/8".parse().unwrap())
            .collector("rrc00")
            .table(&*store)
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.rows[0].peer_asn, Asn(65001));
        let origin = RibQuery::new()
            .at(149)
            .origin_asn(Asn(99))
            .table(&*store)
            .unwrap();
        assert_eq!(origin.len(), 1);
        let peered = RibQuery::new()
            .at(149)
            .peer("10.0.1.9".parse().unwrap())
            .table(&*store)
            .unwrap();
        assert_eq!(peered.len(), 1);
    }

    #[test]
    fn watermark_is_enforced() {
        let store = seeded_store();
        assert_eq!(
            RibQuery::new().at(200).table(&*store),
            Err(RibError::BeyondWatermark {
                requested: 200,
                watermark: 200
            })
        );
        assert!(RibQuery::new().at(199).table(&*store).is_ok());
        let empty = MemoryRibStore::new();
        assert_eq!(RibQuery::new().table(&empty), Err(RibError::EmptyStore));
    }

    #[test]
    fn history_mode_slices_and_filters_the_journal() {
        let store = seeded_store();
        assert_eq!(
            RibQuery::new().events(&*store),
            Err(RibError::MissingHistoryRange)
        );
        let all = RibQuery::new().history(0, 199).events(&*store).unwrap();
        assert_eq!(all.len(), 4);
        let pfx = RibQuery::new()
            .history(0, 199)
            .prefix("2.0.0.0/8".parse().unwrap())
            .events(&*store)
            .unwrap();
        assert_eq!(pfx.len(), 2);
        assert!(matches!(pfx[1].action, RibAction::Withdraw { .. }));
        let origin = RibQuery::new()
            .history(0, 199)
            .origin_asn(Asn(99))
            .events(&*store)
            .unwrap();
        assert_eq!(origin.len(), 1);
        assert_eq!(
            RibQuery::new().history(0, 200).events(&*store),
            Err(RibError::BeyondWatermark {
                requested: 200,
                watermark: 200
            })
        );
    }

    #[test]
    fn as_set_origin_survives_the_snapshot() {
        let mut ev = announce(10, "rrc00", "10.0.0.9", 65001, "1.0.0.0/8", &[]);
        if let RibAction::Announce { route, .. } = &mut ev.action {
            route.path = Some(AsPath::from_segments(vec![
                AsPathSegment::Sequence(vec![Asn(65001), Asn(3356)]),
                AsPathSegment::Set(vec![Asn(7), Asn(8)]),
            ]));
        }
        let journal = MemoryRibStore::new();
        journal.publish(100, vec![ev.clone()], None);
        let mut table = RibTable::new();
        table.apply(&ev);
        let snapped = MemoryRibStore::new();
        snapped.publish(50, vec![ev], Some(Snapshot::seal(50, &table)));
        snapped.publish(100, vec![], None);
        for store in [&journal, &snapped] {
            let q = RibQuery::new().at(60).origin_asn(Asn(8));
            assert_eq!(q.table(store).unwrap().len(), 0);
        }
        let full = |store: &MemoryRibStore| RibQuery::new().at(60).table(store).unwrap().encode();
        assert_eq!(full(&journal), full(&snapped));
    }

    #[test]
    fn corrupt_snapshots_fail_with_corrupt() {
        let mut table = RibTable::new();
        table.apply(&announce(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            "1.0.0.0/8",
            &[65001, 20],
        ));
        let frame = table.seal();
        // Frame length, version, section count, name, peer, peer ASN,
        // up flag: then the route count and the row's prefix.
        let count_at = 4 + 1 + 4 + 2 + "rrc00".len() + 17 + 4 + 1;
        let len_at = count_at + 4 + 1;
        let reseal = |at: usize, bytes: &[u8]| {
            let mut payload = frame[4..frame.len() - 8].to_vec();
            payload[at - 4..at - 4 + bytes.len()].copy_from_slice(bytes);
            bgpstream::codec::seal_frame(&payload)
        };
        let frames = [
            frame[..frame.len() - 2].to_vec(),
            reseal(count_at, &u32::MAX.to_be_bytes()),
            reseal(len_at, &[33]),
        ];
        for bad in frames {
            let store = MemoryRibStore::new();
            store.publish(100, vec![], Some(Snapshot::from_frame(50, bad)));
            assert!(matches!(
                RibQuery::new().at(60).table(&store),
                Err(RibError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn snapshot_plus_delta_equals_full_replay() {
        let store = seeded_store();
        // Manually seal a snapshot at 100 (events < 100) and verify
        // at(199) resolves identically with and without it.
        let full = RibQuery::new().at(199).table(&*store).unwrap();
        let mut table = RibTable::new();
        for ev in store.events_in(0, 99) {
            table.apply(&ev);
        }
        let snapped = MemoryRibStore::new();
        snapped.publish(
            100,
            store.events_in(0, 99),
            Some(Snapshot::seal(100, &table)),
        );
        snapped.publish(200, store.events_in(100, 199), None);
        let via_snapshot = RibQuery::new().at(199).table(&snapped).unwrap();
        assert_eq!(via_snapshot.encode(), full.encode());
    }
}
