//! The Loc-RIB table: per-(collector, peer) routing state, the event
//! vocabulary that mutates it, and its canonical serialization.
//!
//! One [`RibTable`] holds the reconstructed Loc-RIB of every vantage
//! point the stream has shown: for each `(collector, peer)` pair a
//! [`LocRib`] maps announced prefixes to their selected route.
//! Mutation happens exclusively through [`RibTable::apply`] on a
//! [`RibEvent`] — the same transition function runs under the
//! historical fold, the live plugin, and query-time delta replay,
//! which is what makes snapshot+delta resolution byte-identical to a
//! full replay.
//!
//! Serialization is canonical: peers sort by `(collector name, peer
//! address)`, routes by prefix, so two tables holding the same routes
//! encode to the same bytes no matter what order events arrived in or
//! how collector ids were interned.

use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::{AsPath, AsPathSegment, Asn, Community, CommunitySet, Prefix};
use bgpstream::codec::{
    get_ip, get_prefix, ip_sort_key, open_frame, prefix_sort_key, put_ip, put_prefix, put_route,
    seal_frame,
};
use bytes::{Buf, BufMut, BytesMut};
use fxhash::FxHashMap;

/// Table serialization format version.
const TABLE_VERSION: u8 = 1;

/// Hop count that marks a path which is not one `AS_SEQUENCE`: a
/// segment count follows, then `(set flag, length, ASNs)` per segment.
/// Single-sequence paths keep `put_route`'s bytes, and `u16::MAX`
/// stays its "absent".
const SEGMENTED_PATH: u16 = u16::MAX - 1;

/// The smallest encoded table row: a prefix, an absent path, no next
/// hop, no communities and the timestamp. Reservations sized from a
/// count read off the wire are bounded by the bytes left over this.
const MIN_ROW_BYTES: usize = 18 + 2 + 1 + 2 + 8;

/// One selected route as held in a peer's Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibRoute {
    /// AS path of the selected route (absent on malformed originals).
    pub path: Option<AsPath>,
    /// Next hop, when the elem carried one.
    pub next_hop: Option<IpAddr>,
    /// Communities attached to the route.
    pub communities: CommunitySet,
    /// Timestamp of the elem that last announced/refreshed the route.
    pub updated_at: u64,
}

impl RibRoute {
    /// Origin AS of the path, if determinable.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.path.as_ref().and_then(|p| p.origin())
    }
}

/// What a [`RibEvent`] does to its peer's Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RibAction {
    /// Install (or implicitly replace) the route for a prefix. Both
    /// RIB-dump rows (bootstrap) and announcements fold to this.
    Announce {
        /// The announced prefix.
        prefix: Prefix,
        /// The selected route.
        route: RibRoute,
    },
    /// Remove the route for a prefix (no-op when absent).
    Withdraw {
        /// The withdrawn prefix.
        prefix: Prefix,
    },
    /// The peer session reached Established.
    PeerUp,
    /// The peer session left Established: the peer's table is cleared
    /// (routes learned from a down session are stale by definition).
    PeerDown,
}

/// One entry of the RIB journal: a timestamped state transition of a
/// single `(collector, peer)` Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibEvent {
    /// Elem timestamp (the sorted stream makes these monotone).
    pub time: u64,
    /// Collector the vantage point peers with.
    pub collector: Arc<str>,
    /// Vantage-point address.
    pub peer: IpAddr,
    /// Vantage-point AS number.
    pub peer_asn: Asn,
    /// The transition.
    pub action: RibAction,
}

impl RibEvent {
    /// The prefix the event touches, when it touches one.
    pub fn prefix(&self) -> Option<&Prefix> {
        match &self.action {
            RibAction::Announce { prefix, .. } | RibAction::Withdraw { prefix } => Some(prefix),
            RibAction::PeerUp | RibAction::PeerDown => None,
        }
    }

    /// Append the wire form to `out` (used by fold checkpoints).
    pub fn encode_into(&self, out: &mut BytesMut) {
        let kind: u8 = match &self.action {
            RibAction::Announce { .. } => 0,
            RibAction::Withdraw { .. } => 1,
            RibAction::PeerUp => 2,
            RibAction::PeerDown => 3,
        };
        out.put_u8(kind);
        out.put_u64(self.time);
        out.put_u16(self.collector.len() as u16);
        out.put_slice(self.collector.as_bytes());
        put_ip(out, &self.peer);
        out.put_u32(self.peer_asn.0);
        match &self.action {
            RibAction::Announce { prefix, route } => {
                put_prefix(out, prefix);
                put_rib_route(out, route);
            }
            RibAction::Withdraw { prefix } => put_prefix(out, prefix),
            RibAction::PeerUp | RibAction::PeerDown => {}
        }
    }

    /// Decode one event, advancing `buf` past it.
    pub fn decode(buf: &mut &[u8]) -> Result<RibEvent, String> {
        let mut head = take(buf, 1 + 8 + 2, "truncated rib event header")?;
        let (kind, time) = (head.get_u8(), head.get_u64());
        let name = take(
            buf,
            head.get_u16() as usize,
            "truncated rib event collector",
        )?;
        let collector: Arc<str> = String::from_utf8_lossy(name).into();
        let peer = get_ip(buf)?;
        let peer_asn = Asn(take(buf, 4, "truncated rib event peer asn")?.get_u32());
        let action = match kind {
            0 => RibAction::Announce {
                prefix: get_prefix(buf)?,
                route: get_rib_route(buf)?,
            },
            1 => RibAction::Withdraw {
                prefix: get_prefix(buf)?,
            },
            2 => RibAction::PeerUp,
            3 => RibAction::PeerDown,
            k => return Err(format!("unknown rib event kind {k}")),
        };
        Ok(RibEvent {
            time,
            collector,
            peer,
            peer_asn,
            action,
        })
    }
}

/// Append an optional path, keeping its segment structure (the shared
/// [`put_route`] flattens it into one `AS_SEQUENCE`).
fn put_rib_path(out: &mut BytesMut, path: &Option<AsPath>) {
    match path.as_ref().map(AsPath::segments) {
        None => put_route(out, path),
        Some([AsPathSegment::Sequence(hops)]) if hops.len() < SEGMENTED_PATH as usize => {
            put_route(out, path)
        }
        Some(segments) => {
            out.put_u16(SEGMENTED_PATH);
            out.put_u16(segments.len() as u16);
            for seg in segments {
                out.put_u8(matches!(seg, AsPathSegment::Set(_)) as u8);
                out.put_u16(seg.len() as u16);
                for asn in seg.asns() {
                    out.put_u32(asn.0);
                }
            }
        }
    }
}

/// Walk a [`put_rib_path`] path, advancing `buf` past it and handing
/// each segment's set flag and raw ASNs to `segment`. Returns `false`
/// for an absent path.
fn walk_rib_path<'a>(
    buf: &mut &'a [u8],
    mut segment: impl FnMut(bool, &'a [u8]),
) -> Result<bool, String> {
    match take(buf, 2, "truncated path count")?.get_u16() {
        u16::MAX => return Ok(false),
        SEGMENTED_PATH => {
            let count = take(buf, 2, "truncated path segment count")?.get_u16();
            for _ in 0..count {
                let mut head = take(buf, 3, "truncated path segment")?;
                let set = match head.get_u8() {
                    0 => false,
                    1 => true,
                    k => return Err(format!("unknown path segment kind {k}")),
                };
                segment(
                    set,
                    take(buf, head.get_u16() as usize * 4, "truncated path segment")?,
                );
            }
        }
        hops => segment(false, take(buf, hops as usize * 4, "truncated path")?),
    }
    Ok(true)
}

/// Decode a [`put_rib_path`] path, advancing `buf` past it.
fn get_rib_path(buf: &mut &[u8]) -> Result<Option<AsPath>, String> {
    // Sized for the common single-sequence path.
    let mut segments = Vec::with_capacity(1);
    let present = walk_rib_path(buf, |set, hops| {
        let asns = hops
            .chunks_exact(4)
            .map(|mut hop| Asn(hop.get_u32()))
            .collect();
        segments.push(if set {
            AsPathSegment::Set(asns)
        } else {
            AsPathSegment::Sequence(asns)
        });
    })?;
    Ok(present.then(|| AsPath::from_segments(segments)))
}

/// The last of a run of encoded ASNs.
fn last_asn(asns: &[u8]) -> Option<Asn> {
    let tail = asns.len().checked_sub(4)?;
    let mut last = &asns[tail..];
    Some(Asn(last.get_u32()))
}

/// Split the first `n` bytes off `buf`, or fail with `what`.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
    if buf.len() < n {
        return Err(what.into());
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Split the encoded route at the head of `buf` off without decoding
/// it: its bytes, and the origin AS its path ends in.
fn split_rib_route<'a>(buf: &mut &'a [u8]) -> Result<(&'a [u8], Option<Asn>), String> {
    let start = *buf;
    // What `AsPath::origin` says of the decoded path.
    let mut origin = None;
    walk_rib_path(buf, |set, asns| {
        origin = if set { None } else { last_asn(asns) }
    })?;
    if take(buf, 1, "truncated route next-hop flag")?[0] == 1 {
        take(buf, 17, "truncated ip")?;
    }
    let communities = take(buf, 2, "truncated route community count")?.get_u16() as usize;
    take(buf, communities * 4, "truncated route communities")?;
    take(buf, 8, "truncated route timestamp")?;
    Ok((&start[..start.len() - buf.len()], origin))
}

/// Append a route's wire form to `out`.
pub(crate) fn put_rib_route(out: &mut BytesMut, route: &RibRoute) {
    put_rib_path(out, &route.path);
    match &route.next_hop {
        Some(ip) => {
            out.put_u8(1);
            put_ip(out, ip);
        }
        None => out.put_u8(0),
    }
    out.put_u16(route.communities.len() as u16);
    for c in route.communities.iter() {
        out.put_u16(c.asn);
        out.put_u16(c.value);
    }
    out.put_u64(route.updated_at);
}

/// Decode a [`put_rib_route`] route, advancing `buf` past it.
pub(crate) fn get_rib_route(buf: &mut &[u8]) -> Result<RibRoute, String> {
    let path = get_rib_path(buf)?;
    let next_hop = match take(buf, 1, "truncated route next-hop flag")?[0] {
        1 => Some(get_ip(buf)?),
        _ => None,
    };
    let n = take(buf, 2, "truncated route community count")?.get_u16() as usize;
    let communities = take(buf, n * 4, "truncated route communities")?
        .chunks_exact(4)
        .map(|mut c| Community::new(c.get_u16(), c.get_u16()));
    let communities = CommunitySet::from_iter(communities);
    Ok(RibRoute {
        path,
        next_hop,
        communities,
        updated_at: take(buf, 8, "truncated route timestamp")?.get_u64(),
    })
}

/// One vantage point's reconstructed Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocRib {
    /// The vantage point's AS number (latest seen).
    pub peer_asn: Asn,
    /// Whether the session is believed Established. Routes imply up;
    /// a `PeerDown` clears the table until the next up/announce.
    pub up: bool,
    routes: FxHashMap<Prefix, RibRoute>,
}

impl LocRib {
    fn new(peer_asn: Asn) -> Self {
        LocRib {
            peer_asn,
            up: true,
            routes: FxHashMap::default(),
        }
    }

    /// Number of installed routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The installed route for a prefix, if any.
    pub fn route(&self, prefix: &Prefix) -> Option<&RibRoute> {
        self.routes.get(prefix)
    }

    /// Iterate installed `(prefix, route)` pairs (hash order).
    pub fn routes(&self) -> impl Iterator<Item = (&Prefix, &RibRoute)> {
        self.routes.iter()
    }
}

/// The full reconstructed state: every `(collector, peer)` Loc-RIB.
///
/// Collector names are interned to a `u16` id so per-event lookups
/// hash a `(u16, IpAddr)` key instead of a string. Ids never appear
/// in the canonical serialization (sections sort by *name*), so two
/// tables that interned in different orders still encode identically.
#[derive(Clone, Debug, Default)]
pub struct RibTable {
    collectors: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, u16>,
    peers: FxHashMap<(u16, IpAddr), LocRib>,
}

impl RibTable {
    /// An empty table.
    pub fn new() -> Self {
        RibTable::default()
    }

    fn intern(&mut self, name: &Arc<str>) -> u16 {
        if let Some(&id) = self.ids.get(&**name) {
            return id;
        }
        let id = self.collectors.len() as u16;
        self.collectors.push(name.clone());
        self.ids.insert(name.clone(), id);
        id
    }

    /// Apply one journal event. The single state-transition function:
    /// fold, restore and query-time replay all route through here.
    pub fn apply(&mut self, ev: &RibEvent) {
        let cid = self.intern(&ev.collector);
        let rib = self
            .peers
            .entry((cid, ev.peer))
            .or_insert_with(|| LocRib::new(ev.peer_asn));
        rib.peer_asn = ev.peer_asn;
        match &ev.action {
            RibAction::Announce { prefix, route } => {
                rib.up = true;
                // Implicit replace: a newer selection for the same
                // prefix overwrites whatever was installed.
                rib.routes.insert(*prefix, route.clone());
            }
            RibAction::Withdraw { prefix } => {
                rib.routes.remove(prefix);
            }
            RibAction::PeerUp => rib.up = true,
            RibAction::PeerDown => {
                rib.up = false;
                rib.routes.clear();
            }
        }
    }

    /// Number of known vantage points.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Total installed routes across all vantage points.
    pub fn route_count(&self) -> usize {
        self.peers.values().map(|p| p.routes.len()).sum()
    }

    /// The Loc-RIB of one vantage point.
    pub fn loc_rib(&self, collector: &str, peer: &IpAddr) -> Option<&LocRib> {
        let id = *self.ids.get(collector)?;
        self.peers.get(&(id, *peer))
    }

    /// Materialize the canonically ordered view of the whole table.
    pub fn view(&self, at: u64) -> TableView {
        let mut rows = Vec::with_capacity(self.route_count());
        for ((cid, peer), rib) in &self.peers {
            let collector = self.collectors[*cid as usize].clone();
            for (prefix, route) in &rib.routes {
                rows.push(TableRow {
                    collector: collector.clone(),
                    peer: *peer,
                    peer_asn: rib.peer_asn,
                    prefix: *prefix,
                    route: route.clone(),
                });
            }
        }
        rows.sort_by(|a, b| {
            (
                &*a.collector,
                ip_sort_key(&a.peer),
                prefix_sort_key(&a.prefix),
            )
                .cmp(&(
                    &*b.collector,
                    ip_sort_key(&b.peer),
                    prefix_sort_key(&b.prefix),
                ))
        });
        TableView { at, rows }
    }

    /// Canonical serialization: sections sorted by `(collector name,
    /// peer address)`, routes by prefix. Intern order does not leak.
    pub fn encode(&self) -> Vec<u8> {
        let mut keys: Vec<&(u16, IpAddr)> = self.peers.keys().collect();
        keys.sort_by(|a, b| {
            (&*self.collectors[a.0 as usize], ip_sort_key(&a.1))
                .cmp(&(&*self.collectors[b.0 as usize], ip_sort_key(&b.1)))
        });
        let mut out = BytesMut::new();
        out.put_u8(TABLE_VERSION);
        out.put_u32(keys.len() as u32);
        for key in keys {
            let name = &self.collectors[key.0 as usize];
            // Present by construction: the key came out of the map.
            let Some(rib) = self.peers.get(key) else {
                continue;
            };
            out.put_u16(name.len() as u16);
            out.put_slice(name.as_bytes());
            put_ip(&mut out, &key.1);
            out.put_u32(rib.peer_asn.0);
            out.put_u8(rib.up as u8);
            let mut prefixes: Vec<&Prefix> = rib.routes.keys().collect();
            prefixes.sort_by_key(|p| prefix_sort_key(p));
            out.put_u32(prefixes.len() as u32);
            for p in prefixes {
                let Some(route) = rib.routes.get(p) else {
                    continue;
                };
                put_prefix(&mut out, p);
                put_rib_route(&mut out, route);
            }
        }
        out.to_vec()
    }

    /// Decode an [`encode`](RibTable::encode)d table.
    pub fn decode(buf: &[u8]) -> Result<RibTable, String> {
        let mut reader = TableReader::new(buf)?;
        let mut table = RibTable::new();
        while let Some(section) = reader.next_section()? {
            let cid = table.intern(&Arc::from(section.collector));
            let mut rib = LocRib::new(section.peer_asn);
            rib.up = section.up;
            rib.routes.reserve(section.capacity);
            while let Some(row) = reader.next_row()? {
                rib.routes.insert(row.prefix, row.route()?);
            }
            table.peers.insert((cid, section.peer), rib);
        }
        Ok(table)
    }

    /// Seal the canonical serialization into a durable checksum frame
    /// — the restartable snapshot artifact.
    pub fn seal(&self) -> Vec<u8> {
        seal_frame(&self.encode())
    }

    /// Open and decode a [`seal`](RibTable::seal)ed frame, rejecting
    /// torn writes.
    pub fn unseal(frame: &[u8]) -> Result<RibTable, String> {
        RibTable::decode(open_frame(frame)?)
    }
}

/// A section header of an encoded table: one vantage point's Loc-RIB.
pub(crate) struct Section<'a> {
    pub collector: &'a str,
    pub peer: IpAddr,
    pub peer_asn: Asn,
    pub up: bool,
    /// How many rows a caller may reserve for: the section's row
    /// count, bounded by the bytes left in the table.
    pub capacity: usize,
}

/// A row of an encoded table with its route still undecoded.
pub(crate) struct RawRow<'a> {
    pub prefix: Prefix,
    /// Origin AS of the route's path, read off the raw bytes.
    pub origin: Option<Asn>,
    route: &'a [u8],
}

impl RawRow<'_> {
    /// Decode the route.
    pub fn route(&self) -> Result<RibRoute, String> {
        get_rib_route(&mut &self.route[..])
    }
}

/// A streaming reader over an [`encode`](RibTable::encode)d table:
/// section headers and raw rows in the canonical order they were
/// written in, each route decoded only when asked for. Sections must
/// strictly ascend by `(collector, peer)` and rows by prefix, so a
/// frame that repeats or reorders them is rejected.
pub(crate) struct TableReader<'a> {
    buf: &'a [u8],
    sections_left: u32,
    rows_left: u32,
    section: Option<(&'a str, (bool, u128))>,
    prefix: Option<(bool, u8, u128)>,
}

impl<'a> TableReader<'a> {
    /// Verify a [`seal`](RibTable::seal)ed frame's checksum and read
    /// the table inside it.
    pub fn open(frame: &'a [u8]) -> Result<Self, String> {
        TableReader::new(open_frame(frame)?)
    }

    fn new(mut buf: &'a [u8]) -> Result<Self, String> {
        let mut head = take(&mut buf, 5, "truncated rib table header")?;
        let version = head.get_u8();
        if version != TABLE_VERSION {
            return Err(format!("unsupported rib table version {version}"));
        }
        Ok(TableReader {
            buf,
            sections_left: head.get_u32(),
            rows_left: 0,
            section: None,
            prefix: None,
        })
    }

    /// The next section header, skipping whatever rows of the current
    /// section were not read; `None` after the last.
    pub fn next_section(&mut self) -> Result<Option<Section<'a>>, String> {
        while self.next_row()?.is_some() {}
        if self.sections_left == 0 {
            if !self.buf.is_empty() {
                return Err("rib table: trailing bytes".into());
            }
            return Ok(None);
        }
        self.sections_left -= 1;
        let buf = &mut self.buf;
        let name_len = take(buf, 2, "truncated rib table collector")?.get_u16() as usize;
        let collector =
            std::str::from_utf8(take(buf, name_len, "truncated rib table collector name")?)
                .map_err(|_| "rib table: collector name is not UTF-8".to_string())?;
        let peer = get_ip(buf)?;
        let mut head = take(buf, 4 + 1 + 4, "truncated rib table peer")?;
        let peer_asn = Asn(head.get_u32());
        let up = head.get_u8() == 1;
        self.rows_left = head.get_u32();
        let key = (collector, ip_sort_key(&peer));
        if self.section.is_some_and(|prev| prev >= key) {
            return Err("rib table: sections out of canonical order".into());
        }
        self.section = Some(key);
        self.prefix = None;
        Ok(Some(Section {
            collector,
            peer,
            peer_asn,
            up,
            capacity: (self.rows_left as usize).min(self.buf.len() / MIN_ROW_BYTES),
        }))
    }

    /// The current section's next row; `None` after its last.
    pub fn next_row(&mut self) -> Result<Option<RawRow<'a>>, String> {
        if self.rows_left == 0 {
            return Ok(None);
        }
        self.rows_left -= 1;
        let prefix = get_prefix(&mut self.buf)?;
        let key = prefix_sort_key(&prefix);
        if self.prefix.is_some_and(|prev| prev >= key) {
            return Err("rib table: rows out of canonical order".into());
        }
        self.prefix = Some(key);
        let (route, origin) = split_rib_route(&mut self.buf)?;
        Ok(Some(RawRow {
            prefix,
            origin,
            route,
        }))
    }
}

/// One row of a resolved [`TableView`]: a `(collector, peer, prefix)`
/// cell and its selected route.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableRow {
    /// Collector the vantage point peers with.
    pub collector: Arc<str>,
    /// Vantage-point address.
    pub peer: IpAddr,
    /// Vantage-point AS number.
    pub peer_asn: Asn,
    /// The prefix.
    pub prefix: Prefix,
    /// The selected route.
    pub route: RibRoute,
}

/// The routing table as of a queried instant, in canonical row order
/// `(collector, peer, prefix)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableView {
    /// The instant the view reflects.
    pub at: u64,
    /// The rows.
    pub rows: Vec<TableRow>,
}

impl TableView {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no routes matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distinct origin ASNs across the rows, sorted — the MOAS
    /// primitive (a prefix-filtered view with ≥ 2 origins is a
    /// multi-origin prefix).
    pub fn origin_asns(&self) -> Vec<Asn> {
        let mut origins: Vec<Asn> = self
            .rows
            .iter()
            .filter_map(|r| r.route.origin_asn())
            .collect();
        origins.sort_unstable();
        origins.dedup();
        origins
    }

    /// Canonical byte encoding of the view — the artifact equivalence
    /// proofs compare (`snapshot+delta` vs full replay must match
    /// byte-for-byte).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u64(self.at);
        out.put_u32(self.rows.len() as u32);
        for row in &self.rows {
            out.put_u16(row.collector.len() as u16);
            out.put_slice(row.collector.as_bytes());
            put_ip(&mut out, &row.peer);
            out.put_u32(row.peer_asn.0);
            put_prefix(&mut out, &row.prefix);
            put_rib_route(&mut out, &row.route);
        }
        out.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, collector: &str, peer: &str, asn: u32, action: RibAction) -> RibEvent {
        RibEvent {
            time,
            collector: collector.into(),
            peer: peer.parse().unwrap(),
            peer_asn: Asn(asn),
            action,
        }
    }

    fn announce(prefix: &str, path: &[u32], at: u64) -> RibAction {
        RibAction::Announce {
            prefix: prefix.parse().unwrap(),
            route: RibRoute {
                path: Some(AsPath::from_sequence(path.iter().copied())),
                next_hop: Some("10.0.0.1".parse().unwrap()),
                communities: CommunitySet::from_iter([Community {
                    asn: 64500,
                    value: 7,
                }]),
                updated_at: at,
            },
        }
    }

    #[test]
    fn announce_withdraw_replace_fold() {
        let mut t = RibTable::new();
        t.apply(&ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        ));
        t.apply(&ev(
            11,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("2.0.0.0/8", &[65001, 30], 11),
        ));
        assert_eq!(t.route_count(), 2);
        // Implicit replace.
        t.apply(&ev(
            12,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 40], 12),
        ));
        assert_eq!(t.route_count(), 2);
        let rib = t.loc_rib("rrc00", &"10.0.0.9".parse().unwrap()).unwrap();
        let route = rib.route(&"1.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(route.origin_asn(), Some(Asn(40)));
        // Withdraw removes; unknown withdraw is a no-op.
        t.apply(&ev(
            13,
            "rrc00",
            "10.0.0.9",
            65001,
            RibAction::Withdraw {
                prefix: "2.0.0.0/8".parse().unwrap(),
            },
        ));
        t.apply(&ev(
            14,
            "rrc00",
            "10.0.0.9",
            65001,
            RibAction::Withdraw {
                prefix: "9.0.0.0/8".parse().unwrap(),
            },
        ));
        assert_eq!(t.route_count(), 1);
        // Session down clears the peer's table.
        t.apply(&ev(15, "rrc00", "10.0.0.9", 65001, RibAction::PeerDown));
        assert_eq!(t.route_count(), 0);
        assert!(!t.loc_rib("rrc00", &"10.0.0.9".parse().unwrap()).unwrap().up);
    }

    #[test]
    fn encode_is_canonical_across_intern_orders() {
        let e1 = ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        );
        let e2 = ev(
            11,
            "route-views2",
            "2001:db8::9",
            65002,
            announce("2001:db8::/32", &[65002, 21], 11),
        );
        let mut a = RibTable::new();
        a.apply(&e1);
        a.apply(&e2);
        let mut b = RibTable::new();
        b.apply(&e2);
        b.apply(&e1);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.view(11).encode(), b.view(11).encode());
    }

    #[test]
    fn table_seal_roundtrip_rejects_torn() {
        let mut t = RibTable::new();
        t.apply(&ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        ));
        t.apply(&ev(11, "rrc00", "10.0.0.9", 65001, RibAction::PeerUp));
        let frame = t.seal();
        let back = RibTable::unseal(&frame).unwrap();
        assert_eq!(back.encode(), t.encode());
        assert!(RibTable::unseal(&frame[..frame.len() - 2]).is_err());
        let mut flipped = frame.clone();
        flipped[9] ^= 0x10;
        assert!(RibTable::unseal(&flipped).is_err());
    }

    /// A one-route table's encoding, and the offsets of its route
    /// count and of its row's prefix length.
    fn one_route_table() -> (Vec<u8>, usize, usize) {
        let mut t = RibTable::new();
        t.apply(&ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        ));
        // version, section count, name, peer, peer ASN, up flag.
        let count_at = 1 + 4 + 2 + "rrc00".len() + 17 + 4 + 1;
        (t.encode(), count_at, count_at + 4 + 1)
    }

    #[test]
    fn forged_route_count_is_an_error() {
        let (mut bytes, count_at, _) = one_route_table();
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(RibTable::unseal(&seal_frame(&bytes)).is_err());
    }

    #[test]
    fn prefix_length_out_of_range_is_an_error() {
        let (mut bytes, _, len_at) = one_route_table();
        assert_eq!(bytes[len_at], 8);
        bytes[len_at] = 33;
        assert!(RibTable::unseal(&seal_frame(&bytes)).is_err());
    }

    #[test]
    fn rows_out_of_canonical_order_are_an_error() {
        let mut t = RibTable::new();
        for (prefix, at) in [("1.0.0.0/8", 10), ("2.0.0.0/8", 11)] {
            t.apply(&ev(
                at,
                "rrc00",
                "10.0.0.9",
                65001,
                announce(prefix, &[65001, 20], at),
            ));
        }
        let bytes = t.encode();
        assert!(RibTable::decode(&bytes).is_ok());
        // Both rows have the same length: swap them.
        let (_, count_at, _) = one_route_table();
        let rows = &bytes[count_at + 4..];
        let half = rows.len() / 2;
        let mut swapped = bytes[..count_at + 4].to_vec();
        swapped.extend_from_slice(&rows[half..]);
        swapped.extend_from_slice(&rows[..half]);
        assert!(RibTable::decode(&swapped).is_err());
    }

    fn seq(asns: &[u32]) -> AsPathSegment {
        AsPathSegment::Sequence(asns.iter().copied().map(Asn).collect())
    }

    fn set(asns: &[u32]) -> AsPathSegment {
        AsPathSegment::Set(asns.iter().copied().map(Asn).collect())
    }

    #[test]
    fn rib_path_codec_keeps_segments() {
        let paths = [
            None,
            Some(AsPath::empty()),
            Some(AsPath::from_segments(vec![seq(&[])])),
            Some(AsPath::from_sequence([65001, 3356, 7])),
            Some(AsPath::from_segments(vec![
                seq(&[65001, 3356]),
                set(&[7, 8]),
            ])),
            Some(AsPath::from_segments(vec![set(&[7, 8]), seq(&[65001, 9])])),
            Some(AsPath::from_segments(vec![seq(&[65001]), set(&[])])),
        ];
        for path in paths {
            let route = RibRoute {
                path: path.clone(),
                next_hop: Some("2001:db8::1".parse().unwrap()),
                communities: CommunitySet::from_iter([Community::new(3356, 666)]),
                updated_at: 42,
            };
            let mut out = BytesMut::new();
            put_rib_route(&mut out, &route);
            out.put_u8(0xee);
            let bytes = out.to_vec();
            let mut buf = &bytes[..];
            assert_eq!(get_rib_route(&mut buf).unwrap(), route, "{path:?}");
            assert_eq!(buf, [0xee]);
            // The raw split agrees with the decoded route.
            let mut buf = &bytes[..];
            let (span, origin) = split_rib_route(&mut buf).unwrap();
            assert_eq!(span.len(), bytes.len() - 1);
            assert_eq!(origin, route.origin_asn(), "{path:?}");
            // Single-sequence and absent paths keep the shared codec's
            // bytes.
            let flat = matches!(
                path.as_ref().map(AsPath::segments),
                None | Some([AsPathSegment::Sequence(_)])
            );
            let mut shared = BytesMut::new();
            put_route(&mut shared, &path);
            assert_eq!(bytes.starts_with(&shared), flat, "{path:?}");
        }
    }

    #[test]
    fn event_codec_roundtrip() {
        let events = vec![
            ev(
                10,
                "rrc00",
                "10.0.0.9",
                65001,
                announce("1.0.0.0/8", &[65001, 20], 10),
            ),
            ev(
                11,
                "rrc01",
                "2001:db8::9",
                65002,
                RibAction::Withdraw {
                    prefix: "2001:db8::/32".parse().unwrap(),
                },
            ),
            ev(12, "rrc02", "10.0.0.7", 65003, RibAction::PeerUp),
            ev(13, "rrc02", "10.0.0.7", 65003, RibAction::PeerDown),
        ];
        let mut out = BytesMut::new();
        for e in &events {
            e.encode_into(&mut out);
        }
        let bytes = out.to_vec();
        let mut buf = &bytes[..];
        for e in &events {
            assert_eq!(&RibEvent::decode(&mut buf).unwrap(), e);
        }
        assert!(buf.is_empty());
        assert!(RibEvent::decode(&mut buf).is_err());
    }

    #[test]
    fn moas_origins_surface_in_view() {
        let mut t = RibTable::new();
        t.apply(&ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        ));
        t.apply(&ev(
            11,
            "rrc00",
            "10.0.1.9",
            65002,
            announce("1.0.0.0/8", &[65002, 99], 11),
        ));
        let view = t.view(11);
        assert_eq!(view.len(), 2);
        assert_eq!(view.origin_asns(), vec![Asn(20), Asn(99)]);
    }
}
