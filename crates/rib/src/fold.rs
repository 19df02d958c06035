//! The RIB fold: sorted stream in, per-(collector, peer) Loc-RIB
//! state plus journal/snapshot publications out.
//!
//! [`RibFold`] is the single producer implementation behind every
//! ingestion mode: the historical driver ([`RibFold::ingest`]), the
//! live plugin (`corsaro::RibFeeder` delegates record processing and
//! bin closes here), the routing-tables plugin (`corsaro::RtPlugin`
//! projects a store-less fold per bin), and crash recovery
//! (checkpoint/restore reuse the sealed-frame codec, so a restored
//! fold publishes byte-identically to one that never died).
//!
//! # The routing-table state machine (§6.2.1, Figure 8)
//!
//! This is the repository's one implementation of the paper's RT
//! state machine. Per vantage point the fold keeps a [`MacroState`],
//! per collector the state of the RIB dump being read, and per cell
//! its last-modified time. Updates apply as they arrive; RIB-dump rows
//! go to *shadow cells* and are reconciled with the table when the
//! dump ends. The four special events:
//!
//! * **E1** — a corrupted record inside a RIB dump: the whole dump is
//!   discarded;
//! * **E2** — a RIB row older than its cell's last modification is
//!   not applied (withdrawn cells keep their last-modified time too);
//! * **E3** — a corrupted Updates record: the collector's updates are
//!   ignored and its VPs are down until the next clean dump ends;
//! * **E4** — session state messages force transitions (Established
//!   → up, anything else → down, which clears the VP's table).
//!
//! A clean dump's end also withdraws every announced route the dump
//! lacks that no update touched since the dump began, declares a VP
//! with no row in the dump down (RouteViews dumps no state messages,
//! footnote 5), and counts the accuracy self-check ([`RtErrorStats`]).
//! Cells compare by AS path: a row agreeing with its cell confirms it
//! and leaves the route the last update installed. Announcements and
//! rows without an AS path are malformed and not applied.
//!
//! Every transition is journaled as an ordinary [`RibEvent`] through
//! [`RibTable::apply`]. A dump's transitions are journaled at its end,
//! stamped with the time of the record that closed it, in canonical
//! `(peer, prefix)` order: the journal stays time-sorted and a
//! watermark still implies a complete journal below it. Watermark
//! advancement is driven by bin closes (historical `end_bin` or
//! `run_live`'s broker-watermark bin closes), at which point
//! accumulated journal events — and, on the configured cadence, a
//! sealed snapshot — are published to the [`RibStore`].

use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::{Asn, Prefix};
use bgpstream::codec::{get_ip, get_prefix, ip_sort_key, prefix_sort_key, put_ip, put_prefix};
use bgpstream::{BgpStream, BgpStreamElem, BgpStreamRecord, ElemType};
use broker::DumpType;
use bytes::{Buf, BufMut, BytesMut};
use fxhash::FxHashMap;

use crate::store::{RibStore, Snapshot};
use crate::table::{get_rib_route, put_rib_route, take, RibAction, RibEvent, RibRoute, RibTable};

/// Checkpoint format version.
const FOLD_VERSION: u8 = 2;

/// The Figure 8 macro states of one vantage point.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MacroState {
    /// No consistent routing table available.
    #[default]
    Down,
    /// Down, with a RIB dump being applied.
    DownRibApplication,
    /// Consistent routing table available.
    Up,
    /// Up, with a new RIB dump being applied into shadow cells.
    UpRibApplication,
}

impl MacroState {
    /// Whether a consistent routing table is available.
    pub fn table_available(self) -> bool {
        matches!(self, MacroState::Up | MacroState::UpRibApplication)
    }

    /// The state an up or down VP is in while a dump is or is not
    /// being applied.
    fn of(up: bool, dump_active: bool) -> MacroState {
        match (up, dump_active) {
            (true, true) => MacroState::UpRibApplication,
            (true, false) => MacroState::Up,
            (false, true) => MacroState::DownRibApplication,
            (false, false) => MacroState::Down,
        }
    }
}

/// The routing tables' accuracy self-check at dump ends (§6.2.1:
/// error probabilities ~1e-8 RIS / ~1e-5 RouteViews): cells of VPs
/// whose table was available when the dump began, untouched by
/// updates since, compared with the dump's rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RtErrorStats {
    /// Cells compared at RIB boundaries.
    pub cells_checked: u64,
    /// Cells whose reconstructed content disagreed with the RIB.
    pub cells_mismatched: u64,
}

impl RtErrorStats {
    /// Mismatching prefixes over all compared prefixes.
    pub fn error_probability(&self) -> f64 {
        if self.cells_checked == 0 {
            0.0
        } else {
            self.cells_mismatched as f64 / self.cells_checked as f64
        }
    }
}

/// Counters a fold accumulates (diagnostics; not part of state).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FoldStats {
    /// Records seen (valid or not).
    pub records: u64,
    /// Journal events emitted.
    pub events: u64,
    /// Snapshots sealed.
    pub snapshots: u64,
}

/// One vantage point's Figure 8 machine. Its routes live in the
/// [`RibTable`]; an announced cell's last-modified time is its route's
/// `updated_at`.
#[derive(Default)]
struct Vp {
    /// Latest AS number seen for the VP.
    asn: Asn,
    state: MacroState,
    /// Whether the current dump holds a row of this VP.
    rib_seen: bool,
    /// Whether the VP's table was available when the current dump
    /// began (only then is the accuracy check meaningful).
    check_ok: bool,
    /// Last-modified time of withdrawn cells (E2 compares against it).
    withdrawn: FxHashMap<Prefix, u64>,
    /// Shadow cells: the current dump's rows, `updated_at` = row time.
    shadow: FxHashMap<Prefix, RibRoute>,
}

/// One collector's dump state and VPs.
#[derive(Default)]
struct Collector {
    name: Arc<str>,
    dump_active: bool,
    dump_corrupted: bool,
    dump_start: u64,
    /// E3: updates are ignored until the next clean dump ends.
    updates_poisoned: bool,
    vps: FxHashMap<IpAddr, Vp>,
}

/// Where a fold's transitions go — observed, applied to the table
/// and, with a store attached, queued for the next publication — and
/// the accuracy counts its dump ends add to.
struct Journal<'a> {
    collector: Arc<str>,
    table: &'a mut RibTable,
    pending: Option<&'a mut Vec<RibEvent>>,
    events: &'a mut u64,
    errors: &'a mut RtErrorStats,
    observe: &'a mut dyn FnMut(&RibTable, &RibEvent),
}

impl Journal<'_> {
    fn emit(&mut self, peer: IpAddr, peer_asn: Asn, time: u64, action: RibAction) {
        let ev = RibEvent {
            time,
            collector: self.collector.clone(),
            peer,
            peer_asn,
            action,
        };
        (self.observe)(self.table, &ev);
        self.table.apply(&ev);
        *self.events += 1;
        if let Some(pending) = self.pending.as_deref_mut() {
            pending.push(ev);
        }
    }
}

/// The route an announcement or RIB row installs; `None` without an
/// AS path.
fn route_of(elem: &BgpStreamElem) -> Option<RibRoute> {
    Some(RibRoute {
        path: Some(elem.as_path.clone()?),
        next_hop: elem.next_hop,
        communities: elem.communities.clone().unwrap_or_default(),
        updated_at: elem.time,
    })
}

impl Collector {
    fn vp(&mut self, ip: IpAddr, asn: Asn) -> &mut Vp {
        let state = MacroState::of(false, self.dump_active);
        let vp = self.vps.entry(ip).or_insert_with(|| Vp {
            state,
            ..Vp::default()
        });
        vp.asn = asn;
        vp
    }

    fn rib_record(
        &mut self,
        record: &BgpStreamRecord,
        owns: &dyn Fn(usize, &BgpStreamElem) -> bool,
        out: &mut Journal,
    ) {
        if record.position.is_start() && !self.dump_active {
            self.dump_active = true;
            self.dump_corrupted = false;
            self.dump_start = record.timestamp;
            for vp in self.vps.values_mut() {
                vp.rib_seen = false;
                vp.check_ok = vp.state.table_available();
                vp.state = MacroState::of(vp.check_ok, true);
            }
        }
        if !record.status.is_valid() {
            self.dump_corrupted = true; // E1
        }
        if self.dump_active {
            for (i, elem) in record.elems().iter().enumerate() {
                if elem.elem_type != ElemType::RibEntry || !owns(i, elem) {
                    continue;
                }
                let (Some(prefix), Some(route)) = (elem.prefix, route_of(elem)) else {
                    continue;
                };
                let vp = self.vp(elem.peer_address, elem.peer_asn);
                vp.rib_seen = true;
                vp.shadow.insert(prefix, route);
            }
            if record.position.is_end() {
                self.end_dump(record.timestamp, out);
            }
        }
    }

    /// Reconcile the dump that the record at `t` closed.
    fn end_dump(&mut self, t: u64, out: &mut Journal) {
        self.dump_active = false;
        let start = self.dump_start;
        if !self.dump_corrupted {
            // E3 recovery: a clean dump restores update processing.
            self.updates_poisoned = false;
        }
        let mut ips: Vec<IpAddr> = self.vps.keys().copied().collect();
        ips.sort_by_key(ip_sort_key);
        for ip in ips {
            let Some(vp) = self.vps.get_mut(&ip) else {
                continue;
            };
            if self.dump_corrupted {
                // E1: discard the whole dump.
                vp.shadow.clear();
                vp.state = MacroState::of(vp.state == MacroState::UpRibApplication, false);
                continue;
            }
            let routes = out.table.loc_rib(&self.name, &ip);
            if !vp.rib_seen {
                // None of the VP's routes are in the dump: declare it
                // down (footnote 5).
                vp.shadow.clear();
                vp.state = MacroState::Down;
                if let Some(rib) = routes.filter(|rib| rib.route_count() > 0) {
                    vp.withdrawn.extend(rib.routes().map(|(p, _)| (*p, start)));
                    out.emit(ip, vp.asn, t, RibAction::PeerDown);
                }
                continue;
            }
            vp.state = MacroState::Up;
            let mut changes: Vec<(Prefix, Option<RibRoute>)> = Vec::new();
            for (prefix, route) in routes.into_iter().flat_map(|rib| rib.routes()) {
                // Announced but absent from the dump: stale unless an
                // update touched it since the dump began.
                if !vp.shadow.contains_key(prefix) && route.updated_at <= start {
                    if vp.check_ok {
                        out.errors.cells_checked += 1;
                        out.errors.cells_mismatched += 1;
                    }
                    changes.push((*prefix, None));
                }
            }
            for (prefix, row) in vp.shadow.drain() {
                let main = routes.and_then(|rib| rib.route(&prefix));
                let modified = match main {
                    Some(route) => route.updated_at,
                    None => vp.withdrawn.get(&prefix).copied().unwrap_or(0),
                };
                let differs = main.and_then(|route| route.path.as_ref()) != row.path.as_ref();
                if modified <= start && vp.check_ok {
                    out.errors.cells_checked += 1;
                    out.errors.cells_mismatched += differs as u64;
                }
                // E2: apply only rows not older than the cell.
                if differs && row.updated_at >= modified {
                    changes.push((prefix, Some(row)));
                }
            }
            changes.sort_unstable_by_key(|(prefix, _)| prefix_sort_key(prefix));
            for (prefix, row) in changes {
                let action = match row {
                    Some(route) => {
                        vp.withdrawn.remove(&prefix);
                        RibAction::Announce { prefix, route }
                    }
                    None => {
                        vp.withdrawn.insert(prefix, start);
                        RibAction::Withdraw { prefix }
                    }
                };
                out.emit(ip, vp.asn, t, action);
            }
        }
    }

    fn updates_record(
        &mut self,
        record: &BgpStreamRecord,
        owns: &dyn Fn(usize, &BgpStreamElem) -> bool,
        out: &mut Journal,
    ) {
        if !record.status.is_valid() {
            // E3: stop applying updates, wait for the next dump.
            self.updates_poisoned = true;
            for vp in self.vps.values_mut() {
                vp.state = MacroState::Down;
            }
            return;
        }
        for (i, elem) in record.elems().iter().enumerate() {
            if !owns(i, elem) {
                continue;
            }
            let (ip, asn, t) = (elem.peer_address, elem.peer_asn, elem.time);
            match elem.elem_type {
                ElemType::PeerState => {
                    // E4: forced transitions.
                    let up = elem.new_state.is_some_and(|s| s.is_established());
                    let state = MacroState::of(up, self.dump_active);
                    let vp = self.vp(ip, asn);
                    vp.state = state;
                    if up {
                        out.emit(ip, asn, t, RibAction::PeerUp);
                    } else {
                        if let Some(rib) = out.table.loc_rib(&out.collector, &ip) {
                            vp.withdrawn.extend(rib.routes().map(|(p, _)| (*p, t)));
                        }
                        out.emit(ip, asn, t, RibAction::PeerDown);
                    }
                }
                ElemType::Announcement if !self.updates_poisoned => {
                    let (Some(prefix), Some(route)) = (elem.prefix, route_of(elem)) else {
                        continue;
                    };
                    self.vp(ip, asn).withdrawn.remove(&prefix);
                    out.emit(ip, asn, t, RibAction::Announce { prefix, route });
                }
                ElemType::Withdrawal if !self.updates_poisoned => {
                    let Some(prefix) = elem.prefix else { continue };
                    self.vp(ip, asn).withdrawn.insert(prefix, t);
                    out.emit(ip, asn, t, RibAction::Withdraw { prefix });
                }
                _ => {}
            }
        }
    }
}

/// Folds the time-sorted stream into [`RibTable`] state and publishes
/// journal events and sealed snapshots to a [`RibStore`].
pub struct RibFold {
    table: RibTable,
    watermark: u64,
    snapshot_every: u64,
    last_snapshot_at: u64,
    pending: Vec<RibEvent>,
    store: Option<Arc<dyn RibStore>>,
    collectors: Vec<Collector>,
    errors: RtErrorStats,
    stats: FoldStats,
}

impl RibFold {
    /// A fold sealing a snapshot roughly every `snapshot_every`
    /// seconds of stream time (`0` = never snapshot). Without a
    /// [`store`](RibFold::with_store), transitions are folded into the
    /// table only.
    pub fn new(snapshot_every: u64) -> Self {
        RibFold {
            table: RibTable::new(),
            watermark: 0,
            snapshot_every,
            last_snapshot_at: 0,
            pending: Vec::new(),
            store: None,
            collectors: Vec::new(),
            errors: RtErrorStats::default(),
            stats: FoldStats::default(),
        }
    }

    /// Attach the store publications go to.
    pub fn with_store(mut self, store: Arc<dyn RibStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<dyn RibStore>> {
        self.store.as_ref()
    }

    /// The snapshot cadence this fold was configured with.
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// The folded table (current, possibly mid-bin, state).
    pub fn table(&self) -> &RibTable {
        &self.table
    }

    /// Folds are complete for instants strictly below this.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Diagnostics counters.
    pub fn stats(&self) -> FoldStats {
        self.stats
    }

    /// The dump-end accuracy self-check so far.
    pub fn error_stats(&self) -> RtErrorStats {
        self.errors
    }

    /// The VPs `collector`'s stream has shown, with their macro state.
    pub fn vps<'a>(
        &'a self,
        collector: &'a str,
    ) -> impl Iterator<Item = (IpAddr, MacroState)> + 'a {
        self.collectors
            .iter()
            .filter(move |c| &*c.name == collector)
            .flat_map(|c| c.vps.iter().map(|(ip, vp)| (*ip, vp.state)))
    }

    /// The macro state of one VP, if its collector's stream showed it.
    pub fn vp_state(&self, collector: &str, peer: &IpAddr) -> Option<MacroState> {
        self.vps(collector)
            .find_map(|(ip, state)| (ip == *peer).then_some(state))
    }

    fn collector_index(&mut self, name: &str) -> usize {
        if let Some(i) = self.collectors.iter().position(|c| &*c.name == name) {
            return i;
        }
        self.collectors.push(Collector {
            name: name.into(),
            ..Collector::default()
        });
        self.collectors.len() - 1
    }

    /// Fold one record of the sorted stream.
    pub fn apply_record(&mut self, record: &BgpStreamRecord) {
        self.apply_record_with(record, &|_, _| true, &mut |_, _| {});
    }

    /// Fold one record, applying only the elems `owns` accepts (by
    /// index in the record). Record-level events — a dump's start,
    /// corruption and end, a corrupted Updates record — apply whatever
    /// the gate. `observe` sees each transition just before the table
    /// applies it.
    pub fn apply_record_with(
        &mut self,
        record: &BgpStreamRecord,
        owns: &dyn Fn(usize, &BgpStreamElem) -> bool,
        observe: &mut dyn FnMut(&RibTable, &RibEvent),
    ) {
        self.stats.records += 1;
        let i = self.collector_index(record.collector());
        let collector = &mut self.collectors[i];
        let mut out = Journal {
            collector: collector.name.clone(),
            table: &mut self.table,
            pending: self.store.is_some().then_some(&mut self.pending),
            events: &mut self.stats.events,
            errors: &mut self.errors,
            observe,
        };
        match record.dump_type() {
            DumpType::Rib => collector.rib_record(record, owns, &mut out),
            DumpType::Updates => collector.updates_record(record, owns, &mut out),
        }
    }

    /// Advance the watermark to `t` (a closed bin's end): publish the
    /// accumulated journal events and, when the snapshot cadence has
    /// elapsed, a snapshot sealed at `t`. No-op unless `t` advances.
    pub fn advance_watermark(&mut self, t: u64) {
        if t <= self.watermark {
            // A bin at or below the watermark is a post-restore
            // replay: whatever was re-folded for it is already in the
            // store, and must not leak into the next publication.
            self.pending.clear();
            return;
        }
        self.watermark = t;
        let snapshot = if self.snapshot_every > 0
            && t >= self.last_snapshot_at.saturating_add(self.snapshot_every)
        {
            self.last_snapshot_at = t;
            self.stats.snapshots += 1;
            Some(Snapshot::seal(t, &self.table))
        } else {
            None
        };
        let events = std::mem::take(&mut self.pending);
        if let Some(store) = &self.store {
            store.publish(t, events, snapshot);
        }
    }

    /// Mark the stream exhausted: every instant is now final. Called
    /// by historical drivers after the last record; live folds never
    /// finish. Publishes any pending events, seals no snapshot.
    pub fn finish(&mut self) {
        if self.watermark == u64::MAX {
            return;
        }
        self.watermark = u64::MAX;
        let events = std::mem::take(&mut self.pending);
        if let Some(store) = &self.store {
            store.publish(u64::MAX, events, None);
        }
    }

    /// Drive a historical stream to exhaustion, closing `bin_size`
    /// bins exactly like the plugin runtime does (aligned to
    /// `timestamp - timestamp % bin_size`; every elapsed bin closes,
    /// empty or not, before the record that outlived it folds) and
    /// finishing at stream end. Returns the fold's counters.
    pub fn ingest(&mut self, stream: &mut BgpStream, bin_size: u64) -> FoldStats {
        let bin_size = bin_size.max(1);
        let mut bin_end: Option<u64> = None;
        while let Some(record) = stream.next_record() {
            let t = record.timestamp;
            match bin_end {
                None => bin_end = Some(t - t % bin_size + bin_size),
                Some(mut e) => {
                    while t >= e {
                        self.advance_watermark(e);
                        e += bin_size;
                    }
                    bin_end = Some(e);
                }
            }
            self.apply_record(&record);
        }
        if let Some(e) = bin_end {
            self.advance_watermark(e);
        }
        self.finish();
        self.stats
    }

    /// Serialize the fold's full state as a sealed checkpoint frame.
    /// Canonical: two folds that processed the same records produce
    /// identical frames regardless of restore history.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u8(FOLD_VERSION);
        out.put_u64(self.watermark);
        out.put_u64(self.snapshot_every);
        out.put_u64(self.last_snapshot_at);
        let table = self.table.encode();
        out.put_u32(table.len() as u32);
        out.put_slice(&table);
        out.put_u32(self.pending.len() as u32);
        for ev in &self.pending {
            ev.encode_into(&mut out);
        }
        out.put_u64(self.errors.cells_checked);
        out.put_u64(self.errors.cells_mismatched);
        let mut collectors: Vec<&Collector> = self.collectors.iter().collect();
        collectors.sort_by(|a, b| a.name.cmp(&b.name));
        out.put_u32(collectors.len() as u32);
        for c in collectors {
            out.put_u16(c.name.len() as u16);
            out.put_slice(c.name.as_bytes());
            out.put_u8(c.dump_active as u8 | (c.dump_corrupted as u8) << 1);
            out.put_u8(c.updates_poisoned as u8);
            out.put_u64(c.dump_start);
            let mut vps: Vec<(&IpAddr, &Vp)> = c.vps.iter().collect();
            vps.sort_by_key(|(ip, _)| ip_sort_key(ip));
            out.put_u32(vps.len() as u32);
            for (ip, vp) in vps {
                put_ip(&mut out, ip);
                out.put_u32(vp.asn.0);
                out.put_u8(vp.state as u8);
                out.put_u8(vp.rib_seen as u8 | (vp.check_ok as u8) << 1);
                put_cells(&mut out, &vp.withdrawn, |out, t| out.put_u64(*t));
                put_cells(&mut out, &vp.shadow, put_rib_route);
            }
        }
        bgpstream::codec::seal_frame(&out)
    }

    /// Restore from a [`checkpoint`](RibFold::checkpoint) frame. The
    /// store handle is kept; everything else — table, watermark,
    /// snapshot cadence and phase, pending events, the state machine —
    /// comes from the frame, so post-restore publications line up with
    /// pre-crash ones.
    pub fn restore(&mut self, frame: &[u8]) -> Result<(), String> {
        let mut buf = bgpstream::codec::open_frame(frame)?;
        let mut head = take(&mut buf, 1 + 8 + 8 + 8 + 4, "rib fold checkpoint truncated")?;
        let version = head.get_u8();
        if version != FOLD_VERSION {
            return Err(format!("unsupported rib fold checkpoint version {version}"));
        }
        let (watermark, snapshot_every) = (head.get_u64(), head.get_u64());
        let last_snapshot_at = head.get_u64();
        let table_len = head.get_u32() as usize;
        let table = RibTable::decode(take(&mut buf, table_len, "truncated fold table")?)?;
        let pending_count = take(&mut buf, 4, "truncated pending count")?.get_u32() as usize;
        let mut pending = Vec::with_capacity(pending_count.min(buf.len() / 32));
        for _ in 0..pending_count {
            pending.push(RibEvent::decode(&mut buf)?);
        }
        let mut counts = take(&mut buf, 8 + 8 + 4, "truncated fold counters")?;
        let errors = RtErrorStats {
            cells_checked: counts.get_u64(),
            cells_mismatched: counts.get_u64(),
        };
        let mut collectors = Vec::new();
        for _ in 0..counts.get_u32() {
            let name_len = take(&mut buf, 2, "truncated collector")?.get_u16() as usize;
            let name = std::str::from_utf8(take(&mut buf, name_len, "truncated collector")?)
                .map_err(|_| "rib fold checkpoint: collector name is not UTF-8".to_string())?;
            let mut dump = take(&mut buf, 1 + 1 + 8 + 4, "truncated collector")?;
            let (flags, poisoned) = (dump.get_u8(), dump.get_u8());
            let mut c = Collector {
                name: name.into(),
                dump_active: flags & 1 != 0,
                dump_corrupted: flags & 2 != 0,
                updates_poisoned: poisoned != 0,
                dump_start: dump.get_u64(),
                vps: FxHashMap::default(),
            };
            for _ in 0..dump.get_u32() {
                let ip = get_ip(&mut buf)?;
                let mut head = take(&mut buf, 4 + 1 + 1, "truncated vp")?;
                let asn = Asn(head.get_u32());
                let state = match head.get_u8() {
                    0 => MacroState::Down,
                    1 => MacroState::DownRibApplication,
                    2 => MacroState::Up,
                    3 => MacroState::UpRibApplication,
                    s => return Err(format!("rib fold checkpoint: unknown macro state {s}")),
                };
                let flags = head.get_u8();
                let withdrawn = get_cells(&mut buf, |buf| {
                    Ok(take(buf, 8, "truncated withdrawn cell")?.get_u64())
                })?;
                let shadow = get_cells(&mut buf, get_rib_route)?;
                let vp = Vp {
                    asn,
                    state,
                    rib_seen: flags & 1 != 0,
                    check_ok: flags & 2 != 0,
                    withdrawn,
                    shadow,
                };
                c.vps.insert(ip, vp);
            }
            collectors.push(c);
        }
        if !buf.is_empty() {
            return Err("rib fold checkpoint: trailing bytes".into());
        }
        self.table = table;
        self.watermark = watermark;
        self.snapshot_every = snapshot_every;
        self.last_snapshot_at = last_snapshot_at;
        self.pending = pending;
        self.errors = errors;
        self.collectors = collectors;
        Ok(())
    }
}

/// Append prefix-keyed cells in prefix order.
fn put_cells<V>(out: &mut BytesMut, cells: &FxHashMap<Prefix, V>, put: fn(&mut BytesMut, &V)) {
    let mut cells: Vec<(&Prefix, &V)> = cells.iter().collect();
    cells.sort_by_key(|(prefix, _)| prefix_sort_key(prefix));
    out.put_u32(cells.len() as u32);
    for (prefix, value) in cells {
        put_prefix(out, prefix);
        put(out, value);
    }
}

/// Decode [`put_cells`] cells, advancing `buf` past them.
fn get_cells<V>(
    buf: &mut &[u8],
    get: fn(&mut &[u8]) -> Result<V, String>,
) -> Result<FxHashMap<Prefix, V>, String> {
    let count = take(buf, 4, "truncated cell count")?.get_u32();
    (0..count)
        .map(|_| Ok((get_prefix(buf)?, get(buf)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryRibStore;
    use bgp_types::{AsPath, SessionState};
    use bgpstream::{DumpPosition, RecordStatus};

    const PEER: &str = "10.0.0.9";

    fn elem(time: u64, ty: ElemType, prefix: Option<&str>, origin: u32) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ty,
            time,
            peer_address: PEER.parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: prefix.map(|p| p.parse().unwrap()),
            next_hop: None,
            as_path: Some(AsPath::from_sequence([65001, origin])),
            communities: None,
            old_state: None,
            new_state: None,
        }
    }

    fn record(
        t: u64,
        dump_type: DumpType,
        position: DumpPosition,
        elems: Vec<BgpStreamElem>,
    ) -> BgpStreamRecord {
        BgpStreamRecord::new(
            "ris",
            "rrc00",
            dump_type,
            t,
            t,
            position,
            RecordStatus::Valid,
            elems,
        )
    }

    fn update(t: u64, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
        record(t, DumpType::Updates, DumpPosition::Middle, elems)
    }

    /// A dump opening at `t` whose rows (one per prefix, all with
    /// `origin`) close it at `t + 5`.
    fn dump(t: u64, prefixes: &[&str], origin: u32) -> [BgpStreamRecord; 2] {
        let rows = prefixes
            .iter()
            .map(|p| elem(t + 1, ElemType::RibEntry, Some(p), origin))
            .collect();
        [
            record(t, DumpType::Rib, DumpPosition::Start, vec![]),
            record(t + 5, DumpType::Rib, DumpPosition::End, rows),
        ]
    }

    fn route_origin(fold: &RibFold, prefix: &str) -> Option<Asn> {
        fold.table()
            .loc_rib("rrc00", &PEER.parse().unwrap())?
            .route(&prefix.parse().unwrap())?
            .origin_asn()
    }

    #[test]
    fn watermark_publishes_pending_and_snapshots_on_cadence() {
        let store = MemoryRibStore::shared();
        let mut fold = RibFold::new(200).with_store(store.clone());
        let a = elem(10, ElemType::Announcement, Some("1.0.0.0/8"), 7);
        fold.apply_record(&update(10, vec![a]));
        fold.advance_watermark(100);
        assert_eq!(store.watermark(), 100);
        assert_eq!(store.event_count(), 1);
        assert_eq!(store.snapshot_count(), 0);
        let b = elem(150, ElemType::Announcement, Some("2.0.0.0/8"), 7);
        fold.apply_record(&update(150, vec![b]));
        fold.advance_watermark(200);
        assert_eq!(store.snapshot_count(), 1);
        // Regressions are no-ops.
        fold.advance_watermark(50);
        assert_eq!(store.watermark(), 200);
        fold.finish();
        assert_eq!(store.watermark(), u64::MAX);
    }

    #[test]
    fn checkpoint_restore_roundtrips_full_state() {
        let mut fold = RibFold::new(300);
        for r in dump(0, &["1.0.0.0/8", "3.0.0.0/8"], 7) {
            fold.apply_record(&r);
        }
        fold.advance_watermark(100);
        let w = elem(120, ElemType::Withdrawal, Some("3.0.0.0/8"), 7);
        fold.apply_record(&update(120, vec![w]));
        // Mid-dump: the open dump's row sits in a shadow cell.
        let [start, end] = dump(150, &["2.0.0.0/8"], 9);
        fold.apply_record(&start);
        let frame = fold.checkpoint();
        let mut back = RibFold::new(0);
        back.restore(&frame).unwrap();
        assert_eq!(back.watermark(), 100);
        assert_eq!(back.snapshot_every(), 300);
        assert_eq!(back.table().encode(), fold.table().encode());
        assert_eq!(back.checkpoint(), frame);
        // Both finish the dump identically.
        fold.apply_record(&end);
        back.apply_record(&end);
        assert_eq!(back.checkpoint(), fold.checkpoint());
        assert_eq!(back.error_stats(), fold.error_stats());
        assert!(back.restore(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn dump_transitions_are_journaled_at_its_end() {
        let store = MemoryRibStore::shared();
        let mut fold = RibFold::new(0).with_store(store.clone());
        let [start, end] = dump(100, &["1.0.0.0/8", "2.0.0.0/8"], 7);
        fold.apply_record(&start);
        assert_eq!(fold.table().route_count(), 0, "rows wait in shadow cells");
        fold.apply_record(&end);
        assert_eq!(fold.table().route_count(), 2);
        // The next dump lacks 2.0.0.0/8 and moves 1.0.0.0/8.
        for r in dump(200, &["1.0.0.0/8"], 8) {
            fold.apply_record(&r);
        }
        assert_eq!(route_origin(&fold, "1.0.0.0/8"), Some(Asn(8)));
        assert_eq!(route_origin(&fold, "2.0.0.0/8"), None);
        assert_eq!(fold.error_stats().cells_checked, 2);
        assert_eq!(fold.error_stats().cells_mismatched, 2);
        fold.advance_watermark(300);
        let events = store.events_in(0, u64::MAX);
        let times: Vec<u64> = events.iter().map(|e| e.time).collect();
        assert_eq!(times, [105, 105, 205, 205], "stamped with each dump's end");
        assert!(matches!(events[2].action, RibAction::Announce { .. }));
        assert!(matches!(events[3].action, RibAction::Withdraw { .. }));
        // A dump without any of the VP's rows takes it down.
        for r in dump(400, &[], 7) {
            fold.apply_record(&r);
        }
        let peer = PEER.parse().unwrap();
        assert_eq!(fold.vp_state("rrc00", &peer), Some(MacroState::Down));
        assert_eq!(fold.table().route_count(), 0);
    }

    #[test]
    fn corrupted_dumps_and_updates_are_not_applied() {
        let mut fold = RibFold::new(0);
        for r in dump(100, &["1.0.0.0/8"], 7) {
            fold.apply_record(&r);
        }
        // E1: a dump holding a corrupted record is discarded whole.
        let [start, end] = dump(200, &["1.0.0.0/8", "2.0.0.0/8"], 8);
        let mut bad = update(202, vec![]);
        bad.status = RecordStatus::CorruptedRecord;
        bad.source = broker::SourceId::intern("ris", "rrc00", DumpType::Rib);
        for r in [start, bad, end] {
            fold.apply_record(&r);
        }
        assert_eq!(route_origin(&fold, "1.0.0.0/8"), Some(Asn(7)));
        assert_eq!(fold.table().route_count(), 1);
        // E3: after a corrupted Updates record, updates wait for the
        // next clean dump.
        let mut bad = update(300, vec![]);
        bad.status = RecordStatus::CorruptedRecord;
        fold.apply_record(&bad);
        let a = elem(310, ElemType::Announcement, Some("3.0.0.0/8"), 9);
        fold.apply_record(&update(310, vec![a.clone()]));
        assert_eq!(route_origin(&fold, "3.0.0.0/8"), None);
        for r in dump(400, &["1.0.0.0/8"], 7) {
            fold.apply_record(&r);
        }
        fold.apply_record(&update(410, vec![a]));
        assert_eq!(route_origin(&fold, "3.0.0.0/8"), Some(Asn(9)));
    }

    #[test]
    fn invalid_records_and_pathless_prefixes_are_skipped() {
        let mut fold = RibFold::new(0);
        // No prefix, or no path, on an announcement: skipped.
        let mut pathless = elem(10, ElemType::Announcement, Some("2.0.0.0/8"), 7);
        pathless.as_path = None;
        let prefixless = elem(10, ElemType::Announcement, None, 7);
        fold.apply_record(&update(10, vec![prefixless, pathless]));
        assert_eq!(fold.stats().events, 0);
        // E4: a session leaving Established clears the table.
        let a = elem(10, ElemType::Announcement, Some("1.0.0.0/8"), 7);
        let mut down = elem(11, ElemType::PeerState, None, 7);
        down.new_state = Some(SessionState::Idle);
        fold.apply_record(&update(11, vec![a, down]));
        assert_eq!(fold.table().route_count(), 0);
        let peer = PEER.parse().unwrap();
        assert_eq!(fold.vp_state("rrc00", &peer), Some(MacroState::Down));
        let mut up = elem(12, ElemType::PeerState, None, 7);
        up.new_state = Some(SessionState::Established);
        fold.apply_record(&update(12, vec![up]));
        assert!(fold.table().loc_rib("rrc00", &peer).unwrap().up);
        assert_eq!(fold.vp_state("rrc00", &peer), Some(MacroState::Up));
    }
}
