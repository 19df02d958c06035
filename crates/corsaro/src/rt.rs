//! The routing-tables (RT) plugin (§6.2.1, Figure 8).
//!
//! Reconstructs each VP's observable Loc-RIB at fine time granularity:
//! a RIB dump provides the starting reference, Updates dumps evolve
//! it, and subsequent RIB dumps sanity-check and correct it. The
//! Figure 8 state machine itself — macro states, shadow cells, the
//! special events E1–E4, dump-end reconciliation and the accuracy
//! self-check — is [`rib::RibFold`]'s (see `rib::fold`); this plugin
//! holds a store-less fold restricted to its collector and projects it
//! per bin.
//!
//! At the end of each time bin the plugin counts/publishes **diff
//! cells** — the changed portion of the reconstructed tables — which
//! Figure 9 compares against the raw BGP elem count: it records a
//! cell's pre-bin path the first time the fold touches the cell in a
//! bin and emits the cells whose path changed. Periodic `Full`
//! messages carry every route of the VPs whose table is available.

use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::{AsPath, Asn, Prefix};
use bgpstream::{BgpStreamElem, BgpStreamRecord, ElemType};
use broker::DumpType;
use bytes::{Buf, BufMut, BytesMut};
use fxhash::FxHashMap;
use mq::Cluster;
pub use rib::{MacroState, RtErrorStats};
use rib::{RibAction, RibFold};

use crate::codec::{decode_cells, encode_cells, encode_meta, sort_cells, DiffCell, RtMessage};
use crate::pipeline::{Partitioning, Plugin};
use crate::runtime::{shard_of_peer, ShardedPlugin};

/// Checkpoint format version.
const RT_VERSION: u8 = 2;

/// Per-bin statistics (the Figure 9 series).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtBinStats {
    /// Bin start.
    pub bin: u64,
    /// BGP elems extracted from update messages in this bin.
    pub elems: u64,
    /// Diff cells between the previous bin's tables and this one's.
    pub diff_cells: u64,
}

/// The RT plugin: one instance per collector (the paper runs one
/// BGPCorsaro per collector to spread load).
pub struct RtPlugin {
    collector: String,
    /// The routing-table state machine, fed this collector's records.
    fold: RibFold,
    /// Pre-bin path of every cell the fold touched this bin.
    dirty: FxHashMap<(IpAddr, Prefix), Option<AsPath>>,
    elems_in_bin: u64,
    mq: Option<Arc<Cluster>>,
    /// Publish a full table every this many bins (0 = never).
    full_every_bins: u64,
    bins_since_full: u64,
    /// `Some((shard, shards))` on a shard instance of the sharded
    /// runtime: only elems whose VP hashes to `shard` are applied
    /// (record-level events — E1/E3 corruption, RIB dump start/end —
    /// replay on every shard).
    shard: Option<(usize, usize)>,
    /// Shard instances retain each bin's outputs for
    /// [`ShardedPlugin::take_partial`].
    collect_partials: bool,
    pending_partial: Option<Vec<u8>>,
    /// Error counters already shipped in partials (partials carry
    /// deltas, the per-run totals live on the root).
    err_reported: RtErrorStats,
    /// The Figure 9 series.
    pub bin_series: Vec<RtBinStats>,
    /// Accuracy counters.
    pub error_stats: RtErrorStats,
}

impl RtPlugin {
    /// A plugin for `collector`'s stream.
    pub fn new(collector: &str) -> Self {
        RtPlugin {
            collector: collector.to_string(),
            fold: RibFold::new(0),
            dirty: FxHashMap::default(),
            elems_in_bin: 0,
            mq: None,
            full_every_bins: 0,
            bins_since_full: 0,
            shard: None,
            collect_partials: false,
            pending_partial: None,
            err_reported: RtErrorStats::default(),
            bin_series: Vec::new(),
            error_stats: RtErrorStats::default(),
        }
    }

    /// Publish bin diffs (and periodic full tables) to the queue.
    pub fn with_queue(mut self, mq: Arc<Cluster>, full_every_bins: u64) -> Self {
        self.mq = Some(mq);
        self.full_every_bins = full_every_bins;
        self
    }

    /// The FSM state of the VP at `ip`, if known.
    pub fn vp_state(&self, ip: IpAddr) -> Option<MacroState> {
        self.fold.vp_state(&self.collector, &ip)
    }

    /// Number of announced prefixes in the VP's reconstructed table.
    pub fn vp_table_size(&self, ip: IpAddr) -> usize {
        self.fold
            .table()
            .loc_rib(&self.collector, &ip)
            .map_or(0, |rib| rib.route_count())
    }

    /// Known VPs.
    pub fn vp_addrs(&self) -> Vec<IpAddr> {
        self.fold.vps(&self.collector).map(|(ip, _)| ip).collect()
    }

    /// Shared body of `process_record` (elem gate: peer-shard hash)
    /// and `process_sharded` (elem gate: the runtime's precomputed
    /// ownership mask).
    fn process_impl(&mut self, record: &BgpStreamRecord, mask: Option<&[bool]>) {
        if record.collector() != self.collector {
            return;
        }
        let shard = self.shard;
        let owns = |i: usize, elem: &BgpStreamElem| match (mask, shard) {
            (Some(mask), _) => mask[i],
            (None, Some((shard, shards))) => shard_of_peer(&elem.peer_address, shards) == shard,
            (None, None) => true,
        };
        if record.dump_type() == DumpType::Updates && record.status.is_valid() {
            // Updates count as elems received whether or not E3 lets
            // the fold apply them.
            self.elems_in_bin += record
                .elems()
                .iter()
                .enumerate()
                .filter(|(i, elem)| {
                    matches!(
                        elem.elem_type,
                        ElemType::Announcement | ElemType::Withdrawal
                    ) && owns(*i, elem)
                })
                .count() as u64;
        }
        let dirty = &mut self.dirty;
        self.fold
            .apply_record_with(record, &owns, &mut |table, ev| {
                let rib = || table.loc_rib(&ev.collector, &ev.peer);
                match &ev.action {
                    RibAction::Announce { prefix, .. } | RibAction::Withdraw { prefix } => {
                        dirty.entry((ev.peer, *prefix)).or_insert_with(|| {
                            rib()
                                .and_then(|rib| rib.route(prefix))
                                .and_then(|route| route.path.clone())
                        });
                    }
                    RibAction::PeerDown => {
                        for (prefix, route) in rib().into_iter().flat_map(|rib| rib.routes()) {
                            dirty
                                .entry((ev.peer, *prefix))
                                .or_insert_with(|| route.path.clone());
                        }
                    }
                    RibAction::PeerUp => {}
                }
            });
        self.error_stats = self.fold.error_stats();
    }

    /// Every announced cell of every available VP (the `Full` message
    /// body), unsorted.
    fn full_cells(&self) -> Vec<DiffCell> {
        let table = self.fold.table();
        self.fold
            .vps(&self.collector)
            .filter(|(_, state)| state.table_available())
            .filter_map(|(ip, _)| table.loc_rib(&self.collector, &ip))
            .flat_map(|rib| {
                rib.routes().map(|(prefix, route)| DiffCell {
                    vp: rib.peer_asn,
                    prefix: *prefix,
                    path: route.path.clone(),
                })
            })
            .collect()
    }

    /// Publish one bin's outputs to the queue (no-op without one).
    /// Shared by the sequential `end_bin` and the sharded merge, so
    /// both paths emit identical message sequences.
    fn publish(&self, bin_start: u64, diff: Vec<DiffCell>, full: Option<Vec<DiffCell>>) {
        let Some(mq) = &self.mq else { return };
        let msg = RtMessage::Diff {
            collector: self.collector.clone(),
            bin: bin_start,
            cells: diff,
        };
        mq.produce("rt.tables", &self.collector, bin_start, msg.encode());
        if let Some(cells) = full {
            let full = RtMessage::Full {
                collector: self.collector.clone(),
                bin: bin_start,
                cells,
            };
            mq.produce("rt.tables", &self.collector, bin_start, full.encode());
        }
        mq.produce(
            "rt.meta",
            &self.collector,
            bin_start,
            encode_meta(&self.collector, bin_start),
        );
    }
}

impl Plugin for RtPlugin {
    fn name(&self) -> &'static str {
        "routing-tables"
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        self.process_impl(record, None);
    }

    fn end_bin(&mut self, bin_start: u64, _bin_end: u64) {
        // Count real value changes (a cell that flapped back within
        // the bin is not a diff).
        let mut diff_cells: Vec<DiffCell> = Vec::new();
        for ((ip, prefix), prev) in self.dirty.drain() {
            let rib = self.fold.table().loc_rib(&self.collector, &ip);
            let current = rib
                .and_then(|rib| rib.route(&prefix))
                .and_then(|route| route.path.clone());
            if current != prev {
                diff_cells.push(DiffCell {
                    vp: rib.map_or(Asn(0), |rib| rib.peer_asn),
                    prefix,
                    path: current,
                });
            }
        }
        // Canonical order: the `dirty` drain above is HashMap-ordered,
        // which would make queue payloads differ run to run (and shard
        // layout to shard layout). Only the serializing paths need it
        // — a queue-less sequential plugin just counts the cells.
        if self.mq.is_some() || self.collect_partials {
            sort_cells(&mut diff_cells);
        }
        let elems = self.elems_in_bin;
        // Shard instances (collect_partials) keep no series of their
        // own — the stats travel in the partial, and a 24/7 run must
        // not grow per-shard memory one point per bin.
        if !self.collect_partials {
            self.bin_series.push(RtBinStats {
                bin: bin_start,
                elems,
                diff_cells: diff_cells.len() as u64,
            });
        }
        self.elems_in_bin = 0;

        // Full-table cadence: advanced by publishers (mq) *and* by
        // shard instances, which must ship full cells in the same bins
        // the sequential plugin would publish them.
        let mut full: Option<Vec<DiffCell>> = None;
        if (self.mq.is_some() || self.collect_partials) && self.full_every_bins > 0 {
            self.bins_since_full += 1;
            if self.bins_since_full >= self.full_every_bins {
                self.bins_since_full = 0;
                let mut cells = self.full_cells();
                sort_cells(&mut cells);
                full = Some(cells);
            }
        }

        if self.collect_partials {
            let checked = self.error_stats.cells_checked - self.err_reported.cells_checked;
            let mismatched = self.error_stats.cells_mismatched - self.err_reported.cells_mismatched;
            self.err_reported = self.error_stats;
            let mut out = BytesMut::new();
            out.put_u64(elems);
            out.put_u64(checked);
            out.put_u64(mismatched);
            encode_cells(&mut out, &diff_cells);
            match &full {
                Some(cells) => {
                    out.put_u8(1);
                    encode_cells(&mut out, cells);
                }
                None => out.put_u8(0),
            }
            self.pending_partial = Some(out.to_vec());
        }
        self.publish(bin_start, diff_cells, full);
    }

    fn partitioning(&self) -> Partitioning {
        // Everything the fold tracks — cells, FSM state, `rib_seen`
        // bookkeeping, accuracy checks — is keyed by the VP, so peer
        // sharding partitions the state exactly. (Prefix sharding
        // would *not* be safe here: a shard seeing none of a VP's RIB
        // rows would wrongly declare the VP down via the footnote-5
        // rule.)
        Partitioning::ByPeer
    }

    /// The fold's own checkpoint frame plus the plugin's per-bin
    /// state; configuration (queue handle, full-table cadence, shard
    /// assignment) is not included.
    fn checkpoint(&self) -> Vec<u8> {
        use crate::codec::{ip_sort_key, prefix_sort_key, put_ip, put_prefix, put_route};

        let mut out = BytesMut::new();
        out.put_u8(RT_VERSION);
        out.put_u16(self.collector.len() as u16);
        out.put_slice(self.collector.as_bytes());
        let fold = self.fold.checkpoint();
        out.put_u32(fold.len() as u32);
        out.put_slice(&fold);
        let mut dirty: Vec<_> = self.dirty.iter().collect();
        dirty.sort_by_key(|((ip, p), _)| (ip_sort_key(ip), prefix_sort_key(p)));
        out.put_u32(dirty.len() as u32);
        for ((ip, prefix), prev) in dirty {
            put_ip(&mut out, ip);
            put_prefix(&mut out, prefix);
            put_route(&mut out, prev);
        }
        out.put_u64(self.elems_in_bin);
        out.put_u64(self.bins_since_full);
        let partial = self.pending_partial.as_deref();
        out.put_u8(partial.is_some() as u8);
        out.put_u32(partial.map_or(0, <[u8]>::len) as u32);
        out.put_slice(partial.unwrap_or_default());
        for stats in [&self.err_reported, &self.error_stats] {
            out.put_u64(stats.cells_checked);
            out.put_u64(stats.cells_mismatched);
        }
        out.put_u32(self.bin_series.len() as u32);
        for s in &self.bin_series {
            out.put_u64(s.bin);
            out.put_u64(s.elems);
            out.put_u64(s.diff_cells);
        }
        out.to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        use crate::codec::{get_ip, get_prefix, get_route};

        fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
            if buf.len() < n {
                return Err(format!("rt checkpoint: truncated {what}"));
            }
            let (head, rest) = buf.split_at(n);
            *buf = rest;
            Ok(head)
        }

        let mut buf = bytes;
        let mut head = take(&mut buf, 3, "header")?;
        let version = head.get_u8();
        if version != RT_VERSION {
            return Err(format!("rt checkpoint: unknown version {version}"));
        }
        let name_len = head.get_u16() as usize;
        let collector = String::from_utf8_lossy(take(&mut buf, name_len, "collector name")?);
        if collector != self.collector {
            return Err(format!(
                "rt checkpoint: collector mismatch (checkpoint {collector:?}, instance {:?})",
                self.collector
            ));
        }
        let fold_len = take(&mut buf, 4, "fold length")?.get_u32() as usize;
        let mut fold = RibFold::new(0);
        fold.restore(take(&mut buf, fold_len, "fold")?)?;
        let mut dirty = FxHashMap::default();
        for _ in 0..take(&mut buf, 4, "dirty count")?.get_u32() {
            let ip = get_ip(&mut buf)?;
            let prefix = get_prefix(&mut buf)?;
            dirty.insert((ip, prefix), get_route(&mut buf)?);
        }
        let mut scalars = take(&mut buf, 8 + 8 + 1 + 4, "scalar state")?;
        let elems_in_bin = scalars.get_u64();
        let bins_since_full = scalars.get_u64();
        let has_partial = scalars.get_u8() == 1;
        let partial = take(&mut buf, scalars.get_u32() as usize, "partial body")?;
        let pending_partial = has_partial.then(|| partial.to_vec());
        let mut counters = take(&mut buf, 32, "counters")?;
        let mut stats = || RtErrorStats {
            cells_checked: counters.get_u64(),
            cells_mismatched: counters.get_u64(),
        };
        let (err_reported, error_stats) = (stats(), stats());
        let n = take(&mut buf, 4, "bin series")?.get_u32() as usize;
        let mut series = take(&mut buf, n.saturating_mul(24), "bin series")?;
        let bin_series = (0..n)
            .map(|_| RtBinStats {
                bin: series.get_u64(),
                elems: series.get_u64(),
                diff_cells: series.get_u64(),
            })
            .collect();
        if !buf.is_empty() {
            return Err("rt checkpoint: trailing bytes".into());
        }

        self.fold = fold;
        self.dirty = dirty;
        self.elems_in_bin = elems_in_bin;
        self.bins_since_full = bins_since_full;
        self.pending_partial = pending_partial;
        self.err_reported = err_reported;
        self.error_stats = error_stats;
        self.bin_series = bin_series;
        Ok(())
    }
}

impl ShardedPlugin for RtPlugin {
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        let mut fresh = RtPlugin::new(&self.collector);
        // Shards compute full-table cells only if the root will
        // actually publish them.
        fresh.full_every_bins = if self.mq.is_some() {
            self.full_every_bins
        } else {
            0
        };
        fresh.shard = Some((shard, shards));
        fresh.collect_partials = true;
        Box::new(fresh)
    }

    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        self.process_impl(record, Some(mask));
    }

    fn take_partial(&mut self) -> Vec<u8> {
        self.pending_partial
            .take()
            // xcheck:allow(unwrap) — protocol: end_bin always precedes take_partial
            .expect("take_partial follows end_bin on a shard instance")
    }

    fn merge_bin(&mut self, bin_start: u64, _bin_end: u64, partials: Vec<Vec<u8>>) {
        let mut elems = 0u64;
        let mut checked = 0u64;
        let mut mismatched = 0u64;
        let mut diff: Vec<DiffCell> = Vec::new();
        let mut full: Option<Vec<DiffCell>> = None;
        for partial in &partials {
            let mut buf = &partial[..];
            elems += buf.get_u64();
            checked += buf.get_u64();
            mismatched += buf.get_u64();
            // xcheck:allow(unwrap) — partials are produced by our own take_partial
            diff.extend(decode_cells(&mut buf).expect("well-formed shard partial"));
            if buf.get_u8() == 1 {
                full.get_or_insert_with(Vec::new)
                    // xcheck:allow(unwrap) — same encoder wrote this buffer
                    .extend(decode_cells(&mut buf).expect("well-formed shard partial"));
            }
        }
        // VPs are disjoint across shards, so concatenation + canonical
        // sort reproduces the sequential cell lists exactly.
        sort_cells(&mut diff);
        if let Some(cells) = &mut full {
            sort_cells(cells);
        }
        self.bin_series.push(RtBinStats {
            bin: bin_start,
            elems,
            diff_cells: diff.len() as u64,
        });
        self.error_stats.cells_checked += checked;
        self.error_stats.cells_mismatched += mismatched;
        self.publish(bin_start, diff, full);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::SessionState;
    use bgpstream::record::{DumpPosition, RecordStatus};
    use bgpstream::BgpStreamElem;

    const VP: &str = "10.1.0.1";

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn vp_ip() -> IpAddr {
        VP.parse().unwrap()
    }

    fn rec(
        ts: u64,
        dump_type: DumpType,
        position: DumpPosition,
        status: RecordStatus,
        elems: Vec<BgpStreamElem>,
    ) -> BgpStreamRecord {
        BgpStreamRecord::new("ris", "rrc00", dump_type, 0, ts, position, status, elems)
    }

    fn elem(ty: ElemType, ts: u64, prefix: &str, path: &[u32]) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ty,
            time: ts,
            peer_address: vp_ip(),
            peer_asn: Asn(65001),
            prefix: Some(p(prefix)),
            next_hop: None,
            as_path: if path.is_empty() {
                None
            } else {
                Some(AsPath::from_sequence(path.iter().copied()))
            },
            communities: None,
            old_state: None,
            new_state: None,
        }
    }

    fn state_elem(ts: u64, new_state: SessionState) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::PeerState,
            prefix: None,
            old_state: Some(SessionState::Established),
            new_state: Some(new_state),
            ..elem(ElemType::PeerState, ts, "0.0.0.0/0", &[])
        }
    }

    /// A 2-record RIB dump carrying one route.
    fn feed_rib(rt: &mut RtPlugin, ts: u64, prefix: &str, path: &[u32]) {
        rt.process_record(&rec(
            ts,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            ts,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, ts, prefix, path)],
        ));
    }

    #[test]
    fn fsm_walks_down_rib_up() {
        let mut rt = RtPlugin::new("rrc00");
        assert_eq!(rt.vp_state(vp_ip()), None);
        rt.process_record(&rec(
            100,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            100,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, 100, "10.0.0.0/8", &[65001, 137])],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::DownRibApplication));
        rt.process_record(&rec(
            101,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
    }

    #[test]
    fn updates_evolve_the_table() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        rt.process_record(&rec(
            200,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                200,
                "20.0.0.0/16",
                &[65001, 9],
            )],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 2);
        rt.process_record(&rec(
            210,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Withdrawal, 210, "10.0.0.0/8", &[])],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
    }

    #[test]
    fn e1_corrupted_rib_is_ignored_entirely() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        // Second RIB claims a different path but contains a corrupted
        // record: it must be discarded; the table keeps the old path.
        rt.process_record(&rec(
            500,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            500,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, 500, "10.0.0.0/8", &[65001, 666])],
        ));
        rt.process_record(&rec(
            501,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::CorruptedRecord,
            vec![],
        ));
        rt.process_record(&rec(
            502,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        // Route unchanged (old path), and no accuracy penalty counted.
        let errs = rt.error_stats;
        assert_eq!(errs.cells_checked, 0);
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
    }

    #[test]
    fn e2_stale_rib_rows_do_not_overwrite_newer_updates() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        // An update at t=600 changes the path.
        rt.process_record(&rec(
            600,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                600,
                "10.0.0.0/8",
                &[65001, 42],
            )],
        ));
        // A RIB whose records carry OLDER timestamps (out-of-order
        // publication): must not clobber the newer update.
        feed_rib(&mut rt, 550, "10.0.0.0/8", &[65001, 137]);
        // Table must still hold the t=600 path: check via diff series.
        rt.end_bin(0, 3600);
        // The final value (path 42) vs pre-bin value (none → announced)
        // is one diff; crucially the *stale* RIB didn't revert it.
        // Verify by re-announcing the same path: no new diff.
        rt.process_record(&rec(
            700,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                700,
                "10.0.0.0/8",
                &[65001, 42],
            )],
        ));
        rt.end_bin(3600, 7200);
        assert_eq!(rt.bin_series.last().unwrap().diff_cells, 0);
    }

    #[test]
    fn e3_corrupted_update_poisons_until_next_rib() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        rt.process_record(&rec(
            200,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::CorruptedRecord,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Down));
        // Updates while poisoned are not applied.
        rt.process_record(&rec(
            210,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement, 210, "30.0.0.0/8", &[65001, 9])],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
        // A clean RIB restores processing.
        feed_rib(&mut rt, 300, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        rt.process_record(&rec(
            400,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement, 400, "30.0.0.0/8", &[65001, 9])],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 2);
    }

    #[test]
    fn e4_state_messages_force_transitions() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        rt.process_record(&rec(
            200,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![state_elem(200, SessionState::Idle)],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Down));
        assert_eq!(rt.vp_table_size(vp_ip()), 0, "down VP's table cleared");
        rt.process_record(&rec(
            300,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![state_elem(300, SessionState::Established)],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
    }

    #[test]
    fn vp_missing_from_rib_is_declared_down() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        // Next RIB has no rows for this VP (e.g. RouteViews VP died
        // silently).
        rt.process_record(&rec(
            500,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            501,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Down));
        assert_eq!(rt.vp_table_size(vp_ip()), 0);
    }

    #[test]
    fn accuracy_check_counts_mismatches() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        // Second RIB agrees → checked, no mismatch.
        feed_rib(&mut rt, 500, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.error_stats.cells_checked, 1);
        assert_eq!(rt.error_stats.cells_mismatched, 0);
        // Third RIB disagrees (we "missed" an update) → mismatch.
        feed_rib(&mut rt, 900, "10.0.0.0/8", &[65001, 42]);
        assert_eq!(rt.error_stats.cells_checked, 2);
        assert_eq!(rt.error_stats.cells_mismatched, 1);
        assert!(rt.error_stats.error_probability() > 0.0);
    }

    #[test]
    fn diff_cells_dedupe_within_bin_and_ignore_flap_backs() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 0, "10.0.0.0/8", &[65001, 137]);
        rt.end_bin(0, 60); // absorb RIB-application diffs
        let announce = |rt: &mut RtPlugin, ts: u64, path: &[u32]| {
            rt.process_record(&rec(
                ts,
                DumpType::Updates,
                DumpPosition::Middle,
                RecordStatus::Valid,
                vec![elem(ElemType::Announcement, ts, "10.0.0.0/8", path)],
            ));
        };
        // Path flaps A→B→A within one bin: zero diffs.
        announce(&mut rt, 70, &[65001, 42]);
        announce(&mut rt, 80, &[65001, 137]);
        rt.end_bin(60, 120);
        let s = rt.bin_series.last().unwrap();
        assert_eq!(s.elems, 2);
        assert_eq!(s.diff_cells, 0);
        // A single real change: one diff despite two updates.
        announce(&mut rt, 130, &[65001, 42]);
        announce(&mut rt, 140, &[65001, 42]);
        rt.end_bin(120, 180);
        let s = rt.bin_series.last().unwrap();
        assert_eq!(s.elems, 2);
        assert_eq!(s.diff_cells, 1);
    }

    #[test]
    fn queue_publication_emits_diffs_and_meta() {
        let mq = Cluster::shared();
        let mut rt = RtPlugin::new("rrc00").with_queue(mq.clone(), 2);
        feed_rib(&mut rt, 0, "10.0.0.0/8", &[65001, 137]);
        rt.end_bin(0, 60);
        rt.end_bin(60, 120); // triggers a Full (every 2 bins)
        let msgs = mq.fetch("rt.tables", 0, 0, 10);
        assert!(msgs.len() >= 2);
        let first = RtMessage::decode(&msgs[0].payload).unwrap();
        assert!(matches!(first, RtMessage::Diff { .. }));
        assert_eq!(first.cells().len(), 1);
        let has_full = msgs
            .iter()
            .any(|m| matches!(RtMessage::decode(&m.payload), Ok(RtMessage::Full { .. })));
        assert!(has_full, "no full table published");
        assert_eq!(mq.stats("rt.meta").messages, 2);
    }

    #[test]
    fn records_from_other_collectors_are_ignored() {
        let mut rt = RtPlugin::new("rrc00");
        let mut other = rec(
            10,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement, 10, "10.0.0.0/8", &[65001, 1])],
        );
        other.source = broker::SourceId::intern("ris", "rrc99", DumpType::Updates);
        rt.process_record(&other);
        assert_eq!(rt.vp_state(vp_ip()), None);
    }

    #[test]
    fn checkpoint_restores_tables_fsm_and_series_byte_identically() {
        // Build non-trivial state: a table, an in-flight updates bin
        // with dirty cells, a closed bin in the series, and a shadow
        // RIB application left open mid-dump.
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        rt.process_record(&rec(
            130,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                130,
                "20.0.0.0/16",
                &[65001, 9],
            )],
        ));
        rt.end_bin(120, 180);
        rt.process_record(&rec(
            190,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Withdrawal, 190, "10.0.0.0/8", &[])],
        ));
        // Leave a RIB application open so shadow cells are live.
        rt.process_record(&rec(
            200,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            200,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, 200, "20.0.0.0/16", &[65001, 9])],
        ));

        let ckpt = rt.checkpoint();
        let mut restored = RtPlugin::new("rrc00");
        restored.restore(&ckpt).expect("restore");
        assert_eq!(restored.checkpoint(), ckpt);

        // Both instances must continue byte-identically: finish the
        // dump, evolve the table, close the bin.
        for plugin in [&mut rt, &mut restored] {
            plugin.process_record(&rec(
                201,
                DumpType::Rib,
                DumpPosition::End,
                RecordStatus::Valid,
                vec![],
            ));
            plugin.process_record(&rec(
                210,
                DumpType::Updates,
                DumpPosition::Middle,
                RecordStatus::Valid,
                vec![elem(
                    ElemType::Announcement,
                    210,
                    "30.0.0.0/24",
                    &[65001, 2],
                )],
            ));
            plugin.end_bin(180, 240);
        }
        assert_eq!(rt.bin_series, restored.bin_series);
        assert_eq!(rt.error_stats, restored.error_stats);
        assert_eq!(rt.checkpoint(), restored.checkpoint());

        // A different collector's instance must refuse the checkpoint,
        // and torn checkpoints must fail loudly rather than restore a
        // partial table.
        let mut wrong = RtPlugin::new("rrc01");
        assert!(wrong.restore(&ckpt).is_err());
        let mut fresh = RtPlugin::new("rrc00");
        assert!(fresh.restore(&ckpt[..ckpt.len() - 1]).is_err());
        assert!(fresh.restore(&[]).is_err());
    }
}
