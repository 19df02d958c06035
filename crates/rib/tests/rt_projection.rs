//! One routing-table state machine: at every bin close, the `Full`
//! table `corsaro::RtPlugin` publishes for a collector equals the
//! table a `RibFeeder` journaled into a store, resolved by
//! [`RibQuery`] and projected to `(VP ASN, prefix, path)` over the
//! VPs whose table the plugin reports available — for any generated
//! stream with the paper's data faults (corrupted dump and Updates
//! records, stale dump rows, routes and VPs missing from a later
//! dump).

mod common;

use std::sync::Arc;

use bgp_types::{AsPath, Asn};
use bgpstream::codec::{prefix_sort_key, put_route};
use bytes::BytesMut;
use common::{arb_record, materialize, COLLECTORS};
use corsaro::codec::RtMessage;
use corsaro::{Plugin, RibFeeder, RtPlugin};
use mq::Cluster;
use proptest::collection::vec;
use proptest::prelude::*;
use rib::{MemoryRibStore, RibQuery};

/// A cell as the queue carries it: VP ASN, prefix, and the path in
/// the queue codec's bytes (which flatten AS_SETs).
type Cell = (Asn, (bool, u8, u128), Vec<u8>);

fn path_bytes(path: &Option<AsPath>) -> Vec<u8> {
    let mut out = BytesMut::new();
    put_route(&mut out, path);
    out.to_vec()
}

fn sorted(mut cells: Vec<Cell>) -> Vec<Cell> {
    cells.sort_by_key(|(vp, prefix, _)| (*vp, *prefix));
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rt_full_tables_equal_the_journaled_table_at_every_bin(
        gen in vec(arb_record(), 1..60),
        bin in prop_oneof![Just(60u64), Just(300u64)],
    ) {
        let records = materialize(&gen);
        let store = MemoryRibStore::shared();
        let mut feeder = RibFeeder::new(0, store.clone());
        let queues: Vec<Arc<Cluster>> = COLLECTORS.iter().map(|_| Cluster::shared()).collect();
        let mut rts: Vec<RtPlugin> = COLLECTORS
            .iter()
            .zip(&queues)
            .map(|((_, c), mq)| RtPlugin::new(c).with_queue(mq.clone(), 1))
            .collect();
        let mut bins = 0;
        let mut close = |start: u64, rts: &mut [RtPlugin], feeder: &mut RibFeeder| {
            feeder.end_bin(start, start + bin);
            let table = RibQuery::new().at(start + bin - 1).table(&*store).expect("closed bin");
            for (((_, collector), rt), mq) in COLLECTORS.iter().zip(rts.iter_mut()).zip(&queues) {
                rt.end_bin(start, start + bin);
                let full = mq
                    .fetch("rt.tables", 0, 0, usize::MAX)
                    .into_iter()
                    .rev()
                    .find_map(|m| match RtMessage::decode(&m.payload) {
                        Ok(RtMessage::Full { cells, .. }) => Some(cells),
                        _ => None,
                    })
                    .expect("a Full table every bin");
                let published = sorted(
                    full.into_iter()
                        .map(|c| (c.vp, prefix_sort_key(&c.prefix), path_bytes(&c.path)))
                        .collect(),
                );
                let journaled = sorted(
                    table
                        .rows
                        .iter()
                        .filter(|row| &*row.collector == *collector)
                        .filter(|row| rt.vp_state(row.peer).is_some_and(|s| s.table_available()))
                        .map(|row| (row.peer_asn, prefix_sort_key(&row.prefix), path_bytes(&row.route.path)))
                        .collect(),
                );
                if published != journaled {
                    return Err(format!("{collector} at bin {start}: RT {published:?} != journal {journaled:?}"));
                }
            }
            bins += 1;
            Ok(())
        };
        let mut bin_start: Option<u64> = None;
        for rec in &records {
            let t = rec.timestamp;
            let mut start = *bin_start.get_or_insert(t - t % bin);
            while t >= start + bin {
                close(start, &mut rts, &mut feeder).map_err(TestCaseError::fail)?;
                start += bin;
            }
            bin_start = Some(start);
            feeder.process_record(rec);
            for rt in rts.iter_mut() {
                rt.process_record(rec);
            }
        }
        if let Some(start) = bin_start {
            close(start, &mut rts, &mut feeder).map_err(TestCaseError::fail)?;
        }
        prop_assert!(bins > 0);
    }
}
