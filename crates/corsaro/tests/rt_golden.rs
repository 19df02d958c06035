//! Golden guard for the routing-tables plugin (§6.2.1, Fig. 8).
//!
//! One fixed, faulty collector-sim archive (truncated dump files and
//! skipped RIB dumps) is run through [`RtPlugin`] sequentially, on the
//! sharded runtime at 1, 2 and 4 workers, and live under a supervised
//! crash schedule. Every run must emit the same bytes — `rt.tables`
//! and `rt.meta` payloads, the Figure 9 series and the accuracy
//! counters of each collector — and their digest must equal the
//! pinned constant, so a refactor of the routing-table state machine
//! cannot change what the plugin publishes without failing here.

use std::path::PathBuf;
use std::sync::Arc;

use bgpstream::{BgpStream, Clock};
use broker::{DumpMeta, DumpType, Index, LocalBroker};
use collector_sim::{standard_collectors, FaultPlan, LiveFeeder, SimConfig, Simulator};
use corsaro::runtime::{ShardedPlugin, ShardedRuntime};
use corsaro::{
    run_pipeline_until, Chaos, KillSpec, Plugin, RtBinStats, RtErrorStats, RtPlugin, Supervisor,
};
use mq::Cluster;
use topology::control::ControlPlane;
use topology::events::Scenario;
use topology::gen::{generate, TopologyConfig};

const SEED: u64 = 4;
const BIN: u64 = 300;
const HORIZON: u64 = 10 * 3600;
/// Full tables every this many bins.
const FULL_EVERY: u64 = 4;

/// FNV-1a digest of the sequential run's [`Emitted::bytes`].
const GOLDEN: u64 = 0x0a1d_6a14_93e0_0771;

struct World {
    dir: PathBuf,
    index: Arc<Index>,
    manifest: Vec<DumpMeta>,
    collectors: Vec<String>,
}

fn build_world() -> World {
    let dir = std::env::temp_dir().join(format!(
        "bgpstream-rt-golden-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(SEED))), u64::MAX);
    let topo = cp.topology().clone();
    let specs = standard_collectors(&cp, 1, 1, 5, 0.8, SEED);
    let collectors = specs.iter().map(|s| s.name.clone()).collect();
    let mut cfg = SimConfig::new(&dir);
    cfg.seed = SEED;
    cfg.faults.truncate_prob = 0.3;
    cfg.faults.skip_rib_prob = 0.3;
    let mut sim = Simulator::new(cp, specs, cfg);
    let index = Index::shared();
    sim.attach_index(index.clone());
    let mut sc = Scenario::new();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(8)
        .enumerate()
    {
        sc.flap(200 + 431 * k as u64, 5, 900, n.asn, n.prefixes_v4[0].prefix);
    }
    sim.schedule(&sc);
    sim.run_until(HORIZON);
    assert!(sim.stats().truncated_files > 0 && sim.stats().skipped_ribs > 0);
    World {
        dir,
        index,
        manifest: sim.manifest().to_vec(),
        collectors,
    }
}

fn historical_stream(world: &World) -> BgpStream {
    BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(HORIZON))
        .start()
}

/// Everything the plugins of one run emitted.
#[derive(PartialEq, Debug)]
struct Emitted {
    /// Per collector: its `rt.tables` then its `rt.meta` payloads, in
    /// offset order.
    payloads: Vec<Vec<Vec<u8>>>,
    /// Per collector: the Figure 9 series and accuracy counters.
    series: Vec<(Vec<RtBinStats>, RtErrorStats)>,
}

impl Emitted {
    fn collect(world: &World, mq: &Cluster, rts: &[RtPlugin]) -> Emitted {
        let mut payloads = Vec::new();
        for collector in &world.collectors {
            let mut mine = Vec::new();
            for topic in ["rt.tables", "rt.meta"] {
                for part in 0..mq.partitions(topic).max(1) {
                    let mut offset = 0u64;
                    loop {
                        let batch = mq.fetch(topic, part, offset, 64);
                        if batch.is_empty() {
                            break;
                        }
                        offset += batch.len() as u64;
                        mine.extend(
                            batch
                                .into_iter()
                                .filter(|m| m.key == *collector)
                                .map(|m| m.payload),
                        );
                    }
                }
            }
            payloads.push(mine);
        }
        let series = rts
            .iter()
            .map(|rt| (rt.bin_series.clone(), rt.error_stats))
            .collect();
        Emitted { payloads, series }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (payloads, series) in self.payloads.iter().zip(&self.series) {
            for p in payloads {
                out.extend_from_slice(&(p.len() as u64).to_be_bytes());
                out.extend_from_slice(p);
            }
            out.extend_from_slice(format!("{series:?}").as_bytes());
        }
        out
    }

    fn digest(&self) -> u64 {
        self.bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

fn plugins(world: &World, mq: &Arc<Cluster>) -> Vec<RtPlugin> {
    world
        .collectors
        .iter()
        .map(|c| RtPlugin::new(c).with_queue(mq.clone(), FULL_EVERY))
        .collect()
}

fn run_sequential(world: &World, stop: u64) -> Emitted {
    let mq = Cluster::shared();
    let mut rts = plugins(world, &mq);
    let mut refs: Vec<&mut dyn Plugin> = rts.iter_mut().map(|p| p as &mut dyn Plugin).collect();
    run_pipeline_until(&mut historical_stream(world), BIN, stop, &mut refs);
    Emitted::collect(world, &mq, &rts)
}

fn run_sharded(world: &World, workers: usize, stop: u64) -> Emitted {
    let mq = Cluster::shared();
    let mut rts = plugins(world, &mq);
    let mut refs: Vec<&mut dyn ShardedPlugin> = rts
        .iter_mut()
        .map(|p| p as &mut dyn ShardedPlugin)
        .collect();
    ShardedRuntime::builder()
        .workers(workers)
        .bin_size(BIN)
        .build()
        .run_until(&mut historical_stream(world), stop, &mut refs);
    Emitted::collect(world, &mq, &rts)
}

/// Replay the archive live and run it under a supervisor that kills
/// workers mid-bin and tears a checkpoint write.
fn run_supervised(world: &World, stop: u64, records: u64) -> Emitted {
    let live_index = Index::shared();
    let mut feeder = LiveFeeder::new(&world.manifest, live_index.clone(), &FaultPlan::none(), 5);
    let clock = Clock::manual(0);
    let horizon = feeder.horizon();
    let publisher = {
        let clock = clock.clone();
        std::thread::spawn(move || {
            let mut t = 0u64;
            while !feeder.done() {
                t += 600;
                feeder.publish_until(t);
                clock.advance_to(t);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            clock.advance_to(horizon.saturating_add(1));
        })
    };
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(live_index))
        .live(0)
        .watermark_release()
        .clock(clock)
        .poll_interval(std::time::Duration::from_millis(1))
        .start();
    let mq = Cluster::shared();
    let mut rts = plugins(world, &mq);
    let mut refs: Vec<&mut dyn ShardedPlugin> = rts
        .iter_mut()
        .map(|p| p as &mut dyn ShardedPlugin)
        .collect();
    let kill = |worker: usize, at_record: u64| KillSpec {
        worker,
        at_record,
        times: 1,
    };
    let report = Supervisor::new(ShardedRuntime::builder().workers(2).bin_size(BIN).build())
        .with_config(corsaro::SupervisorConfig {
            max_restarts: 10,
            backoff_base_ms: 1,
            backoff_max_ms: 8,
            stall_timeout_ms: u64::MAX / 4,
            clock: bsync::time::Clock::manual(0),
            seed: 0xC0FFEE,
        })
        .with_chaos(Chaos {
            kills: vec![kill(0, records / 4), kill(1, records / 2)],
            torn_checkpoints: vec![(1, 1)],
        })
        .run_live(&mut stream, stop, None, &mut refs)
        .expect("supervised run_live");
    publisher.join().expect("feeder thread");
    assert_eq!(report.restarts, 2, "both scheduled kills restart once");
    assert!(report.partial_bins.is_empty());
    Emitted::collect(world, &mq, &rts)
}

#[test]
fn rt_outputs_match_the_golden_digest_in_every_mode() {
    let world = build_world();

    // The archive must exercise the faults the state machine handles.
    let (mut bad_rib, mut bad_updates, mut records, mut last) = (0, 0, 0u64, 0u64);
    let mut stream = historical_stream(&world);
    while let Some(r) = stream.next_record() {
        records += 1;
        last = last.max(r.timestamp);
        if !r.status.is_valid() {
            match r.dump_type() {
                DumpType::Rib => bad_rib += 1,
                DumpType::Updates => bad_updates += 1,
            }
        }
    }
    assert!(bad_rib > 0, "no corrupted RIB record (E1)");
    assert!(bad_updates > 0, "no corrupted Updates record (E3)");
    let stop = last / BIN * BIN + BIN;

    let sequential = run_sequential(&world, stop);
    let checked: u64 = sequential.series.iter().map(|(_, e)| e.cells_checked).sum();
    assert!(checked > 0, "no accuracy check ran");
    let digest = sequential.digest();
    for workers in [1, 2, 4] {
        assert_eq!(
            run_sharded(&world, workers, stop),
            sequential,
            "sharded run at {workers} workers diverged"
        );
    }
    assert_eq!(
        run_supervised(&world, stop, records),
        sequential,
        "supervised run diverged"
    );
    std::fs::remove_dir_all(&world.dir).ok();
    assert_eq!(digest, GOLDEN, "RT outputs changed: digest {digest:#018x}");
}
