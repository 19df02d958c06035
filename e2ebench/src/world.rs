//! Seeded synthetic worlds, built through the public `topology` and
//! `collector-sim` APIs. The program under test only ever sees the
//! generated archive and its broker index.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bgp_types::{Asn, Prefix};
use broker::{DumpMeta, Index};
use collector_sim::{standard_collectors, SimConfig, Simulator};
use topology::control::ControlPlane;
use topology::events::Scenario;
use topology::gen::{generate, top_isps_of_country, TopologyConfig, COUNTRIES};
use topology::model::Tier;

use crate::rng::Rng;

/// Corsaro bin size (s) for every workload.
pub const BIN: u64 = 60;
/// RIB snapshot cadence (s) of the `RibFeeder`.
pub const SNAPSHOT_EVERY: u64 = 900;

/// The AS topology and the collectors' vantage points are fixed
/// parameters of the benchmark, like its scale: seeds change which
/// routes flap and when, and publication jitter, not the size of the
/// Internet or of the archive, so runs on different seeds measure the
/// same amount of work.
pub const TOPOLOGY_SEED: u64 = 42;

/// World shape. `scale` multiplies the default topology's transit and
/// edge AS counts.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    pub scale: usize,
    pub horizon: u64,
    pub ris: usize,
    pub routeviews: usize,
    pub vps_each: usize,
}

/// The world every workload runs on.
pub const WORLD: WorldConfig = WorldConfig {
    scale: 1,
    horizon: 4 * 3600,
    ris: 2,
    routeviews: 1,
    vps_each: 6,
};

/// A generated archive plus the facts the workloads draw inputs from.
pub struct World {
    pub dir: PathBuf,
    pub horizon: u64,
    pub index: Arc<Index>,
    pub manifest: Vec<DumpMeta>,
    pub collectors: Vec<String>,
    /// IPv4 prefixes originated in the topology (PfxMonitor ranges).
    pub v4_prefixes: Vec<Prefix>,
    /// Every originated prefix with its origin AS.
    pub originated: Vec<(Prefix, Asn)>,
    /// Vantage-point ASes, over all collectors.
    pub vp_asns: Vec<Asn>,
    /// Transit ASes that tag routes with an ingress community.
    pub taggers: Vec<Asn>,
    pub bytes: u64,
    pub records: u64,
    pub topology_s: f64,
    pub sim_s: f64,
}

/// Generate the world for `seed` into `dir` (created if missing).
pub fn build(cfg: &WorldConfig, seed: u64, dir: &Path) -> World {
    std::fs::create_dir_all(dir).expect("create world directory");
    let t0 = Instant::now();
    let topo_cfg = TopologyConfig {
        seed: TOPOLOGY_SEED,
        n_transit: TopologyConfig::default().n_transit * cfg.scale,
        n_edge: TopologyConfig::default().n_edge * cfg.scale,
        ..TopologyConfig::default()
    };
    let topo = Arc::new(generate(&topo_cfg));
    let cp = ControlPlane::new(topo.clone(), u64::MAX);
    let topology_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let specs = standard_collectors(
        &cp,
        cfg.ris,
        cfg.routeviews,
        cfg.vps_each,
        1.0,
        TOPOLOGY_SEED,
    );
    let collectors: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let mut vp_asns: Vec<Asn> = specs
        .iter()
        .flat_map(|s| s.vps.iter().map(|v| v.asn))
        .collect();
    vp_asns.sort_unstable();
    vp_asns.dedup();
    let mut sim_cfg = SimConfig::new(dir);
    sim_cfg.seed = seed;
    let mut sim = Simulator::new(cp, specs, sim_cfg);
    let index = Index::shared();
    sim.attach_index(index.clone());
    sim.schedule(&scenario(&topo, seed, cfg.horizon));
    sim.run_until(cfg.horizon);
    let sim_s = t1.elapsed().as_secs_f64();

    let mut originated = Vec::new();
    for n in &topo.nodes {
        for p in n.prefixes_v4.iter().chain(&n.prefixes_v6) {
            originated.push((p.prefix, n.asn));
        }
    }
    let taggers = topo
        .nodes
        .iter()
        .filter(|n| n.tier == Tier::Transit && n.tags_communities)
        .map(|n| n.asn)
        .collect();
    let stats = sim.stats();
    World {
        dir: dir.to_path_buf(),
        horizon: cfg.horizon,
        index,
        manifest: sim.manifest().to_vec(),
        collectors,
        v4_prefixes: topo
            .nodes
            .iter()
            .flat_map(|n| n.prefixes_v4.iter().map(|p| p.prefix))
            .collect(),
        originated,
        vp_asns,
        taggers,
        bytes: stats.bytes,
        records: stats.records,
        topology_s,
        sim_s,
    }
}

/// Route flaps over the whole horizon on a seeded eighth of the
/// originating ASes (at a fixed spread of periods, so the flap volume
/// does not depend on the seed), plus one outage episode that takes down the top
/// transit ISPs of the country with the most of them.
fn scenario(topo: &topology::model::Topology, seed: u64, horizon: u64) -> Scenario {
    let mut rng = Rng::new(seed ^ 0x5ce7_a210);
    let mut sc = Scenario::new();
    let mut origins: Vec<_> = topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .collect();
    for k in (1..origins.len()).rev() {
        origins.swap(k, rng.below(k as u64 + 1) as usize);
    }
    for (k, n) in origins.iter().take(origins.len() / 8).enumerate() {
        let p = rng.pick(&n.prefixes_v4).prefix;
        let period = 600 + 60 * (k as u64 % 20);
        let start = 300 + rng.below(period);
        let times = (horizon.saturating_sub(start) / period) as u32;
        sc.flap(start, times, period, n.asn, p);
    }
    let mut best: Vec<Asn> = Vec::new();
    for cc in COUNTRIES.iter().skip(5) {
        let isps = top_isps_of_country(topo, **cc, 0);
        if isps.len() > best.len() {
            best = isps;
        }
    }
    best.truncate(3);
    for isp in best {
        sc.outage(horizon / 2, horizon / 8, isp);
    }
    sc
}

/// FNV-1a digest of the archive: every dump's metadata and bytes, in
/// manifest order. Equal seeds must give equal digests.
pub fn digest(world: &World) -> u64 {
    let mut h = Fnv::default();
    for m in &world.manifest {
        h.write(m.collector.as_bytes());
        h.write(&m.interval_start.to_le_bytes());
        h.write(&m.duration.to_le_bytes());
        h.write(&std::fs::read(&m.path).expect("read dump for digest"));
    }
    h.0
}

pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: WorldConfig = WorldConfig {
        scale: 1,
        horizon: 1800,
        ris: 1,
        routeviews: 1,
        vps_each: 2,
    };

    fn scratch(tag: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn one_seed_gives_one_archive() {
        let (a, b, c) = (scratch("wa"), scratch("wb"), scratch("wc"));
        let wa = build(&TINY, 5, &a);
        let wb = build(&TINY, 5, &b);
        let wc = build(&TINY, 6, &c);
        assert!(wa.records > 0);
        assert_eq!(digest(&wa), digest(&wb));
        assert_ne!(digest(&wa), digest(&wc));
        for d in [a, b, c] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}
