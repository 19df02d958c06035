//! `live`: an open loop. A benchmark-owned generator thread replays
//! the archive's publication schedule through `LiveFeeder` on a
//! wall-clock schedule, advancing the stream's manual clock as it
//! goes. The replay speed (virtual seconds per wall second) is set per
//! archive so that elems are offered at [`RATE`] per wall second. The consumer is a
//! watermark-released live `BgpStream` into `ShardedRuntime::run_live`
//! at two workers, running `ingest`'s plugin set and bin size.
//!
//! A session replays the whole archive; the loop runs sessions until
//! the time budget is spent. The op is a bin: its latency runs from
//! the first wall instant at which the broker watermark reaches the
//! bin's end to the return of the last root plugin's `merge_bin` for
//! it. A session is a block: its times are scaled by the host probes
//! timed after it. Every session's plugin outputs and RIB store must
//! equal a sequential `ingest` pass over the same archive.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgpstream::{BgpStream, Clock};
use broker::{BrokerClient, Index, LocalBroker};
use collector_sim::{FaultPlan, LiveFeeder};
use corsaro::ShardedRuntime;

use crate::host::HostProbe;
use crate::layers::{BinLog, TracedBroker};
use crate::pipeline::{client, compare_stores, ingest_pass, rib_metrics, PluginSet};
use crate::report::{layer_metrics, percentile, set_timings, Block, Metrics};
use crate::world::{World, BIN};
use crate::{common_metrics, set_up, trace, Args, Outcome, HARD_LIMIT};

/// Offered load, elems per wall second: about half the rate at which
/// the consumer's backlog starts to grow on a 2-vCPU host (see
/// README.md for the calibration). Fixing the elem rate rather than
/// the replay speed keeps the load equal across seeds, whose archives
/// differ in density; on the benchmark's world it is a replay speed
/// of about 10000 virtual seconds per wall second.
pub const RATE: f64 = 40_000.0;
/// Generator tick (wall time between publication steps).
const TICK: Duration = Duration::from_millis(2);
/// Bins starting before this virtual instant are not latency samples:
/// they carry the bootstrap RIB dumps, a start-up transient of every
/// session that the first two RouteViews rotations absorb.
const WARMUP: u64 = 1800;
/// Shard workers of the live runtime.
const WORKERS: usize = 2;
/// Broker window of the live index: one RouteViews updates rotation,
/// the longest dump interval in the archive.
const WINDOW: u64 = 900;
/// Sessions a run needs at least.
const MIN_SESSIONS: usize = 3;
/// Host probes timed after each session.
const PROBES: usize = 10;

/// Watermark-crossing instants per bin end, and the latency of each
/// merged bin. Instants are nanoseconds on any one clock, so tests can
/// drive it on a manual timeline.
pub struct Latency {
    bin: u64,
    stop: u64,
    /// First instant the watermark was at or past each bin end.
    crossed: BTreeMap<u64, u64>,
    next_end: u64,
}

impl Latency {
    /// Bins `[k * bin, (k + 1) * bin)` ending at or before `stop`.
    pub fn new(bin: u64, stop: u64) -> Self {
        Latency {
            bin,
            stop,
            crossed: BTreeMap::new(),
            next_end: bin,
        }
    }

    /// The watermark read `wm` at instant `at_ns`.
    pub fn watermark(&mut self, wm: u64, at_ns: u64) {
        while self.next_end <= wm.min(self.stop) {
            self.crossed.insert(self.next_end, at_ns);
            self.next_end += self.bin;
        }
    }

    /// Latency (ms) of a bin starting at `bin_start` merged at
    /// `merged_ns`. A bin merged before the watermark reached its end
    /// was closed on incomplete data: that is an error.
    pub fn of(&self, bin_start: u64, merged_ns: u64) -> Result<f64, String> {
        let end = bin_start + self.bin;
        match self.crossed.get(&end) {
            Some(&w) if w <= merged_ns => Ok((merged_ns - w) as f64 / 1e6),
            _ => Err(format!(
                "bin [{bin_start}, {end}) merged before the watermark reached its end"
            )),
        }
    }
}

struct Generated {
    late_ms: Vec<f64>,
    backlog_max_s: f64,
}

/// Publish the archive on the wall-clock schedule; record when the
/// watermark crosses each bin end.
fn generate(
    mut feeder: LiveFeeder,
    clock: &Clock,
    index: &Index,
    latency: &Mutex<Latency>,
    bins: &BinLog,
    base: Instant,
    speed: f64,
) -> Generated {
    let horizon = feeder.horizon();
    let mut out = Generated {
        late_ms: Vec::new(),
        backlog_max_s: 0.0,
    };
    let start = Instant::now();
    for k in 1u32.. {
        let due = start + TICK * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let woke = Instant::now();
        out.late_ms
            .push(woke.duration_since(due).as_secs_f64() * 1e3);
        let virt = (speed * (TICK * k).as_secs_f64()) as u64;
        feeder.publish_until(virt);
        clock.advance_to(virt);
        let done = feeder.done();
        if done {
            clock.advance_to(horizon.saturating_add(1));
        }
        let wm = index.watermark();
        let at = woke.duration_since(base).as_nanos() as u64;
        latency.lock().expect("latency poisoned").watermark(wm, at);
        let closed = bins
            .lock()
            .expect("bin log poisoned")
            .last()
            .map(|(b, _)| b + BIN)
            .unwrap_or(0);
        out.backlog_max_s = out.backlog_max_s.max(virt.saturating_sub(closed) as f64);
        if done {
            break;
        }
    }
    out
}

struct Session {
    set: PluginSet,
    lat_ms: Vec<f64>,
    wall_s: f64,
    generated: Generated,
    merged: u64,
    partial: u64,
    error: Option<String>,
}

fn session(
    world: &World,
    runtime: &ShardedRuntime,
    stop: u64,
    speed: f64,
    traced: bool,
    seed: u64,
) -> Session {
    let index = Arc::new(Index::with_window(WINDOW));
    let feeder = LiveFeeder::new(&world.manifest, index.clone(), &FaultPlan::none(), seed);
    let clock = Clock::manual(0);
    let mut set = PluginSet::new(world, traced, true);
    let bins = set.bins.clone().expect("bin log requested");
    let local: Arc<dyn BrokerClient> = LocalBroker::shared(index.clone());
    let broker: Arc<dyn BrokerClient> = if traced {
        TracedBroker::new(local)
    } else {
        local
    };
    let mut stream = BgpStream::builder()
        .broker_client(broker)
        .live(0)
        .watermark_release()
        .clock(clock.clone())
        .start();
    let latency = Mutex::new(Latency::new(BIN, stop));
    let base = Instant::now();
    let (report, wall_s, generated) = std::thread::scope(|s| {
        let gen = s.spawn(|| generate(feeder, &clock, &index, &latency, &bins, base, speed));
        let t0 = Instant::now();
        let report = {
            let _s = trace::span("live.session");
            runtime.run_live(&mut stream, stop, None, &mut set.sharded())
        };
        let wall_s = t0.elapsed().as_secs_f64();
        (
            report,
            wall_s,
            gen.join().expect("generator thread panicked"),
        )
    });
    let latency = latency.into_inner().expect("latency poisoned");
    let mut lat_ms = Vec::new();
    let mut error = None;
    let merged = bins.lock().expect("bin log poisoned").clone();
    for (bin_start, at) in &merged {
        match latency.of(*bin_start, at.duration_since(base).as_nanos() as u64) {
            Ok(ms) if *bin_start >= WARMUP => lat_ms.push(ms),
            Ok(_) => {}
            Err(e) => {
                error.get_or_insert(e);
            }
        }
    }
    let partial = match report {
        Ok(r) => r.partial_bins.len() as u64,
        Err(e) => {
            error.get_or_insert(e.to_string());
            0
        }
    };
    Session {
        set,
        lat_ms,
        wall_s,
        generated,
        merged: merged.len() as u64,
        partial,
        error,
    }
}

pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let su = set_up(args, root, false, |_, _| ());
    let world = &su.world;
    let mut m = Metrics::default();
    common_metrics(&mut m, &su);

    // The sequential pass every live session must reproduce.
    let reference = ingest_pass(
        world,
        client(world, None),
        PluginSet::new(world, false, true),
    );
    if let Some(e) = &reference.error {
        return Err(format!("reference pass failed: {e}"));
    }
    let want = reference.set.outputs();
    let bins_per_session = reference
        .set
        .bins
        .as_ref()
        .map_or(0, |b| b.lock().expect("bin log poisoned").len()) as u64;
    let elems = reference.set.elems() as f64;
    let speed = RATE * reference.stop as f64 / elems;

    let runtime = ShardedRuntime::builder()
        .workers(WORKERS)
        .bin_size(BIN)
        .build();
    trace::set_enabled(args.trace);
    let before = trace::snapshot();
    let mut timed = 0usize;
    let mut blocks: Vec<Block> = Vec::new();
    let mut probe = HostProbe::default();
    let mut late_ms = Vec::new();
    let (mut backlog_max, mut sessions) = (0.0f64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut mismatch = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || blocks.len() < MIN_SESSIONS {
        if start.elapsed() > HARD_LIMIT / 2 {
            return Err(format!("only {timed} bins timed before the time limit"));
        }
        sessions += 1;
        trace::set_op(sessions);
        let s = session(
            world,
            &runtime,
            reference.stop,
            speed,
            args.trace,
            args.seed ^ sessions,
        );
        attempted += bins_per_session;
        let lost = s.partial + bins_per_session.saturating_sub(s.merged);
        failed += lost;
        timed += s.lat_ms.len();
        late_ms.extend(&s.generated.late_ms);
        backlog_max = backlog_max.max(s.generated.backlog_max_s);
        if let Some(e) = &s.error {
            eprintln!("e2ebench: session {sessions}: {e}");
            failed += u64::from(lost == 0);
            mismatch.get_or_insert(format!("session {sessions}: {e}"));
        } else if s.set.outputs() != want {
            mismatch.get_or_insert(format!(
                "session {sessions}: plugin outputs differ from ingest"
            ));
        } else if let Err(e) =
            compare_stores(&s.set.store.mem, &reference.set.store.mem, sessions == 1)
        {
            mismatch.get_or_insert(format!("session {sessions}: {e}"));
        }
        if args.trace && sessions == 1 {
            rib_metrics(&mut m, &s.set.store);
        }
        blocks.push(Block {
            lat_ms: s.lat_ms,
            elems,
            busy_s: s.wall_s,
            probe_s: probe.sample(PROBES),
        });
    }
    trace::set_enabled(false);
    let snap = trace::snapshot().since(&before);
    eprintln!(
        "e2ebench: {sessions} live sessions at {RATE} elems/s ({speed:.0} s/s), {timed} bins timed, backlog max {backlog_max} s"
    );

    set_timings(&mut m, &blocks)?;
    // The generator offers RATE elems per wall second, so the wall
    // rate stays at RATE while the consumer keeps up: it only flags
    // saturation, and is not scaled to the reference speed. A slower
    // consumer shows in the bin latencies first.
    let wall_s: f64 = blocks.iter().map(|b| b.busy_s).sum();
    m.set("elems_per_s", elems * blocks.len() as f64 / wall_s);
    if args.trace {
        layer_metrics(&mut m, &snap, sessions as f64, "live.residual_frac");
        m.set(
            "live.generator_late_p90_ms",
            percentile(&late_ms, 0.9).unwrap_or(0.0),
        );
        m.set("live.backlog_max_s", backlog_max);
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        mismatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_watermark_instant_to_merge_instant() {
        // Manual timeline in ns; 60 s bins, stop at 240.
        let mut l = Latency::new(60, 240);
        l.watermark(0, 1_000);
        l.watermark(59, 2_000);
        l.watermark(130, 3_000_000); // crosses the ends 60 and 120
        l.watermark(130, 4_000_000); // no new crossing
        l.watermark(u64::MAX, 9_000_000); // 180 and 240, not past stop
        assert_eq!(l.of(0, 5_000_000), Ok(2.0));
        assert_eq!(l.of(60, 3_500_000), Ok(0.5));
        assert_eq!(l.of(120, 9_000_000), Ok(0.0));
        assert_eq!(l.of(180, 10_000_000), Ok(1.0));
        assert!(
            l.of(240, 10_000_000).is_err(),
            "bin past stop never crossed"
        );
        // Merged before its data was complete.
        assert!(l.of(0, 2_500_000).is_err());
    }
}
