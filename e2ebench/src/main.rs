//! End-to-end benchmark of the BGPStream reproduction.
//!
//! ```text
//! e2ebench --workload <ingest|interactive|live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a seeded synthetic world through the public `topology` /
//! `collector-sim` APIs, runs one workload against the generated
//! archive for `--seconds`, checks every output, and prints one JSON
//! result line last on stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! output check prints `"correct": false` and exits with code 1. See
//! `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod host;
mod ingest;
mod interactive;
mod layers;
mod live;
mod pipeline;
mod report;
mod rng;
mod trace;
mod world;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use report::{Metrics, END_TO_END, PER_LAYER};
use world::{World, WORLD};

/// Seed kept out of tuning, for checking a claimed gain on inputs the
/// change was not developed against.
pub const HELD_OUT_SEED: u64 = 990_001;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Host probes timed before each set-up.
const SETUP_PROBES: usize = 5;

/// A run that has not finished after this long fails instead of
/// overrunning its time limit.
pub const HARD_LIMIT: Duration = Duration::from_secs(150);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// First output-check failure, if any.
    pub mismatch: Option<String>,
}

/// The world plus what setting it up cost.
pub struct SetUp<T> {
    pub world: World,
    pub prepared: T,
    /// Median over [`SETUP_REPS`] set-ups, at the reference host speed.
    pub setup_s: f64,
    /// Last set-up's part times.
    pub topology_s: f64,
    pub sim_s: f64,
    pub prepare_s: f64,
}

/// Build the seed's world [`SETUP_REPS`] times, each time followed by
/// the workload's `prepare` step, and keep the last. `prepare` is told
/// whether to trace (only the last set-up of a traced run is traced).
pub fn set_up<T>(
    args: &Args,
    root: &Path,
    trace_prepare: bool,
    mut prepare: impl FnMut(&World, bool) -> T,
) -> SetUp<T> {
    let mut times = Vec::new();
    let mut probe = host::HostProbe::default();
    let mut last: Option<(World, (T, f64))> = None;
    for rep in 0..SETUP_REPS {
        // Free the previous set-up before timing the next one.
        if let Some((world, _)) = last.take() {
            std::fs::remove_dir_all(&world.dir).ok();
        }
        let traced = trace_prepare && rep + 1 == SETUP_REPS;
        if traced {
            trace::set_enabled(true);
        }
        let f = host::factor(&probe.sample(SETUP_PROBES));
        let t0 = Instant::now();
        let world = world::build(&WORLD, args.seed, &root.join(format!("world-{rep}")));
        let t1 = Instant::now();
        let prepared = prepare(&world, traced);
        let prepare_s = t1.elapsed().as_secs_f64();
        times.push(t0.elapsed().as_secs_f64() * f);
        trace::set_enabled(false);
        last = Some((world, (prepared, prepare_s)));
    }
    let (world, (prepared, prepare_s)) = last.expect("at least one set-up");
    SetUp {
        topology_s: world.topology_s,
        sim_s: world.sim_s,
        world,
        prepared,
        setup_s: report::median(&times),
        prepare_s,
    }
}

/// Metrics every workload reports the same way.
pub fn common_metrics<T>(m: &mut Metrics, su: &SetUp<T>) {
    eprintln!(
        "e2ebench: archive digest {:016x} ({} records, {} bytes); held-out seed {HELD_OUT_SEED}",
        world::digest(&su.world),
        su.world.records,
        su.world.bytes
    );
    m.set("setup_s", su.setup_s);
    m.set("topology.gen_s", su.topology_s);
    m.set("collector_sim.run_s", su.sim_s);
}

fn work_root(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "work-{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let root = work_root(&args);
    let _ = std::fs::remove_dir_all(&root);
    let outcome = match args.workload.as_str() {
        "ingest" => ingest::run(&args, &root),
        "interactive" => interactive::run(&args, &root),
        "live" => live::run(&args, &root),
        other => Err(format!("unknown workload {other:?}")),
    };
    std::fs::remove_dir_all(&root).ok();
    let mut outcome = match outcome {
        Ok(o) if o.attempted > 0 => o,
        Ok(_) => {
            eprintln!("e2ebench: no operation was attempted");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    outcome.metrics.set("peak_rss_mib", report::peak_rss_mib());
    let catalogue = if args.trace {
        let ratio = outcome.failed as f64 / outcome.attempted as f64;
        outcome.metrics.set("failed_ops_frac", ratio);
        for (name, _) in PER_LAYER {
            if outcome.metrics.get(name).is_none() {
                // A layer this workload does not run did no work.
                outcome.metrics.set(name, 0.0);
            }
        }
        let log = root.with_file_name(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_log(&log) {
            Ok(()) => eprintln!("e2ebench: spans written to {}", log.display()),
            Err(e) => eprintln!("e2ebench: could not write spans: {e}"),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    let correct = outcome.mismatch.is_none();
    if let Some(why) = &outcome.mismatch {
        eprintln!("e2ebench: OUTPUT CHECK FAILED: {why}");
    }
    for (name, unit) in catalogue {
        if let Some(v) = outcome.metrics.get(name) {
            eprintln!("  {name:<36} {v:>16.6} {unit}");
        }
    }
    match outcome
        .metrics
        .render(catalogue, correct, outcome.attempted, outcome.failed)
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
