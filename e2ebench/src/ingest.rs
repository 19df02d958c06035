//! `ingest`: a closed loop of sequential full-archive passes, archive
//! bytes → `BgpStream` (LocalBroker) → `run_pipeline` with the
//! standing plugin set and a `RibFeeder` folding into a fresh store.
//!
//! End-to-end: the op is a [`CHUNK`] of archive, and its latency is
//! the time from the close of the previous chunk's last bin (or the
//! pass start) to the close of its own. A pass is a block: its times
//! are scaled by the host probes timed after it. A third of the chunks
//! seal a RIB snapshot, so the p90 lies among those, above the plain
//! update chunks and below the few that carry RIB dumps. Every pass
//! must reproduce the first pass's plugin outputs and RIB store.

use std::path::Path;
use std::time::Instant;

use crate::host::HostProbe;
use crate::layers::TracedBroker;
use crate::pipeline::{client, compare_stores, ingest_pass, rib_metrics, Pass, PluginSet};
use crate::report::{layer_metrics, median, set_timings, Block, Metrics};
use crate::world::{World, BIN};

/// Archive span of one ingest op: one RIS updates rotation, 5 bins.
const CHUNK: u64 = 5 * BIN;
use crate::{common_metrics, set_up, trace, Args, Outcome, HARD_LIMIT};

/// Passes a run makes at least: enough chunks for a p90.
const MIN_PASSES: u64 = 3;
/// Host probes timed after each pass.
const PROBES: usize = 3;

/// What a loop of passes measured.
struct Passes {
    /// Times of the untraced passes.
    pass_s: Vec<f64>,
    /// Times of the traced passes.
    traced_s: Vec<f64>,
    /// Chunk close latencies and throughput, one block per pass.
    blocks: Vec<Block>,
    attempted: u64,
    failed: u64,
    mismatch: Option<String>,
}

/// Passes until `budget` seconds are spent. With `alternate`, every
/// second pass is traced, so traced and untraced passes share the
/// host's conditions and the ratio of their times is the tracing
/// overhead.
fn passes(
    world: &World,
    reference: &Pass,
    alternate: bool,
    budget: f64,
    m: &mut Metrics,
) -> Passes {
    let broker = alternate.then(|| TracedBroker::new(client(world, None)));
    let mut out = Passes {
        pass_s: Vec::new(),
        traced_s: Vec::new(),
        blocks: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatch: None,
    };
    let want = reference.set.outputs();
    let start = Instant::now();
    let mut probe = HostProbe::default();
    while start.elapsed().as_secs_f64() < budget || out.attempted < MIN_PASSES {
        if start.elapsed() > HARD_LIMIT / 2 {
            break;
        }
        out.attempted += 1;
        let traced = alternate && out.attempted.is_multiple_of(2);
        trace::set_op(out.attempted);
        trace::set_enabled(traced);
        let set = PluginSet::new(world, traced, true);
        let bins = set.bins.clone().expect("bin log requested");
        let broker = if traced { broker.as_ref() } else { None };
        let t0 = Instant::now();
        let pass = {
            let _op = trace::span("op.ingest");
            ingest_pass(world, client(world, broker), set)
        };
        let dt = t0.elapsed().as_secs_f64();
        trace::set_enabled(false);
        if let Some(e) = &pass.error {
            eprintln!("e2ebench: pass {} failed: {e}", out.attempted);
            out.failed += 1;
            continue;
        }
        let mut block = Block::default();
        let mut prev = t0;
        let log = bins.lock().expect("bin log poisoned");
        for (k, &(start, at)) in log.iter().enumerate() {
            let chunk_end = log
                .get(k + 1)
                .is_none_or(|(next, _)| next / CHUNK != start / CHUNK);
            if chunk_end {
                block
                    .lat_ms
                    .push(at.duration_since(prev).as_secs_f64() * 1e3);
                prev = at;
            }
        }
        drop(log);
        if traced {
            out.traced_s.push(dt);
        } else {
            out.pass_s.push(dt);
        }
        block.elems = pass.set.elems() as f64;
        block.busy_s = dt;
        block.probe_s = probe.sample(PROBES);
        out.blocks.push(block);
        if out.mismatch.is_none() {
            if pass.set.outputs() != want {
                out.mismatch = Some(format!("pass {} plugin outputs differ", out.attempted));
            } else if let Err(e) =
                compare_stores(&pass.set.store.mem, &reference.set.store.mem, false)
            {
                out.mismatch = Some(format!("pass {}: {e}", out.attempted));
            }
        }
        if traced && out.traced_s.len() == 1 {
            rib_metrics(m, &pass.set.store);
        }
    }
    out
}

pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let su = set_up(args, root, false, |_, _| ());
    let world = &su.world;
    let mut m = Metrics::default();
    common_metrics(&mut m, &su);

    // The first pass is the reference every measured pass must match.
    let reference = ingest_pass(
        world,
        client(world, None),
        PluginSet::new(world, false, false),
    );
    if let Some(e) = &reference.error {
        return Err(format!("reference pass failed: {e}"));
    }
    eprintln!(
        "e2ebench: ingest world: {} records, {} elems, {} bytes, stop {}",
        reference.records,
        reference.set.elems(),
        world.bytes,
        reference.stop
    );

    let before = trace::snapshot();
    let run = passes(world, &reference, args.trace, args.seconds, &mut m);
    if args.trace {
        let snap = trace::snapshot().since(&before);
        let n = run.traced_s.len() as f64;
        layer_metrics(&mut m, &snap, n, "ingest.residual_frac");
        if !run.pass_s.is_empty() && !run.traced_s.is_empty() {
            m.set(
                "trace.overhead_frac",
                median(&run.traced_s) / median(&run.pass_s) - 1.0,
            );
        }
    }
    eprintln!(
        "e2ebench: {} passes timed",
        run.pass_s.len() + run.traced_s.len()
    );
    set_timings(&mut m, &run.blocks)?;
    Ok(Outcome {
        metrics: m,
        attempted: run.attempted,
        failed: run.failed,
        mismatch: run.mismatch,
    })
}
