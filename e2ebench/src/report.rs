//! Metric catalogue, percentile rule and the result line.

use std::fmt::Write as _;

/// Smallest sample count a timing metric is reported from: the p90
/// needs at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// What each one measures per workload is described in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("elems_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// A layer a workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("broker.queries", "count"),
    ("broker.query_s", "s"),
    ("broker.polls", "count"),
    ("broker.poll_s", "s"),
    ("broker.poll_yield", "ratio"),
    ("mrt.bytes", "bytes"),
    ("mrt.records", "count"),
    ("mrt.decode_s", "s"),
    ("core.next_record_self_s", "s"),
    ("core.records", "count"),
    ("core.elems", "count"),
    ("core.files_opened", "count"),
    ("core.groups", "count"),
    ("core.max_group_width", "count"),
    ("core.filter_yield", "ratio"),
    ("corsaro.elem-counter.busy_s", "s"),
    ("corsaro.pfxmonitor.busy_s", "s"),
    ("corsaro.routing-tables.busy_s", "s"),
    ("corsaro.bins", "count"),
    ("corsaro.runtime.merge_bin_s", "s"),
    ("rib.fold.apply_s", "s"),
    ("rib.fold.publish_s", "s"),
    ("rib.events", "count"),
    ("rib.snapshots", "count"),
    ("rib.snapshot_bytes", "bytes"),
    ("rib.table_rows", "count"),
    ("rib.query.delta_events", "count"),
    ("rib.query.rows_materialised", "count"),
    ("rib.query.rows_returned", "count"),
    ("rib.query.yield", "ratio"),
    ("topology.gen_s", "s"),
    ("collector_sim.run_s", "s"),
    ("setup.fold_s", "s"),
    ("live.generator_late_p90_ms", "ms"),
    ("live.backlog_max_s", "s"),
    ("interactive.scan_full_p50_ms", "ms"),
    ("interactive.scan_full_p90_ms", "ms"),
    ("interactive.scan_filtered_p50_ms", "ms"),
    ("interactive.scan_filtered_p90_ms", "ms"),
    ("interactive.query_table_p50_ms", "ms"),
    ("interactive.query_table_p90_ms", "ms"),
    ("interactive.query_prefix_p50_ms", "ms"),
    ("interactive.query_prefix_p90_ms", "ms"),
    ("ingest.residual_frac", "ratio"),
    ("interactive.residual_frac", "ratio"),
    ("live.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("failed_ops_frac", "ratio"),
];

/// Metric names: a letter or digit, then letters, digits, `_`, `.`
/// and `-`, at most 64 in all.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Units: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The nearest-rank `p`-quantile of `samples`, provided at least ten
/// samples lie beyond it; `None` when the sample cannot support it.
/// The median (`p = 0.5`) needs 20 samples by the same rule.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of any non-empty sample (middle element of the sorted
/// sample; the lower one for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// One block of a run's measured work (a pass, a few analyst steps or
/// a live session) and the host probes timed next to it.
#[derive(Default)]
pub struct Block {
    /// Op latencies (ms).
    pub lat_ms: Vec<f64>,
    pub elems: f64,
    /// Time spent on those elems (s).
    pub busy_s: f64,
    /// Probe times (s), see [`crate::host`].
    pub probe_s: Vec<f64>,
}

/// Set `elems_per_s`, `op_p50_ms` and `op_p90_ms` over all blocks,
/// each block's times scaled to the reference host speed by its own
/// probes.
pub fn set_timings(m: &mut Metrics, blocks: &[Block]) -> Result<(), String> {
    let (mut lat, mut elems, mut busy) = (Vec::new(), 0.0, 0.0);
    for b in blocks.iter().filter(|b| !b.probe_s.is_empty()) {
        let f = crate::host::factor(&b.probe_s);
        lat.extend(b.lat_ms.iter().map(|ms| ms * f));
        elems += b.elems;
        busy += b.busy_s * f;
    }
    if busy <= 0.0 {
        return Err("no block was timed".into());
    }
    m.set("elems_per_s", elems / busy);
    m.set(
        "op_p50_ms",
        percentile(&lat, 0.5).ok_or("too few ops for a median")?,
    );
    m.set(
        "op_p90_ms",
        percentile(&lat, 0.9).ok_or("too few ops for a p90")?,
    );
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Span names of the program's layers; everything else the tracer
/// records is the harness's own op spans.
pub const LAYERS: &[&str] = &["broker.", "core.", "corsaro.", "rib."];

/// The span-derived per-layer metrics, per op of the workload (`ops`
/// passes, analyst ops or live sessions), and the workload's residual:
/// the share of traced time no layer span covers.
pub fn layer_metrics(
    m: &mut Metrics,
    snap: &crate::trace::Snapshot,
    ops: f64,
    residual: &'static str,
) {
    let per_op = |v: f64| v / ops.max(1.0);
    let queries = snap.agg("broker.query");
    m.set("broker.queries", per_op(queries.count as f64));
    m.set("broker.query_s", per_op(snap.self_s("broker.query")));
    let polls = snap.agg("broker.poll");
    m.set("broker.polls", per_op(polls.count as f64));
    m.set("broker.poll_s", per_op(snap.self_s("broker.poll")));
    if polls.count > 0 {
        let hits = snap.count("broker.poll_hits") as f64;
        m.set("broker.poll_yield", hits / polls.count as f64);
    }
    m.set(
        "core.next_record_self_s",
        per_op(snap.self_s("core.next_record")),
    );
    for (metric, span) in [
        ("corsaro.elem-counter.busy_s", "corsaro.elem-counter"),
        ("corsaro.pfxmonitor.busy_s", "corsaro.pfxmonitor"),
        ("corsaro.routing-tables.busy_s", "corsaro.routing-tables"),
        ("corsaro.runtime.merge_bin_s", "corsaro.runtime.merge_bin"),
        ("rib.fold.apply_s", "rib.fold.apply"),
        ("rib.fold.publish_s", "rib.fold.publish"),
    ] {
        m.set(metric, per_op(snap.self_s(span)));
    }
    m.set("corsaro.bins", per_op(snap.count("corsaro.bins") as f64));
    let top = snap.top_s();
    if top > 0.0 {
        m.set(residual, 1.0 - snap.self_s_of(LAYERS) / top);
    }
    eprintln!(
        "e2ebench: traced {top:.3} s in top-level spans, {:.3} s of self time over {} spans ({} not logged)",
        snap.all_self_s(),
        snap.spans,
        snap.dropped
    );
}

/// A run's metrics, checked against the catalogue before printing.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Render the result line: exactly the metrics of `catalogue`, in
    /// catalogue order. A catalogue metric without a value, or a
    /// value that is not finite, is an error.
    pub fn render(
        &self,
        catalogue: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("metric {name} [{unit}] breaks the naming rules"));
            }
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        assert_eq!(percentile(&ninety_nine, 0.5), Some(50.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = percentile(&v, 0.9);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn timings_scale_each_block_by_its_own_probes() {
        let r = crate::host::REFERENCE_S;
        let block = |ms: f64, probe: f64| Block {
            lat_ms: vec![ms; 60],
            elems: 100.0,
            busy_s: 1.0,
            probe_s: vec![probe, probe, 1.0],
        };
        let mut m = Metrics::default();
        // The second block ran at half speed: its ops took twice as
        // long, and so did its probes.
        set_timings(&mut m, &[block(10.0, r), block(20.0, 2.0 * r)]).unwrap();
        assert_eq!(m.get("elems_per_s"), Some(200.0 / 1.5));
        assert_eq!(m.get("op_p50_ms"), Some(10.0));
        assert_eq!(m.get("op_p90_ms"), Some(10.0));
        assert!(set_timings(&mut m, &[block(10.0, r)]).is_err(), "60 ops");
    }

    #[test]
    fn median_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn every_metric_has_a_valid_name_and_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("a/b"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn render_requires_every_catalogue_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.render(&[("a", "s"), ("b", "s")], true, 1, 0).is_err());
        m.set("b", 2.0);
        let line = m.render(&[("a", "s"), ("b", "s")], true, 3, 1).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        m.set("b", f64::NAN);
        assert!(m.render(&[("b", "s")], true, 1, 0).is_err());
    }
}
