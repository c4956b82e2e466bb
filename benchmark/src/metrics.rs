//! The metrics the benchmark reports, and the result line it ends with.

use crate::layers::{median_of, ratio, Counts, PassLayers, Pooled};
use crate::stats::{median, tail};
use hcrf_explore::json::Json;

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "loops_per_s",
    "points_per_s",
    "sum_ii",
    "sim_cycles",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: [&str; 54] = [
    "workloads.gen_ms",
    "engine.tasks",
    "engine.steals",
    "engine.busy_share",
    "engine.capacity_ms",
    "engine.idle_ms",
    "driver.loop_ms_p50",
    "driver.loop_ms_p99",
    "driver.loop_ms_max",
    "driver.loop_samples",
    "driver.self_ms",
    "sched.graph_build_ms",
    "sched.order_ms",
    "sched.warm_start_ms",
    "sched.resets_ms",
    "sched.attempts_ms",
    "sched.ii_attempts",
    "sched.attempts",
    "sched.ejections",
    "sched.ii_skips",
    "sched.warm_starts",
    "sched.budget_exhausts",
    "sched.pressure_refreshes",
    "sched.refresh_skips",
    "sched.refresh_requests",
    "sched.fused_row_updates",
    "sched.ejections_per_attempt",
    "sched.refresh_skip_ratio",
    "sched.ii_over_mii",
    "sched.sum_mii",
    "memsim.ms",
    "memsim.accesses",
    "memsim.misses",
    "memsim.miss_ratio",
    "memsim.stall_cycles",
    "rfmodel.ms",
    "store.open_ms",
    "store.records",
    "store.bytes",
    "store.lookup_us_p50",
    "store.lookup_us_p99",
    "store.lookup_samples",
    "key.ms",
    "store.append_ms_p50",
    "store.append_ms_p99",
    "store.append_samples",
    "store.appends",
    "report.build_ms",
    "report.emit_ms",
    "trace.overhead_pct",
    "trace.untraced_pass_ms",
    "trace.traced_pass_ms",
    "trace.passes",
    "trace.spans",
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For a ratio: the metric it is a share of.
    pub base: Option<&'static str>,
    /// How the value was taken (percentile, sample count).
    pub note: String,
}

/// A plain metric.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: None,
        note: String::new(),
    }
}

impl Metric {
    /// Mark the metric as a ratio over `base`, which is reported too.
    pub fn of(mut self, base: &'static str) -> Self {
        self.base = Some(base);
        self
    }

    /// Attach a note.
    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

fn count(name: &'static str, value: u64) -> Metric {
    metric(name, value as f64, "count")
}

/// A tail metric: the value at p99, or at the highest percentile below it
/// that has ten samples beyond it, noted with the sample count.
fn tail_metric(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    let t = tail(samples, 99.0);
    metric(name, t.value, unit).note(format!("p{} of {} samples", t.at, t.samples))
}

fn median_metric(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    metric(name, median(samples), unit).note(format!("median of {} samples", samples.len()))
}

/// Everything a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Suite generation times of the set-ups, in milliseconds.
    pub gen_ms: Vec<f64>,
    /// Per-layer values of each traced pass.
    pub passes: Vec<PassLayers>,
    /// Samples pooled over the traced passes.
    pub pooled: Pooled,
    /// Exact counts of the last traced pass.
    pub counts: Counts,
    /// Engine tasks of the last traced pass.
    pub tasks: u64,
    /// Engine steals of each traced pass.
    pub steals: Vec<f64>,
    /// Live store keys at the last open.
    pub records: u64,
    /// Store bytes after each traced pass.
    pub bytes: Vec<f64>,
    /// Wall times of the untraced passes interleaved with the traced ones.
    pub untraced_ms: Vec<f64>,
    /// Spans of the last traced pass.
    pub spans: usize,
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let p = &t.passes;
    let c = &t.counts;
    let ms = |f: fn(&PassLayers) -> f64| median_of(p, f);
    let phase = |f: fn(&hcrf_sched::PhaseTimings) -> std::time::Duration| {
        median_of(p, |x| f(&x.phases).as_secs_f64() * 1e3)
    };
    let busy = ms(|x| x.busy_ms);
    let capacity = ms(|x| x.capacity_ms);
    let traced = ms(|x| x.wall_ms);
    let untraced = median(&t.untraced_ms);
    let refresh_requests = c.pressure_refreshes + c.refresh_skips;
    let per_pass = || format!("median of {} traced passes", p.len());
    vec![
        median_metric("workloads.gen_ms", &t.gen_ms, "ms"),
        count("engine.tasks", t.tasks),
        metric("engine.steals", median(&t.steals), "count").note(per_pass()),
        metric("engine.busy_share", ratio(busy, capacity), "ratio").of("engine.capacity_ms"),
        metric("engine.capacity_ms", capacity, "ms").note(per_pass()),
        metric("engine.idle_ms", ms(|x| x.capacity_ms - x.busy_ms), "ms").note(per_pass()),
        median_metric("driver.loop_ms_p50", &t.pooled.loop_ms, "ms"),
        tail_metric("driver.loop_ms_p99", &t.pooled.loop_ms, "ms"),
        metric(
            "driver.loop_ms_max",
            t.pooled.loop_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        count("driver.loop_samples", t.pooled.loop_ms.len() as u64),
        metric("driver.self_ms", ms(|x| x.driver_self_ms), "ms").note(per_pass()),
        metric("sched.graph_build_ms", phase(|x| x.graph_build), "ms"),
        metric("sched.order_ms", phase(|x| x.order), "ms"),
        metric("sched.warm_start_ms", phase(|x| x.warm_start), "ms"),
        metric("sched.resets_ms", phase(|x| x.resets), "ms"),
        metric("sched.attempts_ms", phase(|x| x.attempts), "ms").note(per_pass()),
        count("sched.ii_attempts", c.ii_attempts),
        count("sched.attempts", c.attempts),
        count("sched.ejections", c.ejections),
        count("sched.ii_skips", c.ii_skips),
        count("sched.warm_starts", c.warm_starts),
        count("sched.budget_exhausts", c.budget_exhausts),
        count("sched.pressure_refreshes", c.pressure_refreshes),
        count("sched.refresh_skips", c.refresh_skips),
        count("sched.refresh_requests", refresh_requests),
        count("sched.fused_row_updates", c.fused_row_updates),
        metric(
            "sched.ejections_per_attempt",
            ratio(c.ejections as f64, c.attempts as f64),
            "ratio",
        )
        .of("sched.attempts"),
        metric(
            "sched.refresh_skip_ratio",
            ratio(c.refresh_skips as f64, refresh_requests as f64),
            "ratio",
        )
        .of("sched.refresh_requests"),
        metric(
            "sched.ii_over_mii",
            ratio(c.sum_ii as f64, c.sum_mii as f64),
            "ratio",
        )
        .of("sched.sum_mii"),
        count("sched.sum_mii", c.sum_mii),
        metric("memsim.ms", ms(|x| x.memsim_ms), "ms").note(per_pass()),
        count("memsim.accesses", c.mem_accesses),
        count("memsim.misses", c.mem_misses),
        metric(
            "memsim.miss_ratio",
            ratio(c.mem_misses as f64, c.mem_accesses as f64),
            "ratio",
        )
        .of("memsim.accesses"),
        count("memsim.stall_cycles", c.mem_stall_cycles),
        metric("rfmodel.ms", ms(|x| x.rfmodel_ms), "ms").note(per_pass()),
        median_metric("store.open_ms", &t.pooled.open_ms, "ms"),
        count("store.records", t.records),
        metric("store.bytes", median(&t.bytes), "B").note(per_pass()),
        median_metric("store.lookup_us_p50", &t.pooled.lookup_us, "us"),
        tail_metric("store.lookup_us_p99", &t.pooled.lookup_us, "us"),
        count("store.lookup_samples", t.pooled.lookup_us.len() as u64),
        metric("key.ms", ms(|x| x.key_ms), "ms").note(per_pass()),
        median_metric("store.append_ms_p50", &t.pooled.append_ms, "ms"),
        tail_metric("store.append_ms_p99", &t.pooled.append_ms, "ms"),
        count("store.append_samples", t.pooled.append_ms.len() as u64),
        count("store.appends", c.appends),
        metric("report.build_ms", ms(|x| x.report_build_ms), "ms").note(per_pass()),
        metric("report.emit_ms", ms(|x| x.report_emit_ms), "ms").note(per_pass()),
        metric(
            "trace.overhead_pct",
            ratio(traced - untraced, untraced) * 100.0,
            "%",
        )
        .of("trace.untraced_pass_ms"),
        median_metric("trace.untraced_pass_ms", &t.untraced_ms, "ms"),
        metric("trace.traced_pass_ms", traced, "ms").note(per_pass()),
        count("trace.passes", p.len() as u64),
        count("trace.spans", t.spans as u64),
    ]
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let values = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::obj(values)),
    ])
    .to_compact()
}

/// Human-readable table: one metric a line, ratios with their base.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let mut note = m.note.clone();
        if let Some(base) = m.base {
            let base_value = metrics.iter().find(|b| b.name == base).map(|b| b.value);
            note = match base_value {
                Some(v) => format!("of {base} = {v}"),
                None => format!("of {base} (missing)"),
            };
        }
        out.push_str(&format!(
            "{:<30} {:>18} {:<6} {note}\n",
            m.name, m.value, m.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ratio_is_printed_with_its_base() {
        let metrics = per_layer(&Traced::default());
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER);
        let ratios: Vec<&Metric> = metrics.iter().filter(|m| m.base.is_some()).collect();
        assert!(ratios.len() >= 6);
        for r in ratios {
            let base = r.base.unwrap();
            assert!(names.contains(&base), "{} has no base {base}", r.name);
            assert!(table(&metrics).contains(&format!("of {base} = ")));
        }
    }

    #[test]
    fn ratios_over_an_empty_base_are_zero() {
        let metrics = per_layer(&Traced::default());
        for m in &metrics {
            assert!(m.value.is_finite(), "{}", m.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 1, &[metric("setup_s", 0.8127, "s")]);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
