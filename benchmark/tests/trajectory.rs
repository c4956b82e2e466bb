//! Ties the benchmark to the committed scheduler trajectory.
//!
//! At `BENCH_sched.json`'s own suite sizes and default seeds, the
//! benchmark's inputs scheduled through its traced decomposition must give
//! that file's `sum_ii`, `failed`, `attempts` and `ejections` for the churn
//! and standard suites on 4C16S64 and S128. The file is read when the test
//! runs, so a regenerated trajectory is checked as committed.

use hcrf::driver::{ConfiguredMachine, RunOptions};
use hcrf_benchmark::inputs::{churn_loops, standard_loops, Seeds};
use hcrf_benchmark::spans::Tracer;
use hcrf_benchmark::workload::traced_suite;
use hcrf_explore::json::Json;
use hcrf_machine::RfOrganization;
use hcrf_sched::SchedulerParams;

fn trajectory() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_sched.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sched.json at the repository root");
    Json::parse(&text).expect("BENCH_sched.json parses")
}

fn size(doc: &Json, suite: &str) -> usize {
    doc.get("meta")
        .and_then(|m| m.get("suite_sizes"))
        .and_then(|s| s.get(suite))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("suite size of {suite}")) as usize
}

#[test]
fn counters_match_the_committed_trajectory() {
    let doc = trajectory();
    let defaults = Seeds {
        order: 0,
        population: None,
    };
    let params = SchedulerParams::default().without_schedule();
    // `bench_sched` schedules on the paper's baseline latencies and gives
    // the churn family a 256 II cap.
    let suites = [
        (
            "standard",
            standard_loops(size(&doc, "standard"), defaults),
            params,
        ),
        (
            "churn",
            churn_loops(size(&doc, "churn"), defaults),
            SchedulerParams {
                max_ii: 256,
                ..params
            },
        ),
    ];
    let tracer = Tracer::default();
    for (suite, loops, scheduler) in &suites {
        for config in ["4C16S64", "S128"] {
            let machine = ConfiguredMachine::with_baseline_latencies(
                RfOrganization::parse(config).expect("config parses"),
            );
            let options = RunOptions {
                scheduler: *scheduler,
                threads: 2,
                ..Default::default()
            };
            let (aggregate, sample) = traced_suite(&tracer, &machine, loops, &options, 0, false);
            let want = doc
                .get("suites")
                .and_then(|s| s.get(suite))
                .and_then(|s| s.get(config))
                .unwrap_or_else(|| panic!("{suite}/{config} in BENCH_sched.json"));
            let field = |k: &str| want.get(k).and_then(Json::as_u64).expect(k);
            let got = [
                ("sum_ii", aggregate.sum_ii),
                ("failed", aggregate.failed_loops as u64),
                ("attempts", sample.counts.attempts),
                ("ejections", sample.counts.ejections),
            ];
            for (key, value) in got {
                assert_eq!(value, field(key), "{suite}/{config}: {key}");
            }
        }
    }
}
