//! The benchmark command.
//!
//! ```text
//! hcrf-benchmark --workload churn|sweep-cold|sweep-warm [--seed N]
//!                [--seconds S] [--trace 0|1] [--population-seed N]
//!                [--trace-out PATH]
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), then runs
//! passes for `--seconds`. `--trace 0` times untraced passes and prints the
//! end-to-end metrics. `--trace 1` first runs a correctness pass that keeps
//! and validates every schedule, then alternates untraced and traced passes
//! and prints the per-layer metrics, writing the last traced pass's spans as
//! Chrome trace JSON. Every run prints its metrics as a table and ends with
//! one JSON line; a correctness violation makes it exit 1, bad arguments 2.

use hcrf_benchmark::inputs::{Seeds, HELD_OUT_POPULATION_SEED};
use hcrf_benchmark::layers::{ms, PassLayers};
use hcrf_benchmark::metrics::{metric, per_layer, result_line, table, Metric, Traced};
use hcrf_benchmark::spans::{chrome_trace, Tracer};
use hcrf_benchmark::stats::median;
use hcrf_benchmark::workload::{setup, Kind, Pass, Workload};
use hcrf_perf::SuiteAggregate;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest passes of each kind a run measures, however short `--seconds`.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: hcrf-benchmark --workload churn|sweep-cold|sweep-warm [--seed N] \
                     [--seconds S] [--trace 0|1] [--population-seed N] [--trace-out PATH]";

struct Args {
    kind: Kind,
    workload: String,
    seeds: Seeds,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{flag}: '{v}' is not a non-negative integer"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seeds = Seeds {
        order: 0,
        population: None,
    };
    let mut seconds = 10;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag}: missing value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seeds.order = parse_u64(flag, value()?)?,
            "--population-seed" => seeds.population = Some(parse_u64(flag, value()?)?),
            "--seconds" => {
                seconds = parse_u64(flag, value()?)?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds: must be 1..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: '{other}' is not 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        kind: workload.parse()?,
        workload,
        seeds,
        seconds,
        trace,
        trace_out,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("peak_rss_mb reads `struct rusage` in its 64-bit Linux layout");

/// Peak resident set size of this process, in megabytes.
fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer,
    // which points at a live, exclusively borrowed value of that layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage.maxrss_kib as f64 * 1024.0 / 1e6
}

/// Correctness and failure accounting across the passes of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn pass(&mut self, label: &str, pass: &Pass, reference: &[SuiteAggregate]) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.problems.extend(pass.problems.iter().cloned());
        if pass.outcome != reference {
            self.failed += 1;
            self.problems
                .push(format!("{label}: outcome differs from the set-up's pass"));
        }
    }

    fn problem(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Run passes until the deadline, at least [`MIN_PASSES`] of them.
fn until(deadline: Instant, mut step: impl FnMut(usize)) {
    let mut n = 0;
    while n < MIN_PASSES || Instant::now() < deadline {
        step(n);
        n += 1;
    }
}

fn untraced_run(w: &mut dyn Workload, deadline: Instant, tally: &mut Tally) -> Vec<Metric> {
    let mut loops_per_s = Vec::new();
    let mut points_per_s = Vec::new();
    until(deadline, |n| {
        let pass = w.pass();
        tally.pass(&format!("pass {n}"), &pass, w.reference());
        let secs = pass.wall.as_secs_f64();
        loops_per_s.push(pass.loop_results as f64 / secs);
        points_per_s.push(pass.points as f64 / secs);
    });
    let reference = Pass {
        outcome: w.reference().to_vec(),
        ..Pass::default()
    };
    let of = |n: usize| format!("median of {n} passes");
    vec![
        metric("loops_per_s", median(&loops_per_s), "1/s").note(of(loops_per_s.len())),
        metric("points_per_s", median(&points_per_s), "1/s").note(of(points_per_s.len())),
        metric("sum_ii", reference.sum_ii() as f64, "cycles"),
        metric("sim_cycles", reference.sim_cycles() as f64, "cycles"),
    ]
}

fn traced_run(
    w: &mut dyn Workload,
    deadline: Instant,
    tally: &mut Tally,
    traced: &mut Traced,
    trace_out: &Path,
) {
    let tracer = Tracer::default();
    // Correctness pass: schedules kept and validated, not timed.
    let (check, sample) = w.traced_pass(&tracer, true);
    tally.pass("correctness pass", &check, w.reference());
    for problem in &sample.invalid {
        tally.problem(format!("correctness pass: {problem}"));
    }
    let counts = sample.counts;
    let mut last = sample;
    until(deadline, |n| {
        let pass = w.pass();
        tally.pass(&format!("untraced pass {n}"), &pass, w.reference());
        traced.untraced_ms.push(ms(pass.wall));

        let (pass, sample) = w.traced_pass(&tracer, false);
        let label = format!("traced pass {n}");
        tally.pass(&label, &pass, w.reference());
        for problem in &sample.invalid {
            tally.problem(format!("{label}: {problem}"));
        }
        if sample.counts != counts {
            tally.problem(format!(
                "{label}: work counts differ from the correctness pass's"
            ));
        }
        traced.passes.push(PassLayers::of(&sample, pass.wall));
        traced.pooled.add(&sample);
        traced.steals.push(sample.steals as f64);
        traced.bytes.push(sample.bytes as f64);
        last = sample;
    });
    traced.counts = last.counts;
    traced.tasks = last.tasks;
    traced.records = last.records;
    traced.spans = last.spans.len();
    let written = trace_out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_out, chrome_trace(&last.spans).to_compact()));
    match written {
        Ok(()) => eprintln!(
            "trace: {} spans of the last traced pass -> {}",
            last.spans.len(),
            trace_out.display()
        ),
        Err(e) => tally.problem(format!("cannot write {}: {e}", trace_out.display())),
    }
}

fn run(args: &Args, workers: usize, work: &Path) -> i32 {
    eprintln!(
        "hcrf-benchmark: workload {} | order seed {} | population seed {} | held-out {:#x} | \
         {workers} worker(s) | {} s | trace {}",
        args.workload,
        args.seeds.order,
        args.seeds
            .population
            .map_or("default".to_string(), |p| format!("{p:#x}")),
        HELD_OUT_POPULATION_SEED,
        args.seconds,
        u8::from(args.trace),
    );
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut current = None;
    for round in 0..args.kind.setups() {
        let t = Instant::now();
        let (w, gen) = setup(args.kind, args.seeds, workers, work, round);
        setup_s.push(t.elapsed().as_secs_f64());
        gen_ms.push(ms(gen));
        current = Some(w);
    }
    let mut w = current.expect("at least one set-up");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let mut traced = Traced {
            gen_ms,
            ..Traced::default()
        };
        let trace_out = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(".bench_out").join(format!(
                "{}-seed{}.trace.json",
                args.workload, args.seeds.order
            ))
        });
        traced_run(w.as_mut(), deadline, &mut tally, &mut traced, &trace_out);
        per_layer(&traced)
    } else {
        let mut metrics = vec![metric("setup_s", median(&setup_s), "s")
            .note(format!("median of {} set-ups", setup_s.len()))];
        metrics.extend(untraced_run(w.as_mut(), deadline, &mut tally));
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics
    };
    for problem in &tally.problems {
        eprintln!("INCORRECT: {problem}");
    }
    let correct = tally.problems.is_empty();
    print!("{}", table(&metrics));
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("hcrf-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let code = run(&args, workers, &work);
    // After the result line: removing synced store files is slow on some
    // disks, and none of it is measured.
    let _ = std::fs::remove_dir_all(&work);
    std::process::exit(code);
}
