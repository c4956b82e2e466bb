//! The traced decomposition of one loop task, and what a traced pass
//! collects per layer.
//!
//! [`run_loop`] makes the same calls, in the same order, as the driver's
//! `hcrf::run_loop_traced` (schedule, then in the real-memory scenario the
//! kernel's accesses and the cache simulation, then the loop's
//! performance), each wrapped in a span. The benchmark checks that the
//! decomposition's aggregates equal those of the untraced driver and
//! executor, so the spans time the code the untraced passes run.

use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use hcrf::driver::{ConfiguredMachine, LoopRun, RunOptions};
use hcrf_engine::EngineReport;
use hcrf_ir::Loop;
use hcrf_memsim::MemorySimResult;
use hcrf_perf::LoopPerformance;
use hcrf_sched::{validate_schedule, ArenaPool, IterativeScheduler, PhaseTimings};
use std::time::Duration;

/// Exact work counts of one pass. The program is deterministic, so every
/// pass of one run must produce the same counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Loops scheduled.
    pub loops: u64,
    /// ΣII over the loops scheduled.
    pub sum_ii: u64,
    /// ΣMII over the same loops.
    pub sum_mii: u64,
    /// II values attempted.
    pub ii_attempts: u64,
    /// Node scheduling attempts.
    pub attempts: u64,
    /// Nodes ejected by backtracking.
    pub ejections: u64,
    /// Candidate IIs skipped by the ladder.
    pub ii_skips: u64,
    /// Warm-started II restarts.
    pub warm_starts: u64,
    /// Attempts that ended on a budget-family limit.
    pub budget_exhausts: u64,
    /// Pressure refresh requests that rescanned.
    pub pressure_refreshes: u64,
    /// Pressure refresh requests skipped as up to date.
    pub refresh_skips: u64,
    /// MRT rows maintained by place/unplace transactions.
    pub fused_row_updates: u64,
    /// Memory accesses simulated.
    pub mem_accesses: u64,
    /// Cache misses simulated.
    pub mem_misses: u64,
    /// Stall cycles of the simulated iterations.
    pub mem_stall_cycles: u64,
    /// Store lookups.
    pub lookups: u64,
    /// Store appends.
    pub appends: u64,
}

impl Counts {
    fn add_loop(&mut self, run: &LoopRun) {
        let (r, s) = (&run.schedule, &run.schedule.stats);
        self.loops += 1;
        self.sum_ii += u64::from(r.ii);
        self.sum_mii += u64::from(r.mii);
        self.ii_attempts += u64::from(s.ii_restarts);
        self.attempts += s.attempts;
        self.ejections += s.ejections;
        self.ii_skips += u64::from(s.ii_skips);
        self.warm_starts += u64::from(s.warm_starts);
        self.budget_exhausts += u64::from(s.budget_exhausts);
        self.pressure_refreshes += s.pressure_refreshes;
        self.refresh_skips += s.refresh_skips;
        self.fused_row_updates += s.fused_row_updates;
    }

    fn add_sim(&mut self, sim: &MemorySimResult) {
        self.mem_accesses += sim.accesses;
        self.mem_misses += sim.misses;
        self.mem_stall_cycles += sim.stall_cycles;
    }

    fn merge(&mut self, o: &Counts) {
        self.loops += o.loops;
        self.sum_ii += o.sum_ii;
        self.sum_mii += o.sum_mii;
        self.ii_attempts += o.ii_attempts;
        self.attempts += o.attempts;
        self.ejections += o.ejections;
        self.ii_skips += o.ii_skips;
        self.warm_starts += o.warm_starts;
        self.budget_exhausts += o.budget_exhausts;
        self.pressure_refreshes += o.pressure_refreshes;
        self.refresh_skips += o.refresh_skips;
        self.fused_row_updates += o.fused_row_updates;
        self.mem_accesses += o.mem_accesses;
        self.mem_misses += o.mem_misses;
        self.mem_stall_cycles += o.mem_stall_cycles;
        self.lookups += o.lookups;
        self.appends += o.appends;
    }
}

/// What one traced pass (or one design point of it) collected.
#[derive(Debug, Default)]
pub struct LayerSample {
    /// Exact counts.
    pub counts: Counts,
    /// Scheduler phase times, summed over loops.
    pub phases: PhaseTimings,
    /// Engine tasks run.
    pub tasks: u64,
    /// Engine batch steals.
    pub steals: u64,
    /// Σ engine-run wall time × workers of that run, in milliseconds.
    pub capacity_ms: f64,
    /// Live keys the last store open found.
    pub records: u64,
    /// Bytes of the store directory after the pass.
    pub bytes: u64,
    /// Every span of the pass.
    pub spans: Vec<Span>,
    /// Violations found while tracing: schedules that failed
    /// `validate_schedule` (correctness passes only) and failed appends.
    pub invalid: Vec<String>,
}

/// One traced loop task: its run and what tracing it collected.
pub struct LoopTask {
    run: LoopRun,
    sample: LayerSample,
}

impl LayerSample {
    /// Fold a loop task in; returns its run for the suite aggregate.
    pub fn absorb(&mut self, task: LoopTask) -> LoopRun {
        self.counts.add_loop(&task.run);
        self.phases.absorb(&task.run.phases);
        self.merge(task.sample);
        task.run
    }

    /// Fold another sample in.
    pub fn merge(&mut self, other: LayerSample) {
        self.counts.merge(&other.counts);
        self.phases.absorb(&other.phases);
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.capacity_ms += other.capacity_ms;
        self.spans.extend(other.spans);
        self.invalid.extend(other.invalid);
    }

    /// Account one engine run that took `wall`.
    pub fn add_engine_run(&mut self, report: &EngineReport, wall: Duration) {
        self.tasks += report.tasks;
        self.steals += report.steals;
        self.capacity_ms += wall.as_secs_f64() * 1e3 * report.workers as f64;
    }
}

/// Where a loop task sits in the trace.
#[derive(Debug, Clone, Copy)]
pub struct TaskTrace {
    /// Request id shared by the task's spans.
    pub request: u64,
    /// Span of the engine run that executes the task.
    pub parent: u64,
    /// Engine worker running it.
    pub worker: usize,
}

/// Schedule (and in the real-memory scenario simulate) one loop inside
/// `driver.loop` / `sched.schedule` / `memsim.simulate` spans. With
/// `validate`, the schedule (kept by the caller's options) is checked with
/// `validate_schedule` after the spans close.
#[allow(clippy::too_many_arguments)]
pub fn run_loop(
    tracer: &Tracer,
    scheduler: &IterativeScheduler,
    config: &ConfiguredMachine,
    l: &Loop,
    index: usize,
    options: &RunOptions,
    pool: &mut ArenaPool,
    at: TaskTrace,
    validate: bool,
) -> LoopTask {
    let mut sample = LayerSample::default();
    let mut sim = MemorySimResult::default();
    let (request, worker) = (at.request, at.worker);
    let run = tracer.record(
        &mut sample.spans,
        "driver.loop",
        request,
        Some(at.parent),
        worker,
        |spans, id| {
            let (schedule, phases) = tracer.record(
                spans,
                "sched.schedule",
                request,
                Some(id),
                worker,
                |_, _| scheduler.schedule_with_timings_pooled(&l.ddg, pool),
            );
            let stall = if options.real_memory && !schedule.failed {
                tracer.record(
                    spans,
                    "memsim.simulate",
                    request,
                    Some(id),
                    worker,
                    |_, _| {
                        let accesses = hcrf::memory::kernel_accesses(
                            &schedule,
                            &config.machine,
                            options.scheduler.binding_prefetch,
                        );
                        sim = hcrf_memsim::simulate_kernel(
                            &accesses,
                            schedule.ii,
                            l.iterations,
                            config.cache_config(),
                            options.max_simulated_iterations,
                        );
                        sim.scaled_stalls(l.iterations)
                    },
                )
            } else {
                0
            };
            let performance = LoopPerformance::from_schedule(&schedule, l, stall);
            LoopRun {
                index,
                schedule,
                performance,
                phases,
            }
        },
    );
    sample.counts.add_sim(&sim);
    if validate && !run.schedule.failed {
        if let Err(e) = validate_schedule(&l.ddg, &config.machine, &run.schedule) {
            sample
                .invalid
                .push(format!("{} on {}: {e}", l.ddg.name, config.name()));
        }
    }
    LoopTask { run, sample }
}

/// Per-layer values of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct PassLayers {
    /// Wall time of the pass.
    pub wall_ms: f64,
    /// Σ `driver.loop` span time: engine tasks busy.
    pub busy_ms: f64,
    /// Σ engine-run wall × workers.
    pub capacity_ms: f64,
    /// Σ `driver.loop` self time (minus its sched and memsim children).
    pub driver_self_ms: f64,
    /// Scheduler phase times, summed over loops.
    pub phases: PhaseTimings,
    /// Σ `memsim.simulate` span time.
    pub memsim_ms: f64,
    /// Σ `rfmodel.from_rf` span time.
    pub rfmodel_ms: f64,
    /// Σ `key.fingerprint` and `key.for_run` span time.
    pub key_ms: f64,
    /// Σ `report.build` span time.
    pub report_build_ms: f64,
    /// Σ `report.emit` span time.
    pub report_emit_ms: f64,
}

impl PassLayers {
    /// Reduce one pass's spans to per-layer times.
    pub fn of(sample: &LayerSample, wall: Duration) -> Self {
        let s = &sample.spans;
        PassLayers {
            wall_ms: wall.as_secs_f64() * 1e3,
            busy_ms: spans::total_ms(s, "driver.loop"),
            capacity_ms: sample.capacity_ms,
            driver_self_ms: spans::total_self_ns(s, "driver.loop") as f64 / 1e6,
            phases: sample.phases,
            memsim_ms: spans::total_ms(s, "memsim.simulate"),
            rfmodel_ms: spans::total_ms(s, "rfmodel.from_rf"),
            key_ms: spans::total_ms(s, "key.fingerprint") + spans::total_ms(s, "key.for_run"),
            report_build_ms: spans::total_ms(s, "report.build"),
            report_emit_ms: spans::total_ms(s, "report.emit"),
        }
    }
}

/// Samples pooled over every traced pass of a run, for the tails.
#[derive(Debug, Default)]
pub struct Pooled {
    /// `driver.loop` durations.
    pub loop_ms: Vec<f64>,
    /// `store.open` durations.
    pub open_ms: Vec<f64>,
    /// `store.lookup` durations, in microseconds.
    pub lookup_us: Vec<f64>,
    /// `store.append` durations.
    pub append_ms: Vec<f64>,
}

impl Pooled {
    /// Add one pass's span durations.
    pub fn add(&mut self, sample: &LayerSample) {
        let s = &sample.spans;
        self.loop_ms.extend(spans::durations_ms(s, "driver.loop"));
        self.open_ms.extend(spans::durations_ms(s, "store.open"));
        self.lookup_us.extend(
            spans::durations_ms(s, "store.lookup")
                .into_iter()
                .map(|ms| ms * 1e3),
        );
        self.append_ms
            .extend(spans::durations_ms(s, "store.append"));
    }
}

/// Median over passes of one per-pass value.
pub fn median_of(passes: &[PassLayers], f: impl Fn(&PassLayers) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `value / base`, `0` when the base is zero.
pub fn ratio(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        value / base
    }
}
