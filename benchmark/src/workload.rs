//! The three workloads: what each sets up, what one pass runs, and how a
//! traced pass decomposes that pass into calls on each layer.

use crate::inputs::{churn_loops, shuffle, standard_loops, Seeds};
use crate::layers::{run_loop, LayerSample, TaskTrace};
use crate::spans::Tracer;
use hcrf::driver::{
    fold_suite_aggregate, run_suite, suite_fingerprint, ConfiguredMachine, LoopRun, RunOptions,
};
use hcrf_engine::Engine;
use hcrf_explore::{
    build_report, explore, CacheKey, CachedResult, DesignSpace, ExploreOptions, ExploreOutcome,
    PointResult, ResultCache, Scenario,
};
use hcrf_ir::Loop;
use hcrf_machine::stable::StableHasher;
use hcrf_machine::RfOrganization;
use hcrf_perf::SuiteAggregate;
use hcrf_sched::{ArenaPool, IterativeScheduler, SchedulerParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Churn loops per configuration: `bench_sched`'s churn suite size.
pub const CHURN_LOOPS: usize = 16;

/// The clustered hierarchical configurations whose ejection storms bound
/// scheduler time on the churn family.
pub const CHURN_CONFIGS: [&str; 3] = ["4C16S64", "8C16S16", "4C32S16"];

/// Loops of the swept standard suite: the `explore` CLI's default.
pub const SWEEP_LOOPS: usize = 96;

/// Records under other keys that each warm set-up appends besides the
/// sweep's own, as a shared cache directory accumulates them across
/// invocations. With [`Kind::setups`] rounds sharing the store, the warm
/// passes open ~1,100 records: enough that opening the store, not the rest
/// of a rerun, dominates a pass.
pub const WARM_HISTORY: usize = 300;

/// Scenarios every sweep pass evaluates, one CLI invocation each.
const SCENARIOS: [Scenario; 2] = [Scenario::Ideal, Scenario::Real];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The churn family scheduled through `hcrf::run_suite`.
    Churn,
    /// The default design space swept into a store that holds none of
    /// its keys.
    SweepCold,
    /// The same sweep answered from a store that holds it.
    SweepWarm,
}

impl Kind {
    /// Set-up rounds per run; `setup_s` is their median. A churn set-up
    /// takes ~0.15 s, so it gets more rounds for a steady median.
    pub fn setups(self) -> usize {
        match self {
            Kind::Churn => 12,
            Kind::SweepCold | Kind::SweepWarm => 3,
        }
    }
}

impl FromStr for Kind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "churn" => Ok(Kind::Churn),
            "sweep-cold" => Ok(Kind::SweepCold),
            "sweep-warm" => Ok(Kind::SweepWarm),
            other => Err(format!(
                "unknown workload '{other}' (expected churn|sweep-cold|sweep-warm)"
            )),
        }
    }
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass (set-up and clean-up excluded).
    pub wall: Duration,
    /// Design points answered.
    pub points: u64,
    /// Loop results delivered: one per loop and design point.
    pub loop_results: u64,
    /// Operations attempted: loop schedules, or warm design-point answers.
    pub attempted: u64,
    /// Operations that failed: loops that did not schedule, and design
    /// points that were quarantined, missing or different from the cold
    /// sweep's answer.
    pub failed: u64,
    /// Aggregates per design point, in submission order.
    pub outcome: Vec<SuiteAggregate>,
    /// Correctness violations found.
    pub problems: Vec<String>,
}

impl Pass {
    fn add_point(&mut self, aggregate: SuiteAggregate) {
        self.points += 1;
        self.loop_results += aggregate.loops as u64;
        self.outcome.push(aggregate);
    }

    /// Add a design point whose loops this pass scheduled.
    fn add_scheduled(&mut self, aggregate: SuiteAggregate) {
        self.attempted += aggregate.loops as u64;
        self.failed += aggregate.failed_loops as u64;
        self.add_point(aggregate);
    }

    /// ΣII over every design point.
    pub fn sum_ii(&self) -> u64 {
        self.outcome.iter().map(|a| a.sum_ii).sum()
    }

    /// Simulated cycles including stalls over every design point.
    pub fn sim_cycles(&self) -> u64 {
        self.outcome.iter().map(|a| a.total_cycles()).sum()
    }
}

/// A workload after set-up.
pub trait Workload {
    /// One untraced pass.
    fn pass(&mut self) -> Pass;

    /// The same pass decomposed into spans around each layer call. With
    /// `validate`, schedules are kept and checked (a correctness pass; its
    /// times are not reported).
    fn traced_pass(&mut self, tracer: &Tracer, validate: bool) -> (Pass, LayerSample);

    /// The outcome every pass must reproduce (the set-up's warm-up pass).
    fn reference(&self) -> &[SuiteAggregate];
}

/// Set-up round `round` of `kind`, with its store under `dir`; returns the
/// workload and its suite generation time. The rounds of a run share `dir`.
pub fn setup(
    kind: Kind,
    seeds: Seeds,
    workers: usize,
    dir: &Path,
    round: usize,
) -> (Box<dyn Workload>, Duration) {
    match kind {
        Kind::Churn => {
            let t = Instant::now();
            let loops = churn_loops(CHURN_LOOPS, seeds);
            let gen = t.elapsed();
            (Box::new(Churn::new(loops, workers, seeds.order)), gen)
        }
        Kind::SweepCold | Kind::SweepWarm => {
            let t = Instant::now();
            let suite = standard_loops(SWEEP_LOOPS, seeds);
            let gen = t.elapsed();
            let orders = SmallRng::seed_from_u64(mix(seeds.order, round));
            let sweep = Sweep::new(kind == Kind::SweepWarm, suite, workers, dir, orders);
            (Box::new(sweep), gen)
        }
    }
}

/// The churn family on [`CHURN_CONFIGS`], through `hcrf::run_suite`.
struct Churn {
    loops: Vec<Loop>,
    /// Draws each pass's submission order.
    orders: SmallRng,
    configs: Vec<ConfiguredMachine>,
    options: RunOptions,
    reference: Vec<SuiteAggregate>,
}

impl Churn {
    fn new(loops: Vec<Loop>, workers: usize, seed: u64) -> Self {
        let configs = CHURN_CONFIGS
            .iter()
            .map(|name| ConfiguredMachine::from_name(name).expect("churn configurations parse"))
            .collect();
        // The churn family climbs long II ladders by design: the cap
        // `bench_sched` uses for it.
        let options = RunOptions {
            scheduler: SchedulerParams {
                max_ii: 256,
                ..SchedulerParams::default().without_schedule()
            },
            threads: workers,
            ..Default::default()
        };
        let mut churn = Churn {
            loops,
            orders: SmallRng::seed_from_u64(seed),
            configs,
            options,
            reference: Vec::new(),
        };
        churn.reference = churn.pass().outcome;
        churn
    }
}

impl Workload for Churn {
    fn pass(&mut self) -> Pass {
        shuffle(&mut self.loops, &mut self.orders);
        let t = Instant::now();
        let runs: Vec<SuiteAggregate> = self
            .configs
            .iter()
            .map(|c| run_suite(c, &self.loops, &self.options).aggregate)
            .collect();
        let mut pass = Pass {
            wall: t.elapsed(),
            ..Pass::default()
        };
        runs.into_iter().for_each(|a| pass.add_scheduled(a));
        pass
    }

    fn traced_pass(&mut self, tracer: &Tracer, validate: bool) -> (Pass, LayerSample) {
        shuffle(&mut self.loops, &mut self.orders);
        let mut options = self.options;
        options.scheduler.keep_schedule = validate;
        let mut sample = LayerSample::default();
        let t = Instant::now();
        let aggregates: Vec<SuiteAggregate> = self
            .configs
            .iter()
            .enumerate()
            .map(|(point, config)| {
                let (aggregate, suite) =
                    traced_suite(tracer, config, &self.loops, &options, point, validate);
                sample.merge(suite);
                aggregate
            })
            .collect();
        let mut pass = Pass {
            wall: t.elapsed(),
            ..Pass::default()
        };
        aggregates.into_iter().for_each(|a| pass.add_scheduled(a));
        (pass, sample)
    }

    fn reference(&self) -> &[SuiteAggregate] {
        &self.reference
    }
}

/// `hcrf::run_suite` decomposed: one engine run over `loops` on `config`,
/// each loop task traced by [`run_loop`], folded into the suite aggregate.
/// `point` numbers the design point in request ids.
pub fn traced_suite(
    tracer: &Tracer,
    config: &ConfiguredMachine,
    loops: &[Loop],
    options: &RunOptions,
    point: usize,
    validate: bool,
) -> (SuiteAggregate, LayerSample) {
    let request = |index: usize| ((point as u64) << 32) | index as u64;
    let scheduler = IterativeScheduler::new(config.machine.clone(), options.scheduler);
    let engine = Engine::new(options.threads);
    let mut sample = LayerSample::default();
    let started = Instant::now();
    let run = tracer.record(
        &mut sample.spans,
        "engine.run",
        request(0),
        None,
        0,
        |_, id| {
            engine.map_indexed(
                loops.len(),
                |_| ArenaPool::new(),
                |pool, ctx| {
                    let at = TaskTrace {
                        request: request(ctx.group),
                        parent: id,
                        worker: ctx.worker,
                    };
                    let l = &loops[ctx.group];
                    run_loop(
                        tracer, &scheduler, config, l, ctx.group, options, pool, at, validate,
                    )
                },
            )
        },
    );
    let wall = started.elapsed();
    let (tasks, _, report) = run.expect_complete();
    sample.add_engine_run(&report, wall);
    let runs: Vec<LoopRun> = tasks.into_iter().map(|task| sample.absorb(task)).collect();
    (fold_suite_aggregate(config, &runs).0, sample)
}

/// The default design space over the standard suite, both scenarios.
struct Sweep {
    warm: bool,
    suite: Vec<Loop>,
    /// Draws each cold pass's submission order. A warm sweep keeps one
    /// order: its answers are stored under that order's fingerprint.
    orders: SmallRng,
    orgs: Vec<RfOrganization>,
    workers: usize,
    /// The store every pass of this set-up opens.
    store: PathBuf,
    reference: Vec<SuiteAggregate>,
    /// What the cold sweep stored, per scenario and organization: every
    /// warm answer must equal it.
    cold_answers: Vec<CachedResult>,
}

fn cached(p: &PointResult) -> CachedResult {
    CachedResult {
        config: p.name.clone(),
        aggregate: p.aggregate.clone(),
        clock_ns: p.clock_ns,
        total_area: p.total_area,
        scheduling_seconds: p.scheduling_seconds,
    }
}

/// Build the Pareto report and emit it in both formats, as the CLI does.
fn emit_report(outcome: &ExploreOutcome) {
    let report = build_report(outcome);
    black_box(report.to_json().to_compact());
    black_box(report.to_csv());
}

/// A stable hash of two values.
fn mix(a: u64, b: usize) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(a);
    h.write_usize(b);
    h.finish()
}

/// Bytes of the regular files under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

impl Sweep {
    fn new(warm: bool, suite: Vec<Loop>, workers: usize, dir: &Path, orders: SmallRng) -> Self {
        let mut sweep = Sweep {
            warm,
            suite,
            orders,
            orgs: DesignSpace::default().enumerate(),
            workers,
            store: dir.join("store"),
            reference: Vec::new(),
            cold_answers: Vec::new(),
        };
        if warm {
            sweep.populate();
        }
        sweep.reference = sweep.pass().outcome;
        sweep
    }

    fn options(&self, scenario: Scenario) -> ExploreOptions {
        ExploreOptions {
            scenario,
            threads: self.workers,
            ..Default::default()
        }
    }

    /// Prepare the next pass. A cold pass submits the suite in a fresh
    /// order, so the suite fingerprint and with it every key is new: the
    /// pass misses on every point and appends every result, as a cold sweep
    /// does. All passes and set-up rounds of a run share one store, which
    /// then also holds their earlier records (~2,000 after 20 s). A fresh
    /// directory per pass would leave thousands of synced shard files to
    /// remove, and on the ext4 (`discard`) disk the benchmark was tuned on,
    /// removing one took 50 ms to 1 s.
    fn next_pass(&mut self) {
        if !self.warm {
            shuffle(&mut self.suite, &mut self.orders);
        }
    }

    fn open(dir: &Path) -> ResultCache {
        ResultCache::open(dir).expect("the store opens under the benchmark's work directory")
    }

    /// Fill the warm store: the cold sweep itself, then a history of
    /// records under other suites' keys. The suite is first put in this
    /// round's own order, so its keys are new to the shared store.
    fn populate(&mut self) {
        shuffle(&mut self.suite, &mut self.orders);
        let dir = self.store.clone();
        let fingerprint = suite_fingerprint(&self.suite);
        let mut keys = Vec::new();
        for scenario in SCENARIOS {
            let options = self.options(scenario);
            let mut cache = Self::open(&dir);
            let outcome = explore(&self.orgs, &self.suite, &options, &mut cache);
            for (p, rf) in outcome.points.iter().zip(&self.orgs) {
                self.cold_answers.push(cached(p));
                let machine = ConfiguredMachine::from_rf(*rf).machine;
                keys.push(CacheKey::for_run(
                    &machine,
                    fingerprint,
                    &options.run_options().scheduler,
                    scenario,
                    options.max_simulated_iterations,
                ));
            }
        }
        let mut cache = Self::open(&dir);
        for i in 0..WARM_HISTORY {
            let slot = i % keys.len();
            // Another suite's fingerprint, drawn from this round's order
            // generator. The value stored is the right answer for the
            // machine and scenario, so even a clash with the sweep's own
            // fingerprint would leave every lookup correct.
            let key = CacheKey {
                suite: self.orders.gen(),
                ..keys[slot]
            };
            cache
                .store(&key, &self.cold_answers[slot])
                .expect("history records append to the warm store");
        }
    }

    /// Check the warm answers of scenario `si` against the cold sweep's.
    fn check_answers(&self, si: usize, points: &[PointResult], pass: &mut Pass) {
        pass.attempted += self.orgs.len() as u64;
        let answers = &self.cold_answers[si * self.orgs.len()..][..self.orgs.len()];
        let mut answered = points.iter().peekable();
        for (rf, want) in self.orgs.iter().zip(answers) {
            match answered.next_if(|p| p.rf == *rf) {
                Some(p) if p.from_cache && cached(p) == *want => {}
                Some(p) => {
                    pass.failed += 1;
                    pass.problems.push(format!(
                        "{} ({}): warm answer differs from the cold result",
                        p.name, SCENARIOS[si]
                    ));
                }
                None => {
                    pass.failed += 1;
                    pass.problems
                        .push(format!("{rf} ({}): no warm answer", SCENARIOS[si]));
                }
            }
        }
    }

    /// Account one scenario's outcome into `pass`.
    fn account(&self, si: usize, outcome: &ExploreOutcome, pass: &mut Pass) {
        for p in &outcome.points {
            if self.warm {
                pass.add_point(p.aggregate.clone());
            } else {
                pass.add_scheduled(p.aggregate.clone());
            }
        }
        for q in &outcome.quarantined {
            pass.failed += 1;
            pass.problems.push(format!("{}: quarantined", q.name));
        }
        if self.warm {
            self.check_answers(si, &outcome.points, pass);
        } else if outcome.cache.hits > 0 {
            pass.failed += outcome.cache.hits;
            pass.problems.push(format!(
                "cold pass ({}): {} point(s) served from the store",
                SCENARIOS[si], outcome.cache.hits
            ));
        }
    }
}

impl Workload for Sweep {
    fn pass(&mut self) -> Pass {
        self.next_pass();
        let t = Instant::now();
        let outcomes: Vec<ExploreOutcome> = SCENARIOS
            .iter()
            .map(|&scenario| {
                let mut cache = Self::open(&self.store);
                let outcome = explore(&self.orgs, &self.suite, &self.options(scenario), &mut cache);
                emit_report(&outcome);
                outcome
            })
            .collect();
        let mut pass = Pass {
            wall: t.elapsed(),
            ..Pass::default()
        };
        for (si, outcome) in outcomes.iter().enumerate() {
            self.account(si, outcome, &mut pass);
        }
        pass
    }

    fn traced_pass(&mut self, tracer: &Tracer, validate: bool) -> (Pass, LayerSample) {
        self.next_pass();
        let mut sample = LayerSample::default();
        let t = Instant::now();
        let outcomes: Vec<ExploreOutcome> = (0..SCENARIOS.len())
            .map(|si| self.traced_scenario(tracer, si, validate, &mut sample))
            .collect();
        let mut pass = Pass {
            wall: t.elapsed(),
            ..Pass::default()
        };
        sample.bytes = dir_bytes(&self.store);
        for (si, outcome) in outcomes.iter().enumerate() {
            self.account(si, outcome, &mut pass);
        }
        (pass, sample)
    }

    fn reference(&self) -> &[SuiteAggregate] {
        &self.reference
    }
}

impl Sweep {
    /// One scenario of a traced pass: the calls `hcrf_explore::explore`
    /// makes, each inside a span, then the report.
    fn traced_scenario(
        &self,
        tracer: &Tracer,
        si: usize,
        validate: bool,
        sample: &mut LayerSample,
    ) -> ExploreOutcome {
        let options = self.options(SCENARIOS[si]);
        let mut run_options = options.run_options();
        run_options.scheduler.keep_schedule |= validate;
        let n = self.orgs.len();
        let request = |org: usize| ((si * n + org) as u64) << 32;
        let spans = &mut sample.spans;
        let mut cache = tracer.record(spans, "store.open", request(0), None, 0, |_, _| {
            Self::open(&self.store)
        });
        let fingerprint = tracer.record(spans, "key.fingerprint", request(0), None, 0, |_, _| {
            suite_fingerprint(&self.suite)
        });
        let mut points: Vec<Option<PointResult>> = Vec::with_capacity(n);
        let mut pending: Vec<(usize, ConfiguredMachine, CacheKey)> = Vec::new();
        for (i, rf) in self.orgs.iter().enumerate() {
            let r = request(i);
            let configured = tracer.record(spans, "rfmodel.from_rf", r, None, 0, |_, _| {
                ConfiguredMachine::from_rf(*rf)
            });
            let key = tracer.record(spans, "key.for_run", r, None, 0, |_, _| {
                CacheKey::for_run(
                    &configured.machine,
                    fingerprint,
                    &run_options.scheduler,
                    options.scenario,
                    options.max_simulated_iterations,
                )
            });
            match tracer.record(spans, "store.lookup", r, None, 0, |_, _| cache.lookup(&key)) {
                Some(hit) => points.push(Some(PointResult {
                    rf: *rf,
                    name: hit.config.clone(),
                    aggregate: hit.aggregate,
                    clock_ns: hit.clock_ns,
                    total_area: hit.total_area,
                    scheduling_seconds: hit.scheduling_seconds,
                    from_cache: true,
                })),
                None => {
                    points.push(None);
                    pending.push((i, configured, key));
                }
            }
        }
        if !pending.is_empty() {
            let engine = Engine::new(self.workers);
            let sizes = vec![self.suite.len(); pending.len()];
            let mut appended = Vec::new();
            let started = Instant::now();
            let run = tracer.record(spans, "engine.run", request(0), None, 0, |spans, id| {
                engine.run_two_level(
                    &sizes,
                    |_| ArenaPool::new(),
                    |pool, ctx| {
                        let (org, configured, _) = &pending[ctx.group];
                        let scheduler = IterativeScheduler::new(
                            configured.machine.clone(),
                            run_options.scheduler,
                        );
                        let at = TaskTrace {
                            request: request(*org) | ctx.index as u64,
                            parent: id,
                            worker: ctx.worker,
                        };
                        let l = &self.suite[ctx.index];
                        run_loop(
                            tracer,
                            &scheduler,
                            configured,
                            l,
                            ctx.index,
                            &run_options,
                            pool,
                            at,
                            validate,
                        )
                    },
                    |g, tasks| {
                        let (_, configured, _) = &pending[g];
                        let mut group = LayerSample::default();
                        let runs: Vec<LoopRun> =
                            tasks.into_iter().map(|task| group.absorb(task)).collect();
                        let (aggregate, phases) = fold_suite_aggregate(configured, &runs);
                        let point = PointResult {
                            rf: configured.machine.rf,
                            name: configured.name(),
                            aggregate,
                            clock_ns: configured.hardware.clock_ns,
                            total_area: configured.hardware.total_area,
                            scheduling_seconds: phases.total().as_secs_f64(),
                            from_cache: false,
                        };
                        (point, group)
                    },
                    |g, (point, _)| {
                        let (org, _, key) = &pending[g];
                        let stored =
                            tracer.record(spans, "store.append", request(*org), None, 0, |_, _| {
                                cache.store(key, &cached(point))
                            });
                        appended
                            .push(stored.map_err(|e| format!("{}: store failed: {e}", point.name)));
                    },
                )
            });
            let wall = started.elapsed();
            let (groups, _, report) = run.expect_complete();
            sample.add_engine_run(&report, wall);
            for ((org, _, _), (point, group)) in pending.iter().zip(groups) {
                points[*org] = Some(point);
                sample.merge(group);
            }
            for result in appended {
                sample.counts.appends += 1;
                if let Err(e) = result {
                    sample.invalid.push(e);
                }
            }
        }
        sample.records = cache.store_ref().map_or(0, |s| s.len() as u64);
        sample.counts.lookups += n as u64;
        let outcome = ExploreOutcome {
            points: points.into_iter().flatten().collect(),
            quarantined: Vec::new(),
            cache: cache.stats(),
            suite_fingerprint: fingerprint,
            suite_loops: self.suite.len(),
            wall_seconds: 0.0,
        };
        let report = tracer.record(
            &mut sample.spans,
            "report.build",
            request(0),
            None,
            0,
            |_, _| build_report(&outcome),
        );
        tracer.record(
            &mut sample.spans,
            "report.emit",
            request(0),
            None,
            0,
            |_, _| {
                black_box(report.to_json().to_compact());
                black_box(report.to_csv());
            },
        );
        outcome
    }
}
