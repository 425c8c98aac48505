//! `campaign_suite`: mutation campaigns for every `examples/tg` objective.
//!
//! Set-up parses each objective and its `*.plant.tg`, generates the plant's
//! mutants and synthesizes a `TestHarness` (the same steps as
//! `tiga test <objective> --spec <plant>`).  Once per run, outside the
//! timing, the objectives also go through the text → strategy → controller
//! pipeline, whose output must equal the goldens in `examples/strategies/`
//! and `examples/controllers/`, and each harness controller must answer a
//! seeded query set like its strategy.
//!
//! One op runs `run_mutation_campaign_with` on all objectives with
//! `default_policies()`, one thread and a master seed derived from the
//! workload seed.  A conformant run that does not pass is a failed run.
//! The known false alarms (conformant lep3.tp4/lep4.tp4 plants failing with
//! a safety violation) are counted in `failed` but do not make the run
//! incorrect; any other failure does, as does an op whose runs differ from
//! the first op's.
//!
//! A traced op replays the campaign run by run through the same public
//! functions, wrapping the IUT and the controller to time their calls, and
//! must reproduce the untraced summary exactly.

use crate::trace::{self, ms, push_span, record, span};
use crate::util::{
    check_decisions, decide_queries, median, median_op_s, minimize_and_compile, mix64, percentile,
    record_solve,
};
use crate::{part, Outcome};
use std::cell::Cell;
use std::path::Path;
use std::time::{Duration, Instant};
use tiga_model::{DiscreteState, System};
use tiga_solver::{
    print_controller, print_strategy, solve, CompiledController, Controller, SolveOptions,
    StrategyDecision,
};
use tiga_testing::{
    default_policies, derive_run_seed, generate_mutants, run_mutation_campaign_with,
    CampaignOptions, CampaignSummary, DelayOutcome, FailReason, Iut, Mutant, MutationConfig,
    OutputPolicy, SimulatedIut, SpecMonitor, TestConfig, TestHarness, TraceStep, Verdict,
};

/// Objectives whose conformant runs are known to fail with a safety
/// violation (a standing soundness defect of the avoid strategies).
const KNOWN_FALSE_ALARMS: &[&str] = &["lep3.tp4", "lep4.tp4"];

struct Objective {
    name: String,
    spec: System,
    mutants: Vec<Mutant>,
    harness: TestHarness,
}

/// The `examples/tg` files with a `control:` line, by name.
pub fn objective_files() -> Result<Vec<(String, String)>, String> {
    let dir = Path::new("examples/tg");
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".tg") else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        if text.lines().any(|l| l.starts_with("control:")) {
            files.push((stem.to_string(), text));
        }
    }
    files.sort();
    if files.is_empty() {
        return Err("no objectives under examples/tg".to_string());
    }
    Ok(files)
}

fn parse(text: &str, what: &str) -> Result<tiga_lang::TgModel, String> {
    let (model, t) = span("lang.parse", || tiga_lang::parse_model(text));
    record("lang.parse_ms", ms(t), "ms");
    model.map_err(|e| format!("{what} does not parse: {e:?}"))
}

/// Sets up every objective, each a part of the set-up.
fn set_up(files: &[(String, String)], parts: &mut Vec<f64>) -> Result<Vec<Objective>, String> {
    let mut objectives = Vec::with_capacity(files.len());
    for (name, text) in files {
        objectives.push(part(parts, || set_up_objective(name, text))?);
    }
    Ok(objectives)
}

fn set_up_objective(name: &str, text: &str) -> Result<Objective, String> {
    let base = name.split('.').next().unwrap_or(name);
    let plant_path = format!("examples/tg/{base}.plant.tg");
    let plant_text =
        std::fs::read_to_string(&plant_path).map_err(|e| format!("{plant_path}: {e}"))?;
    let model = parse(text, name)?;
    let spec = parse(&plant_text, &plant_path)?.system;
    let purpose = model.purpose.as_ref().ok_or("objective without control:")?;
    let purpose_text = tiga_lang::control_line(purpose);
    let (mutants, t) = span("mutation.generate", || {
        generate_mutants(&spec, &MutationConfig::default())
    });
    record("mutation.generate_ms", ms(t), "ms");
    let mutants = mutants.map_err(|e| format!("{name}: mutant generation failed: {e}"))?;
    let (harness, t) = span("harness.synthesize", || {
        TestHarness::synthesize(
            model.system.clone(),
            spec.clone(),
            &purpose_text,
            TestConfig::default(),
        )
    });
    record("harness.synthesize_ms", ms(t), "ms");
    let harness = harness.map_err(|e| format!("{name}: cannot synthesize: {e}"))?;
    Ok(Objective {
        name: name.to_string(),
        spec,
        mutants,
        harness,
    })
}

/// The golden and decision checks, once per run.
fn check_objectives(
    files: &[(String, String)],
    objectives: &[Objective],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    for ((name, text), objective) in files.iter().zip(objectives) {
        let model = parse(text, name)?;
        let purpose = model.purpose.as_ref().ok_or("objective without control:")?;
        let before = crate::alloc::snapshot();
        let (solution, solve_t) = span("solver.solve", || {
            solve(&model.system, purpose, &SolveOptions::default())
        });
        let after = crate::alloc::snapshot();
        let solution = solution.map_err(|e| format!("{name}: solve failed: {e}"))?;
        record_solve(solve_t, &solution, before, after);
        let model_name = model.system.name();
        let (strategy_text, t) = span("strategy.print", || {
            print_strategy(
                model_name,
                solution.winning_from_initial,
                solution.strategy.as_ref(),
            )
        });
        record("strategy.print_ms", ms(t), "ms");
        golden(
            out,
            &format!("examples/strategies/{name}.strategy"),
            &strategy_text,
        );
        let strategy = solution
            .strategy
            .as_ref()
            .ok_or("objective without strategy")?;
        let (controller, ..) = minimize_and_compile(strategy);
        let (controller_text, t) = span("controller.print", || {
            print_controller(model_name, solution.winning_from_initial, Some(&controller))
        });
        record("controller.print_ms", ms(t), "ms");
        record("controller.bytes", controller_text.len() as f64, "bytes");
        let golden_path = format!("examples/controllers/{name}.controller");
        golden(out, &golden_path, &controller_text);
        let harness_text = print_controller(
            model_name,
            objective.harness.solution().winning_from_initial,
            Some(objective.harness.controller()),
        );
        golden(out, &golden_path, &harness_text);

        let harness = &objective.harness;
        let scale = harness.config().scale;
        let queries = decide_queries(harness.strategy(), seed, 64, scale);
        let (disagreements, ns) =
            check_decisions(harness.controller(), harness.strategy(), &queries, scale);
        record("controller.decide_ns", ns, "ns");
        if disagreements > 0 {
            out.problem(format!(
                "{name}: compiled controller disagrees with the strategy on {disagreements} of {} queries",
                queries.len()
            ));
        }
    }
    Ok(())
}

fn golden(out: &mut Outcome, path: &str, text: &str) {
    match std::fs::read_to_string(path) {
        Ok(expected) if expected == text => {}
        Ok(_) => out.problem(format!(
            "{path}: synthesized output differs from the golden"
        )),
        Err(e) => out.problem(format!("{path}: {e}")),
    }
}

/// The campaign engine's per-job reseeding of randomized policies (private
/// to `tiga_testing`); a traced op must reproduce the untraced runs exactly,
/// which checks this copy.
fn reseeded(policy: OutputPolicy, run_seed: u64) -> OutputPolicy {
    match policy {
        OutputPolicy::Jittery { seed } => OutputPolicy::Jittery {
            seed: mix64(seed ^ run_seed),
        },
        other => other,
    }
}

/// An IUT wrapper that times the executor's calls into the simulation.
struct TimedIut {
    inner: SimulatedIut,
    total: Duration,
    calls: u64,
}

impl TimedIut {
    fn timed<T>(&mut self, f: impl FnOnce(&mut SimulatedIut) -> T) -> T {
        let started = Instant::now();
        let value = f(&mut self.inner);
        self.total += started.elapsed();
        self.calls += 1;
        value
    }
}

impl Iut for TimedIut {
    fn reset(&mut self) {
        self.timed(Iut::reset);
    }

    fn offer_input(&mut self, channel: &str) {
        self.timed(|iut| iut.offer_input(channel));
    }

    fn delay(&mut self, max_ticks: i64) -> DelayOutcome {
        self.timed(|iut| iut.delay(max_ticks))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A controller wrapper that times the executor's decisions.
struct TimedController<'a> {
    inner: &'a CompiledController,
    total: Cell<Duration>,
    calls: Cell<u64>,
}

impl Controller for TimedController<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn decide(&self, d: &DiscreteState, ticks: &[i64], scale: i64) -> Option<StrategyDecision<'_>> {
        self.inner.decide(d, ticks, scale)
    }

    fn rank_of(&self, d: &DiscreteState, ticks: &[i64], scale: i64) -> Option<u32> {
        self.inner.rank_of(d, ticks, scale)
    }

    fn next_take_delay(&self, d: &DiscreteState, ticks: &[i64], scale: i64) -> Option<i64> {
        self.inner.next_take_delay(d, ticks, scale)
    }

    fn decide_with_wakeup(
        &self,
        d: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)> {
        let started = Instant::now();
        let answer = self.inner.decide_with_wakeup(d, ticks, scale);
        self.total.set(self.total.get() + started.elapsed());
        self.calls.set(self.calls.get() + 1);
        answer
    }
}

/// One objective's campaign, run by run, with spans; the job order and
/// seeds are those of `run_mutation_campaign_with`.
fn traced_campaign(
    objective: &Objective,
    policies: &[OutputPolicy],
    master_seed: u64,
    run_us: &mut Vec<f64>,
) -> Result<CampaignSummary, String> {
    let harness = &objective.harness;
    let scale = harness.config().scale;
    let mut summary = CampaignSummary::default();
    for policy in policies {
        let conformant = (format!("conformant-{policy:?}"), &objective.spec, true);
        let mutants = objective
            .mutants
            .iter()
            .map(|m| (format!("{}-{policy:?}", m.name), &m.system, false));
        for (name, system, expected_conformant) in std::iter::once(conformant).chain(mutants) {
            let index = summary.runs.len();
            let policy = reseeded(*policy, derive_run_seed(master_seed, index));
            let (iut, t) = span("iut.new", || {
                SimulatedIut::new(&name, system.clone(), scale, policy)
            });
            record("iut.new_us", t.as_secs_f64() * 1e6, "us");
            let mut iut = TimedIut {
                inner: iut,
                total: Duration::ZERO,
                calls: 0,
            };
            let controller = TimedController {
                inner: harness.controller(),
                total: Cell::new(Duration::ZERO),
                calls: Cell::new(0),
            };
            let allocs = crate::alloc::snapshot();
            let run_started = Instant::now();
            let mut parent = None;
            let (report, t) = span("exec.run", || {
                parent = trace::current();
                harness.execute_controlled(&mut iut, &controller)
            });
            let allocs_end = crate::alloc::snapshot();
            let unknown = (0, 0); // allocations are counted per run, not per call
            push_span(
                "iut.step",
                run_started,
                iut.total,
                iut.calls,
                unknown,
                parent,
                false,
            );
            push_span(
                "controller.decide",
                run_started,
                controller.total.get(),
                controller.calls.get(),
                unknown,
                parent,
                false,
            );
            let report = report.map_err(|e| format!("{}: {name}: {e}", objective.name))?;
            run_us.push(t.as_secs_f64() * 1e6);
            record("exec.steps_per_run", report.steps as f64, "count");
            record(
                "exec.allocs_per_run",
                (allocs_end.0 - allocs.0) as f64,
                "count",
            );
            summary.runs.push(tiga_testing::CampaignRun {
                iut_name: name,
                expected_conformant,
                report,
            });
        }
    }
    Ok(summary)
}

/// Replays a run's observable trace through a fresh monitor of the plant.
fn monitor_replay(spec: &System, scale: i64, steps: &[TraceStep]) -> Result<(), String> {
    let mut monitor = SpecMonitor::new(spec, scale).map_err(|e| e.to_string())?;
    for step in steps {
        match step {
            TraceStep::Delay(d) => monitor.observe_delay(*d),
            TraceStep::Input(c) => monitor.observe_input(c),
            TraceStep::Output(c) => monitor.observe_output(c),
        }
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let files = objective_files()?;
    let mut again = |parts: &mut Vec<f64>| set_up(&files, parts);
    let objectives = crate::set_up(&mut out, &mut again)?;
    check_objectives(&files, &objectives, seed, &mut out)?;

    let policies = default_policies();
    let master_seed = mix64(seed);
    let options = CampaignOptions::default()
        .threads(1)
        .master_seed(master_seed);
    let untraced = |o: &Objective| {
        run_mutation_campaign_with(&o.harness, &o.spec, &o.mutants, &policies, &options)
            .map_err(|e| format!("{}: campaign failed: {e}", o.name))
    };
    let traced = trace::enabled();
    // The reference summaries every op must reproduce.
    let reference: Vec<CampaignSummary> = if traced {
        objectives.iter().map(untraced).collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    let mut run_us = Vec::new();
    let mut runs_per_op = 0usize;
    let mut first: Vec<CampaignSummary> = Vec::new();
    let (mut false_alarms, mut detected, mut mutants) = (0, 0, 0);
    let measuring = Instant::now();
    while out.repeats.is_empty() || measuring.elapsed() < budget {
        let op = out.repeats.len() as u64 + 1;
        trace::set_op(op);
        let mut parts = Vec::with_capacity(objectives.len());
        let mut summaries = Vec::with_capacity(objectives.len());
        for objective in &objectives {
            let started = Instant::now();
            let summary = if traced {
                span("campaign.objective", || {
                    traced_campaign(objective, &policies, master_seed, &mut run_us)
                })
                .0?
            } else {
                untraced(objective)?
            };
            parts.push(ms(started.elapsed()));
            summaries.push(summary);
        }
        out.repeats.push(parts);

        // Checks, outside the timed region.
        let expected = if traced { &reference } else { &first };
        if !expected.is_empty() && *expected != summaries {
            out.problem(format!("op {op}: campaign runs differ from the reference"));
        }
        runs_per_op = 0;
        (false_alarms, detected, mutants) = (0, 0, 0);
        for (objective, summary) in objectives.iter().zip(&summaries) {
            runs_per_op += summary.runs.len();
            detected += summary.detected();
            mutants += summary.mutant_count();
            for run in summary.runs.iter().filter(|r| r.expected_conformant) {
                if matches!(run.report.verdict, Verdict::Pass) {
                    continue;
                }
                false_alarms += 1;
                let known = KNOWN_FALSE_ALARMS.contains(&objective.name.as_str())
                    && matches!(
                        run.report.verdict,
                        Verdict::Fail(FailReason::SafetyViolation { .. })
                    );
                if !known {
                    out.problem(format!(
                        "op {op}: {} {}: conformant run gave {:?}",
                        objective.name, run.iut_name, run.report.verdict
                    ));
                }
            }
        }
        out.attempted += runs_per_op as u64;
        out.failed += false_alarms as u64;
        record("campaign.false_alarms", false_alarms as f64, "count");
        record("campaign.detected", detected as f64, "count");
        if first.is_empty() && !traced {
            first = summaries;
        }
        crate::setups_due(&mut out, measuring.elapsed(), budget, &mut again)?;
    }
    trace::set_op(0);
    crate::setups_due(&mut out, budget, budget, &mut again)?;

    if traced {
        record("exec.run_us_p50", median(&run_us), "us");
        record("exec.run_us_p99", percentile(&run_us, 99.0), "us");
        for (objective, summary) in objectives.iter().zip(&reference) {
            let scale = objective.harness.config().scale;
            for run in &summary.runs {
                let (replayed, t) = span("monitor.replay", || {
                    monitor_replay(&objective.spec, scale, run.report.trace.steps())
                });
                if replayed.is_ok() {
                    record("monitor.replay_us", t.as_secs_f64() * 1e6, "us");
                }
            }
        }
    }

    out.headline(
        "test_runs_per_s",
        runs_per_op as f64 / median_op_s(&out.repeats).max(1e-9),
        "1/s",
        format!(
            "{runs_per_op} runs per op, median of {} ops",
            out.repeats.len()
        ),
    );
    out.headline(
        "campaign_false_alarms",
        false_alarms as f64,
        "runs",
        "per op; lep3.tp4/lep4.tp4 conformant safety violations".to_string(),
    );
    out.headline(
        "campaign_detected",
        detected as f64,
        "mutant runs",
        format!("per op, of {mutants} mutant runs"),
    );
    Ok(out)
}
