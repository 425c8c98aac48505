//! `lep5_reach`: the detailed five-node leader-election product with the
//! TP2 reach purpose, from `.tg` text to controller text.
//!
//! Set-up prints `lep_detailed_instance(5, 1)` to `.tg` text.  One op is
//! text → `parse_model` → `solve` (OTFUR, one thread) → `minimize_strategy`
//! → `CompiledController::from_minimized` → `print_controller`, then the
//! drop of everything it built.  Between the print and the drop, outside
//! the timed region, the op's output is checked: the verdict is winning,
//! the solver's exact counters equal the first op's, and the compiled
//! controller answers a seeded query set exactly like the interpreted
//! strategy.

use crate::trace::{self, ms, record, span};
use crate::util::{
    check_decisions, decide_queries, median_op_s, minimize_and_compile, proc_status_mb,
    record_solve,
};
use crate::{part, Outcome};
use std::time::{Duration, Instant};
use tiga_solver::{print_controller, solve, SolveOptions};

pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Ticks per model time unit of the decision queries.
    let scale = tiga_testing::TestConfig::default().scale;
    let mut set_up = |parts: &mut Vec<f64>| {
        let (system, purpose) = part(parts, || tiga_bench::lep_detailed_instance(5, 1));
        Ok(part(parts, || {
            span("lang.print", || {
                tiga_lang::print_system(&system, Some(&purpose))
            })
            .0
        }))
    };
    let text = crate::set_up(&mut out, &mut set_up)?;

    let mut first_stats = None;
    let measuring = Instant::now();
    while out.repeats.is_empty() || measuring.elapsed() < budget {
        let op = out.repeats.len() as u64 + 1;
        trace::set_op(op);
        out.attempted += 1;
        let (model, parse_t) = span("lang.parse", || tiga_lang::parse_model(&text));
        let model = model.map_err(|e| format!("lep5 text does not parse: {e:?}"))?;
        let purpose = model
            .purpose
            .clone()
            .ok_or("lep5 text has no control: line")?;
        let rss_before = proc_status_mb("VmRSS");
        let allocs_before = crate::alloc::snapshot();
        let (solution, solve_t) = span("solver.solve", || {
            solve(&model.system, &purpose, &SolveOptions::default())
        });
        let solution = solution.map_err(|e| format!("lep5 solve failed: {e}"))?;
        let allocs_after = crate::alloc::snapshot();
        let rss_after = proc_status_mb("VmRSS");
        let Some(strategy) = solution.strategy.as_ref() else {
            return Err("lep5 solve extracted no strategy".to_string());
        };
        let (controller, minimize_t, compile_t) = minimize_and_compile(strategy);
        let name = model.system.name().to_string();
        let winning = solution.winning_from_initial;
        let (printed, print_t) = span("controller.print", || {
            print_controller(&name, winning, Some(&controller))
        });

        // Checks, outside the timed region.
        let stats = solution.stats().clone();
        let mut ok = winning;
        if !winning {
            out.problem(format!("op {op}: lep5 TP2 verdict is not winning"));
        }
        match &first_stats {
            None => first_stats = Some(stats.clone()),
            Some(first) if *first != stats => {
                ok = false;
                out.problem(format!(
                    "op {op}: solver counters differ from op 1: {stats:?}"
                ));
            }
            Some(_) => {}
        }
        let queries = decide_queries(strategy, seed, 200, scale);
        let (disagreements, decide_ns) = check_decisions(&controller, strategy, &queries, scale);
        if disagreements > 0 {
            ok = false;
            out.problem(format!(
                "op {op}: compiled controller disagrees with the strategy on {disagreements} of {} queries",
                queries.len()
            ));
        }
        if !ok {
            out.failed += 1;
        }
        record("lang.parse_ms", ms(parse_t), "ms");
        record_solve(solve_t, &solution, allocs_before, allocs_after);
        if op == 1 {
            // Only the first op starts from a heap the solver never grew.
            let bytes = (rss_after - rss_before) * 1024.0 * 1024.0;
            record(
                "solver.bytes_per_state",
                bytes / stats.discrete_states.max(1) as f64,
                "bytes",
            );
        }
        record("controller.print_ms", ms(print_t), "ms");
        record("controller.bytes", printed.len() as f64, "bytes");
        record("controller.decide_ns", decide_ns, "ns");
        drop(queries);

        let ((), controller_drop_t) = span("controller.drop", || drop((printed, controller)));
        let ((), drop_t) = span("solver.drop", || drop((solution, model)));
        record("solver.drop_ms", ms(drop_t), "ms");
        out.repeats.push(
            [
                parse_t,
                solve_t,
                minimize_t,
                compile_t,
                print_t,
                controller_drop_t,
                drop_t,
            ]
            .map(ms)
            .to_vec(),
        );
        crate::setups_due(&mut out, measuring.elapsed(), budget, &mut set_up)?;
    }
    trace::set_op(0);
    crate::setups_due(&mut out, budget, budget, &mut set_up)?;
    let ops = out.repeats.len();
    out.headline(
        "synth_s",
        median_op_s(&out.repeats),
        "s",
        format!("text to controller text, median of {ops} ops"),
    );
    Ok(out)
}
