//! Helpers shared by the workloads: seeds, process memory, percentiles,
//! JSON text and the controller-versus-strategy decision check.

use crate::trace::{ms, record, span};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tiga_model::DiscreteState;
use tiga_solver::{minimize_strategy, CompiledController, Controller, GameSolution, Strategy};

/// SplitMix64 finalizer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `VmRSS`/`VmHWM`-style field of `/proc/self/status`, in MB.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fastest time of each part over the repeats (rows) of an op.
///
/// On a host shared with other tenants the processor can run at half speed
/// for stretches of ten seconds and more; each part's fastest repeat
/// filters those stretches out of a run's figures.
pub fn fastest_parts(repeats: &[Vec<f64>]) -> Vec<f64> {
    let parts = repeats.first().map_or(0, Vec::len);
    (0..parts)
        .map(|j| {
            repeats
                .iter()
                .filter_map(|row| row.get(j))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The median, over the repeats (rows) of an op, of the op's wall time (the
/// sum of its parts), in s.
pub fn median_op_s(repeats: &[Vec<f64>]) -> f64 {
    let sums: Vec<f64> = repeats.iter().map(|row| row.iter().sum::<f64>()).collect();
    median(&sums) / 1e3
}

/// Nearest-rank percentile, `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Decodes the body of a JSON string literal (the text between the quotes).
pub fn json_unescape(body: &str) -> Option<String> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// The raw body of the string field `"name":"..."` in a JSON object text,
/// searched from the end (payload fields come last in serve responses).
pub fn string_field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":\"");
    let start = json.rfind(&tag)? + tag.len();
    let bytes = json.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&json[start..i]),
            _ => i += 1,
        }
    }
    None
}

fn state_hash(d: &DiscreteState) -> u64 {
    let mut h = DefaultHasher::new();
    d.hash(&mut h);
    h.finish()
}

/// A seeded query set over a strategy: about `states` of its discrete
/// states (chosen by a seeded hash, so the same seed picks the same states
/// in every process), each with the corners of up to four of its rule zones
/// and a few seeded on- and off-grid valuations.
pub fn decide_queries(
    strategy: &Strategy,
    seed: u64,
    states: usize,
    scale: i64,
) -> Vec<(&DiscreteState, Vec<i64>)> {
    let clocks = strategy.dim() - 1;
    let total = strategy.state_count().max(1) as u64;
    let mut picked: Vec<(u64, &DiscreteState, &[tiga_solver::StrategyRule])> = strategy
        .iter()
        .filter_map(|(d, rules)| {
            let h = mix64(state_hash(d) ^ seed);
            (h % total < states as u64).then_some((h, d, rules))
        })
        .collect();
    picked.sort_by_key(|(h, _, _)| *h);
    let mut queries = Vec::new();
    for (h, d, rules) in picked {
        let mut rng = h;
        let mut next = |bound: i64| {
            rng = mix64(rng);
            (rng % bound as u64) as i64
        };
        queries.push((d, vec![0; clocks]));
        for rule in rules.iter().take(4) {
            let mut lower = vec![0i64; clocks];
            let mut upper = vec![0i64; clocks];
            for i in 0..clocks {
                let lo = rule.zone.at(0, i + 1).constant().map_or(0, |m| -m) as i64;
                let hi = rule.zone.at(i + 1, 0).constant().map_or(lo + 3, i64::from);
                lower[i] = lo.max(0) * scale;
                upper[i] = hi.max(0) * scale;
            }
            let nudged: Vec<i64> = lower.iter().map(|t| t + 1).collect();
            queries.push((d, lower));
            queries.push((d, upper));
            queries.push((d, nudged));
        }
        for round in 0..6 {
            let ticks: Vec<i64> = (0..clocks)
                .map(|_| {
                    let units = next(17);
                    if round % 2 == 0 {
                        units * scale
                    } else {
                        units * scale + next(scale)
                    }
                })
                .collect();
            queries.push((d, ticks));
        }
    }
    queries
}

/// Runs every query on `controller` and on the interpreted `strategy`;
/// returns `(disagreements, controller ns per query)`.
pub fn check_decisions(
    controller: &dyn Controller,
    strategy: &Strategy,
    queries: &[(&DiscreteState, Vec<i64>)],
    scale: i64,
) -> (usize, f64) {
    let started = Instant::now();
    for (d, ticks) in queries {
        black_box(controller.decide_with_wakeup(d, ticks, scale));
    }
    let ns = started.elapsed().as_nanos() as f64 / queries.len().max(1) as f64;
    let interpreted: &dyn Controller = strategy;
    let disagreements = queries
        .iter()
        .filter(|(d, ticks)| {
            controller.decide_with_wakeup(d, ticks, scale)
                != interpreted.decide_with_wakeup(d, ticks, scale)
        })
        .count();
    (disagreements, ns)
}

/// Records one `solve` call: its wall time, the engine's own timer, the
/// rest (`untimed`), the allocations between the two snapshots and the
/// solver's exact counters.
pub fn record_solve(
    wall: Duration,
    solution: &GameSolution,
    before: (u64, u64),
    after: (u64, u64),
) {
    let engine_ms = ms(solution.timed.total_time());
    record("solver.solve_ms", ms(wall), "ms");
    record("solver.engine_ms", engine_ms, "ms");
    record("solver.untimed_ms", ms(wall) - engine_ms, "ms");
    record("solver.allocs", (after.0 - before.0) as f64, "count");
    record("solver.alloc_bytes", (after.1 - before.1) as f64, "bytes");
    let stats = solution.stats();
    for (name, value) in [
        ("solver.discrete_states", stats.discrete_states),
        ("solver.reach_zones", stats.reach_zones),
        ("solver.graph_edges", stats.graph_edges),
        ("solver.iterations", stats.iterations),
        ("solver.subsumed_zones", stats.subsumed_zones),
        ("solver.pruned_evaluations", stats.pruned_evaluations),
        ("solver.peak_live_zones", stats.peak_live_zones),
        ("solver.intern_hits", stats.intern_hits),
        ("solver.dbm_clones", stats.dbm_clones),
    ] {
        record(name, value as f64, "count");
    }
}

/// Minimizes `strategy` and compiles the result, each call in its own span,
/// and records the minimize and compile metrics; returns the controller and
/// the two wall times.
pub fn minimize_and_compile(strategy: &Strategy) -> (CompiledController, Duration, Duration) {
    let before = crate::alloc::snapshot();
    let (minimized, minimize_t) = span("minimize.strategy", || minimize_strategy(strategy));
    let after = crate::alloc::snapshot();
    record("minimize.ms", ms(minimize_t), "ms");
    record("minimize.rules_in", strategy.rule_count() as f64, "count");
    record("minimize.rules_out", minimized.rule_count() as f64, "count");
    record("minimize.allocs", (after.0 - before.0) as f64, "count");
    let (controller, compile_t) = span("controller.compile", || {
        CompiledController::from_minimized(minimized)
    });
    record("controller.compile_ms", ms(compile_t), "ms");
    record(
        "controller.states",
        controller.state_count() as f64,
        "count",
    );
    (controller, minimize_t, compile_t)
}
