//! The pipeline benchmark: `.tg` text → controller → verdicts.
//!
//! ```text
//! perfbench --workload <lep5_reach|campaign_suite|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `examples/`).  Each workload sets
//! up, then runs ops until `--seconds` have passed, setting up again a few
//! times between ops and checking every op's output outside the timed
//! region.  Human-readable lines come first; the last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics untraced, the per-layer metrics traced.  A traced
//! run also writes its spans and its full layer table under
//! `perfbench/out/`.  The exit code is non-zero when a check fails (other
//! than the known false alarms that `failed` counts), or on bad arguments.

mod alloc;
mod campaign;
mod lep5;
mod serve;
mod trace;
mod util;

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Per-layer metrics printed by a traced run, the same on every workload.
/// Each is the mean over the calls the run made; where a workload's timed
/// op does not call a layer, its set-up or checks do (see README.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.engine_ms", "ms"),
    ("solver.untimed_ms", "ms"),
    ("solver.allocs", "count"),
    ("solver.alloc_bytes", "bytes"),
    ("solver.discrete_states", "count"),
    ("solver.reach_zones", "count"),
    ("solver.graph_edges", "count"),
    ("solver.iterations", "count"),
    ("solver.subsumed_zones", "count"),
    ("solver.pruned_evaluations", "count"),
    ("solver.peak_live_zones", "count"),
    ("solver.intern_hits", "count"),
    ("solver.dbm_clones", "count"),
    ("minimize.ms", "ms"),
    ("minimize.allocs", "count"),
    ("minimize.rules_in", "count"),
    ("minimize.rules_out", "count"),
    ("controller.compile_ms", "ms"),
    ("controller.states", "count"),
    ("controller.print_ms", "ms"),
    ("controller.bytes", "bytes"),
    ("controller.decide_ns", "ns"),
    ("trace.op_s", "s"),
];

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each part of each set-up, in ms: one row per set-up,
    /// the same parts in the same order in every row.
    pub setups: Vec<Vec<f64>>,
    /// Set-up rounds run (see [`set_up`]).
    pub setup_rounds: usize,
    /// Wall time of each part of each timed op, in ms: one row per op
    /// (repeat), the same parts in the same order in every row.
    pub repeats: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that make the run incorrect (known false alarms are
    /// counted in `failed` only).
    pub problems: Vec<String>,
    /// Workload-specific headline lines: `(name, value, unit, note)`.
    pub headline: Vec<(String, f64, &'static str, String)>,
}

impl Outcome {
    pub fn headline(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.headline.push((name.to_string(), value, unit, note));
    }

    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.problems.push(message);
    }
}

/// Set-up rounds per run.  The first runs before the first op; the k-th
/// of the others runs after the first op that ends once k/SETUP_ROUNDS of
/// the budget has passed, and counts against it.  Spread over the run like
/// this, the set-ups sample the host's speed the way the op repeats do, and
/// `setup_s` takes each set-up part at its fastest, like `op_s`.
const SETUP_ROUNDS: usize = 16;

/// A round repeats the set-up until this much time has passed (at least
/// once), so that a set-up of a millisecond or less is timed often enough
/// for its fastest repeat to be steady.
const SETUP_ROUND: Duration = Duration::from_millis(50);

/// Runs one round of set-ups; returns the first set-up's result and drops
/// the others'.  The set-up times its parts with [`part`].
pub fn set_up<T>(
    out: &mut Outcome,
    set_up: &mut impl FnMut(&mut Vec<f64>) -> Result<T, String>,
) -> Result<T, String> {
    trace::set_op(0);
    let started = Instant::now();
    let mut once = || -> Result<T, String> {
        let mut parts = Vec::new();
        let value = set_up(&mut parts)?;
        out.setups.push(parts);
        Ok(value)
    };
    let value = once()?;
    while started.elapsed() < SETUP_ROUND {
        drop(once()?);
    }
    out.setup_rounds += 1;
    Ok(value)
}

/// Runs one part of a set-up, adding its wall time in ms to `parts`.
pub fn part<T>(parts: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = f();
    parts.push(trace::ms(started.elapsed()));
    value
}

/// Runs the set-up rounds that are due `elapsed` into the ops' budget (all
/// of the remaining ones once `elapsed` reaches `budget`), dropping their
/// results.  Called after every op, and after the last with `budget`.
pub fn setups_due<T>(
    out: &mut Outcome,
    elapsed: Duration,
    budget: Duration,
    set_up: &mut impl FnMut(&mut Vec<f64>) -> Result<T, String>,
) -> Result<(), String> {
    while out.setup_rounds < SETUP_ROUNDS
        && elapsed.as_secs_f64() * SETUP_ROUNDS as f64
            >= budget.as_secs_f64() * out.setup_rounds as f64
    {
        drop(crate::set_up(out, set_up)?);
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds must be a non-negative number")?;
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace,
    })
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = match args.workload.as_str() {
        "lep5_reach" => lep5::run(args.seed, budget),
        "campaign_suite" => campaign::run(args.seed, budget),
        "serve_mix" => serve::run(args.seed, budget),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            // Set-up failed (e.g. the inputs are missing): no result.
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    };
    let peak_rss_mb = util::proc_status_mb("VmHWM");
    let setup_s = util::fastest_parts(&outcome.setups).iter().sum::<f64>() / 1e3;
    let op_s = util::fastest_parts(&outcome.repeats).iter().sum::<f64>() / 1e3;
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let w = &args.workload;
    println!(
        "{w} setup_s {setup_s:.4} s (each of {} parts at its fastest of {} set-ups in {} rounds)",
        outcome.setups.first().map_or(0, Vec::len),
        outcome.setups.len(),
        outcome.setup_rounds
    );
    println!(
        "{w} op_s {op_s:.4} s (each of {} parts at its fastest of {} repeats)",
        outcome.repeats.first().map_or(0, Vec::len),
        outcome.repeats.len()
    );
    for (name, value, unit, note) in &outcome.headline {
        println!("{w} {name} {value:.4} {unit} ({note})");
    }
    println!("{w} peak_rss_mb {peak_rss_mb:.1} MB (VmHWM)");
    println!(
        "{w} failed_share {failed_share:.6} ({} of {} operations)",
        outcome.failed, outcome.attempted
    );

    let mut metrics = String::from("{");
    if args.trace {
        trace::record("trace.op_s", op_s, "s");
        let recorded = trace::metrics();
        for (name, mean, unit, samples) in &recorded {
            println!("{w} layer {name} {mean:.4} {unit} (n={samples})");
        }
        let repeats = outcome.repeats.len() as u64;
        let self_ms = trace::self_ms_per_op(repeats);
        let total: f64 = self_ms.iter().map(|(_, v)| v).sum();
        let mean_op_ms: f64 = outcome.repeats.iter().flatten().sum::<f64>() / repeats.max(1) as f64;
        for (layer, v) in &self_ms {
            println!("{w} self {layer} {v:.4} ms/op");
        }
        println!("{w} self total {total:.4} ms/op vs traced mean op {mean_op_ms:.4} ms");
        for (name, unit) in PER_LAYER {
            match recorded.iter().find(|(n, ..)| n == name) {
                Some((_, value, ..)) => metric(&mut metrics, name, *value, unit),
                None => outcome.problem(format!("per-layer metric {name} was not recorded")),
            }
        }
        write_trace_files(w, args.seed, &recorded, &self_ms);
    } else {
        metric(&mut metrics, "setup_s", setup_s, "s");
        metric(&mut metrics, "op_s", op_s, "s");
        metric(&mut metrics, "peak_rss_mb", peak_rss_mb, "MB");
    }
    metrics.push('}');
    let correct = outcome.problems.is_empty() && !outcome.repeats.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Writes `spans-<workload>-<seed>.jsonl` and `layers-<workload>-<seed>.json`.
fn write_trace_files(
    workload: &str,
    seed: u64,
    recorded: &[(&str, f64, &str, u64)],
    self_ms: &[(String, f64)],
) {
    let dir = Path::new("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let spans = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    match trace::write_spans(&spans) {
        Ok(n) => println!("{workload} spans {n} written to {}", spans.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", spans.display()),
    }
    let mut json = String::from("{\"metrics\":{");
    for (name, mean, unit, samples) in recorded {
        metric(&mut json, name, *mean, unit);
        json.pop();
        let _ = write!(json, ",\"samples\":{samples}}}");
    }
    json.push_str("},\"self_ms_per_op\":{");
    for (i, (layer, v)) in self_ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\"{layer}\":{v}");
    }
    json.push_str("}}\n");
    let layers = dir.join(format!("layers-{workload}-{seed}.json"));
    if let Err(e) = std::fs::write(&layers, json) {
        eprintln!("warning: cannot write {}: {e}", layers.display());
    }
}
