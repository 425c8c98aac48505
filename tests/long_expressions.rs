//! The deepest expressions the two parsers accept — the longest operator
//! chain inside the deepest nesting — survive every later recursive pass
//! (lowering, resolution, solving, printing, dropping) on a 2 MiB thread,
//! the default stack of a spawned thread, in a debug build.  One operator
//! more is a parse error.

use tiga::lang::{parse_model, print_system};
use tiga::solver::{solve, SolveEngine, SolveOptions};

/// Binary operators one expression may chain in either parser.
const MAX_OPERATORS: usize = 256;
/// Negation pairs around each chain: `!(` / `-(` / `not (` cost two nesting
/// levels each, so 30 of them stay inside the 64-level limit.
const WRAPS: usize = 30;

/// A game won by taking `go` once, whose `when` guard, update and objective
/// each chain `guard`, `sum` and `goal` binary operators inside [`WRAPS`]
/// double negations.
fn model(guard: usize, sum: usize, goal: usize) -> String {
    let wrap =
        |open: &str, chain: String| format!("{}{chain}{}", open.repeat(WRAPS), ")".repeat(WRAPS));
    let guard = wrap("!(", vec!["v == 0"; guard + 1].join(" && "));
    let sum = wrap("-(", vec!["0"; sum + 1].join(" + "));
    let mut terms = vec!["IUT.B"];
    terms.extend(vec!["v == 0"; goal]);
    let goal = wrap("not (", terms.join(" and "));
    format!(
        "clock x\nvar v : int[0, 1] = 0\ninput go\n\
         automaton IUT {{\n    init location A\n    location B\n    \
         edge A -> B on go? {{ when {guard}; set v := {sum} }}\n}}\n\
         automaton User {{\n    init location U\n    edge U -> U on go!\n}}\n\
         control: A<> {goal}\n"
    )
}

fn on_small_stack(run: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .expect("spawns")
        .join()
        .expect("finishes without a panic");
}

#[test]
fn longest_accepted_chains_survive_every_pass() {
    on_small_stack(|| {
        let source = model(MAX_OPERATORS, MAX_OPERATORS, MAX_OPERATORS);
        let parsed = parse_model(&source).expect("parses");
        let purpose = parsed.purpose.expect("has an objective");
        for engine in [SolveEngine::Otfur, SolveEngine::Jacobi] {
            let options = SolveOptions {
                engine,
                ..SolveOptions::default()
            };
            let solution = solve(&parsed.system, &purpose, &options).expect("solves");
            assert!(solution.winning_from_initial, "{}", engine.name());
        }
        let printed = print_system(&parsed.system, Some(&purpose));
        assert!(
            printed.len() > source.len(),
            "printing is fully parenthesized"
        );
    });
}

#[test]
fn one_operator_more_is_a_parse_error() {
    let n = MAX_OPERATORS;
    for (what, source, needle) in [
        (
            "guard",
            model(n + 1, n, n),
            "chains more than 256 binary operators",
        ),
        (
            "update",
            model(n, n + 1, n),
            "chains more than 256 binary operators",
        ),
        (
            "objective",
            model(n, n, n + 1),
            "at most 256 binary operators",
        ),
    ] {
        let err = parse_model(&source).expect_err(what);
        assert!(err.message.contains(needle), "{what}: {}", err.message);
    }
}
