//! Differential pins for the content-hash solve cache behind `tiga serve`.
//!
//! The cache's correctness rests on two properties, checked here against
//! fresh solves rather than against itself:
//!
//! * a cache *hit* is bit-identical to the *miss* that populated it — and,
//!   because the solver is deterministic across parallelism levels, also to
//!   a fresh solve at any other `jobs` value.  A serve session may therefore
//!   answer a `--jobs 4` request from an entry computed at `--jobs 1`.  The
//!   entries are rendered payloads, so this is checked on the served bytes:
//!   verdict, all 14 stats counters, the rule counts, and the strategy and
//!   controller texts;
//! * the key contains exactly the semantics-relevant inputs: the canonical
//!   serialized system (with its `control:` objective) and the options that
//!   change the answer (engine, strategy extraction, early termination,
//!   round/state budgets) — and *not* `jobs`, which the determinism
//!   contract proves irrelevant.

use std::io::Cursor;
use tiga_bench::model_zoo;
use tiga_cli::{serve_session, ServeArgs};
use tiga_lang::print_system;
use tiga_solver::{SolveCache, SolveEngine, SolveOptions};

/// One request per model (inline source, controller included), each sent
/// `repeats` times in a row, through one session at `jobs`; returns the
/// response lines.
fn serve(models: &[String], repeats: usize, jobs: usize) -> Vec<String> {
    let mut input = String::new();
    for model in models {
        for _ in 0..repeats {
            input.push_str(&format!(
                "{{\"model\":{},\"controller\":true}}\n",
                json_string(model)
            ));
        }
    }
    let mut output = Vec::new();
    serve_session(Cursor::new(input), &mut output, &ServeArgs { jobs })
        .expect("in-memory I/O cannot fail");
    let text = String::from_utf8(output).expect("responses are UTF-8");
    text.lines().map(ToString::to_string).collect()
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The stable payload of an ok response: everything after the marker, minus
/// the envelope's closing brace.
fn payload(line: &str) -> &str {
    let start = line
        .find("\"payload\":")
        .unwrap_or_else(|| panic!("no payload in {line}"))
        + "\"payload\":".len();
    &line[start..line.len() - 1]
}

#[test]
fn cache_hits_are_bit_identical_to_fresh_solves_at_any_jobs() {
    // The small zoo models (skipping the detailed lep4 workload keeps the
    // jobs sweep fast), each submitted as its canonical inline source.
    let instances: Vec<_> = model_zoo()
        .into_iter()
        .filter(|i| i.model != "lep4")
        .collect();
    let models: Vec<String> = instances
        .iter()
        .map(|i| print_system(&i.system, Some(&i.purpose)))
        .collect();
    let n = instances.len();

    // Populate one session's cache at jobs 1 and hit every entry once.
    let cached = serve(&models, 2, 1);
    assert_eq!(cached.len(), 2 * n, "{cached:?}");
    for (k, instance) in instances.iter().enumerate() {
        let (miss, hit) = (&cached[2 * k], &cached[2 * k + 1]);
        assert!(miss.contains("\"cache\":\"miss\""), "{miss}");
        assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
        assert_eq!(
            payload(miss),
            payload(hit),
            "{}/{}: a hit must be byte-identical to its miss",
            instance.model,
            instance.purpose_name
        );
        assert!(
            payload(hit).contains(",\"controller\":\"tiga-controller v1\\u000a"),
            "the compared payloads carry the controller text: {hit}"
        );
    }
    let last = cached.last().expect("responses");
    assert!(
        last.contains(&format!(
            "\"cache_hits\":{n},\"cache_misses\":{n},\"cache_entries\":{n},"
        )),
        "{last}"
    );

    // Every instance re-solved fresh at other parallelism levels must match
    // the cached payload byte for byte.
    for jobs in [2usize, 4] {
        let fresh = serve(&models, 1, jobs);
        assert_eq!(fresh.len(), n, "{fresh:?}");
        for (k, instance) in instances.iter().enumerate() {
            assert!(fresh[k].contains("\"cache\":\"miss\""), "{}", fresh[k]);
            assert_eq!(
                payload(&cached[2 * k + 1]),
                payload(&fresh[k]),
                "{}/{}: jobs={jobs} fresh solve differs from the cached entry",
                instance.model,
                instance.purpose_name
            );
        }
    }
}

#[test]
fn cache_keys_cover_semantics_and_ignore_parallelism() {
    let zoo = model_zoo();
    let a = &zoo[0];
    let b = zoo
        .iter()
        .find(|i| i.model == a.model && i.purpose_name != a.purpose_name)
        .expect("the zoo has several purposes per model");

    let canonical_a = print_system(&a.system, Some(&a.purpose));
    let canonical_b = print_system(&b.system, Some(&b.purpose));
    assert_ne!(
        canonical_a, canonical_b,
        "the canonical text embeds the control: objective"
    );

    let defaults = SolveOptions::default();
    let base_key = SolveCache::key(&canonical_a, &defaults);

    // jobs is NOT part of the key...
    for jobs in [0usize, 1, 4] {
        let opts = SolveOptions {
            jobs,
            ..SolveOptions::default()
        };
        assert_eq!(
            SolveCache::key(&canonical_a, &opts),
            base_key,
            "jobs={jobs} must share the key"
        );
    }

    // ...while every semantics-relevant input is.
    assert_ne!(
        SolveCache::key(&canonical_b, &defaults),
        base_key,
        "objective"
    );
    let variations = [
        SolveOptions {
            engine: SolveEngine::Jacobi,
            ..SolveOptions::default()
        },
        SolveOptions {
            extract_strategy: false,
            ..SolveOptions::default()
        },
        SolveOptions {
            early_termination: false,
            ..SolveOptions::default()
        },
        SolveOptions {
            max_rounds: 7,
            ..SolveOptions::default()
        },
    ];
    for (i, opts) in variations.iter().enumerate() {
        assert_ne!(
            SolveCache::key(&canonical_a, opts),
            base_key,
            "variation {i} must change the key"
        );
    }

    // Fingerprints are stable hex and distinct keys (almost surely) get
    // distinct fingerprints; equal keys always do.
    let fp = SolveCache::fingerprint(&base_key);
    assert_eq!(fp.len(), 16, "64-bit FNV-1a in hex");
    assert_eq!(
        fp,
        SolveCache::fingerprint(&SolveCache::key(&canonical_a, &defaults))
    );
    assert_ne!(
        fp,
        SolveCache::fingerprint(&SolveCache::key(&canonical_b, &defaults))
    );
}
