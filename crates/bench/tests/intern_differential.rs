//! Interning acceptance: the hash-consed zone store both engines keep their
//! passed lists in must pay off on the largest zoo model.
//!
//! Most zone offers must re-derive an already-interned zone (a hash probe
//! instead of a deep copy), the deep-copy pressure must stay at most half of
//! the offers a copy-per-offer store would have made, and the
//! minimal-constraint storage must save bytes.

use tiga_bench::model_zoo;
use tiga_solver::{solve, SolveEngine, SolveOptions};

const ENGINES: [SolveEngine; 2] = [SolveEngine::Otfur, SolveEngine::Jacobi];

#[test]
fn interning_pays_off_on_lep4() {
    let zoo = model_zoo();
    for purpose in ["tp2", "tp4"] {
        let instance = zoo
            .iter()
            .find(|i| i.model == "lep4" && i.purpose_name == purpose)
            .expect("zoo has lep4");
        for engine in ENGINES {
            let options = SolveOptions {
                engine,
                ..SolveOptions::default()
            };
            let context = format!("lep4/{purpose} [{}]", engine.name());
            let solution = solve(&instance.system, &instance.purpose, &options).expect("solves");
            let stats = solution.stats();
            // Every offer is either a hit or a miss that interned a new zone.
            let lookups = stats.intern_hits + stats.interned_zones;
            assert!(
                stats.intern_hits * 2 > lookups,
                "{context}: hit rate {}/{lookups} not above 50%",
                stats.intern_hits
            );
            assert!(
                lookups >= 2 * stats.dbm_clones,
                "{context}: {} deep copies for {lookups} zone offers",
                stats.dbm_clones
            );
            assert!(
                stats.minimized_bytes_saved > 0,
                "{context}: minimal-constraint storage saved nothing"
            );
        }
    }
}
