//! Content-hash solve cache.
//!
//! `tiga serve` keeps one [`SolveCache`] for the lifetime of the process:
//! repeated or duplicate submissions of the same game are answered from the
//! cache instead of re-solving.  The key is the *content* of the request —
//! the canonical serialized system (the exact-inverse `print_system` text,
//! including the `control:` objective) plus every option that can change the
//! verdict, stats or strategy.  `jobs` is deliberately excluded: results
//! are bit-identical for any thread count (pinned by the solver's
//! determinism suites), so a cache hit is exact no matter which
//! parallelism level produced the entry.
//!
//! An entry holds no solver structures, only the response bytes the server
//! rendered once when it stored the game: a hit borrows them and copies
//! them out, so it costs no solving and no re-serialization.

use crate::winning::SolveOptions;
use std::cell::Cell;
use std::collections::HashMap;

/// A cached solve result as the bytes a response carries, rendered once at
/// store time.  The cache never looks inside: the server decides the
/// format.  Nothing volatile belongs here — wall-clock timing is part of
/// the solve that produced the entry, not of the game.
#[derive(Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The part every response carries (verdict, stats and strategy).
    pub payload: Box<str>,
    /// The part appended to `payload` only when the client asks for the
    /// compiled controller.
    pub controller: Box<str>,
}

/// Hit/miss counters, reported in `tiga serve` responses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the caller then solves and stores).
    pub misses: u64,
}

/// A content-addressed store of solve results.
#[derive(Debug, Default)]
pub struct SolveCache {
    entries: HashMap<String, CacheEntry>,
    /// Counted through a `Cell`, so that [`SolveCache::lookup`] can hand
    /// out a borrowed entry while the caller still reads the counters.
    stats: Cell<CacheStats>,
}

impl SolveCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// Builds the cache key for a canonical system text and solve options.
    ///
    /// `canonical_system` must be the exact-inverse serializer output
    /// (`tiga_lang::print_system` with the objective's `control:` line), so
    /// that textually different but semantically identical submissions —
    /// reordered flags, an inline model vs. the same file on disk — collide
    /// onto one entry.  Only semantics-relevant options participate;
    /// `jobs` changes no result and is excluded by design.
    #[must_use]
    pub fn key(canonical_system: &str, options: &SolveOptions) -> String {
        format!(
            "{canonical_system}\x1e\
             engine={engine}\n\
             extract_strategy={extract}\n\
             early_termination={early}\n\
             max_rounds={rounds}\n\
             stop_at_goal={stop}\n\
             max_states={states}\n",
            engine = options.engine.name(),
            extract = options.extract_strategy,
            early = options.early_termination,
            rounds = options.max_rounds,
            stop = options.explore.stop_at_goal,
            states = options.explore.max_states,
        )
    }

    /// A short printable digest of a key (FNV-1a 64), for response envelopes
    /// and logs.  Entries are stored under the full key, so digest
    /// collisions cannot cause wrong answers.
    #[must_use]
    pub fn fingerprint(key: &str) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// Looks up a key, counting a hit or a miss, and borrows the cached
    /// entry.
    pub fn lookup(&self, key: &str) -> Option<&CacheEntry> {
        let entry = self.entries.get(key);
        let mut stats = self.stats.get();
        match entry {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        self.stats.set(stats);
        entry
    }

    /// Borrows a cached entry without touching the counters (used to answer
    /// a miss from the entry it just stored).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.get(key)
    }

    /// Whether a key is present, without touching the counters (used to plan
    /// batch sharding before the in-order merge does the counted lookups).
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Stores a solve result under a key.
    pub fn store(&mut self, key: String, entry: CacheEntry) {
        self.entries.insert(key, entry);
    }

    /// Number of cached games.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::winning::SolveEngine;

    fn entry(payload: &str) -> CacheEntry {
        CacheEntry {
            payload: payload.into(),
            controller: ",c".into(),
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut cache = SolveCache::new();
        let key = SolveCache::key("system x", &SolveOptions::default());
        assert!(cache.lookup(&key).is_none());
        cache.store(key.clone(), entry("{p"));
        let hit = cache.lookup(&key).expect("stored entry");
        assert_eq!(*hit, entry("{p"));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&key));
        assert_eq!(cache.get(&key), Some(hit));
        // `contains` and `get` do not count.
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn key_separates_semantics_relevant_options_only() {
        let base = SolveOptions::default();
        let key = SolveCache::key("m", &base);
        // jobs does not change results — same key.
        let mut same = base.clone();
        same.jobs = 8;
        assert_eq!(SolveCache::key("m", &same), key);
        // Engine, termination mode, strategy extraction and budgets do.
        let mut other = base.clone();
        other.engine = SolveEngine::Jacobi;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base.clone();
        other.early_termination = false;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base.clone();
        other.extract_strategy = false;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base.clone();
        other.max_rounds = 3;
        assert_ne!(SolveCache::key("m", &other), key);
        let mut other = base;
        other.explore.max_states = 42;
        assert_ne!(SolveCache::key("m", &other), key);
        // And the system text itself, of course.
        assert_ne!(SolveCache::key("m2", &SolveOptions::default()), key);
    }

    #[test]
    fn fingerprint_is_stable_and_collision_free_enough() {
        let a = SolveCache::fingerprint("a");
        assert_eq!(a.len(), 16);
        assert_eq!(a, SolveCache::fingerprint("a"));
        assert_ne!(a, SolveCache::fingerprint("b"));
        // Known FNV-1a 64 vector.
        assert_eq!(SolveCache::fingerprint(""), "cbf29ce484222325");
    }
}
