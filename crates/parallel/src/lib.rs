//! # tiga-parallel — a minimal deterministic sharded work queue
//!
//! Shared by the campaign engine (`tiga fuzz --jobs`), the test-campaign
//! runner in `tiga-testing`, and the solver's intra-solve parallelism
//! (`tiga solve --jobs`).  The crate sits below every other workspace member
//! so the solver can use the queue without a dependency cycle through
//! `tiga-testing`.
//!
//! Jobs are claimed dynamically from a shared atomic cursor (work-stealing
//! style self-scheduling: a fast worker keeps taking jobs a slow worker has
//! not claimed yet), but every result is written back into the slot of the
//! job that produced it, so the output order — and therefore everything
//! aggregated from it — is independent of the number of worker threads and
//! of scheduling interleavings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested thread count: `0` means "all available parallelism",
/// and the result never exceeds the number of jobs.
#[must_use]
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let wanted = if requested == 0 { hardware } else { requested };
    wanted.clamp(1, jobs.max(1))
}

/// Runs `f` over every `(index, item)` pair on `threads` workers and returns
/// the results in item order — bit-identical for any thread count.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn run_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads, n);
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let item = slots[index]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let result = f(index, item);
                *results[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(items.clone(), threads, |index, item| {
                assert_eq!(index, item);
                item * 3
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let none: Vec<u8> = Vec::new();
        assert!(run_indexed(none, 4, |_, x| x).is_empty());
        assert_eq!(run_indexed(vec![7], 4, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(8, 0), 1);
    }
}
