//! Order-preserving parallel map on std scoped threads.
//!
//! The workspace's hot paths (per-object placement, experiment seed
//! sweeps) are embarrassingly parallel; this module gives them one shared,
//! dependency-free work-stealing-ish driver: a bag of indexed items drained
//! by worker threads through an atomic cursor, with results written back
//! into per-item slots so the output order always matches the input order
//! (parallel and sequential runs are byte-identical).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, in parallel, returning results in input
/// order. Runs sequentially when there is at most one item or one CPU.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_threads(items, None, f)
}

/// [`par_map`] with an explicit worker cap: at most `max_threads` workers
/// (`None` = all available CPUs). `Some(1)` forces sequential execution.
/// The solve engines pass `SolveRequest::max_threads` here, so a caller
/// can cap a solve's per-object fan-out; because results land in input
/// order, the cap never changes the output.
pub fn par_map_threads<T, U, F>(items: &[T], max_threads: Option<usize>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_threads_with(items, max_threads, || (), |(), item| f(item))
}

/// [`par_map_threads`] with per-worker state: every worker thread calls
/// `init` exactly once and threads the resulting value mutably through all
/// items it processes. This is how hot paths reuse scratch buffers —
/// e.g. one facility-location workspace per worker across all objects —
/// instead of allocating per item. The sequential path (one thread or one
/// item) creates a single state for the whole slice.
pub fn par_map_threads_with<T, U, S, I, F>(
    items: &[T],
    max_threads: Option<usize>,
    init: I,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let wanted = max_threads.unwrap_or(usize::MAX).max(1).min(items.len());
    // Asking for the CPU count takes tens of microseconds; a single
    // worker needs no answer.
    let threads = if wanted <= 1 {
        wanted
    } else {
        let available = std::thread::available_parallelism().map_or(1, |p| p.get());
        wanted.min(available)
    };
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&mut state, &items[i]);
                    *slots[i].lock().expect("no poisoned slot") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("unpoisoned")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(par_map(&[5], |&x| x + 1), vec![6]);
    }

    #[test]
    fn thread_cap_is_respected_and_order_preserved() {
        let items: Vec<usize> = (0..50).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x + 7).collect();
        for cap in [Some(1), Some(2), Some(3), Some(usize::MAX), None] {
            assert_eq!(par_map_threads(&items, cap, |&x| x + 7), expected);
        }
    }

    #[test]
    fn per_worker_state_is_reused_and_order_preserved() {
        let items: Vec<usize> = (0..64).collect();
        for cap in [Some(1), Some(3), None] {
            // Each worker's scratch buffer grows monotonically: reuse is
            // observable through the capacity surviving across items.
            let out = par_map_threads_with(
                &items,
                cap,
                Vec::<usize>::new,
                |scratch: &mut Vec<usize>, &x| {
                    scratch.push(x);
                    x * 2 + usize::from(scratch.is_empty())
                },
            );
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequential_path_uses_one_state() {
        let items = [1usize, 2, 3, 4];
        let out = par_map_threads_with(
            &items,
            Some(1),
            || 0usize,
            |seen: &mut usize, &x| {
                *seen += 1;
                (*seen, x)
            },
        );
        // One state for the whole slice: the counter runs 1..=4.
        assert_eq!(out, vec![(1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn matches_sequential_for_heavy_items() {
        let items: Vec<u64> = (0..16).collect();
        let f = |&s: &u64| -> u64 {
            let mut acc = s;
            for i in 0..(s % 5) * 50_000 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            acc
        };
        assert_eq!(par_map(&items, f), items.iter().map(f).collect::<Vec<_>>());
    }
}
