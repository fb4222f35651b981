//! Deterministic work-sharing, shared by the experiment harness and the
//! service's worker pool.
//!
//! [`par_map`] fans independent work items out over `std::thread::scope`
//! workers pulling from an atomic queue, then reassembles the results in
//! item order — so a table built from the output is byte-identical to
//! the sequential run no matter how the items were scheduled. Experiment
//! functions stay pure (tree generation keeps its sequential RNG
//! consumption order; only the simulations fan out), which is what lets
//! the committed `EXPERIMENTS.md` numbers survive the parallel harness.
//!
//! Parallelism lives across configurations and requests, never inside
//! a round: `BFDN_THREADS` sizes the fan-out ([`num_threads`]), and each
//! explorer runs the paper's sequential `for i = 1 to k` loop.
//!
//! Workers claim *chunks* of adjacent items rather than single indices:
//! one `fetch_add` per chunk instead of per item, which cuts queue
//! contention when many small configurations (E5's share maps, the
//! ablation arms, small service batches) meet a high thread count. The
//! chunk size adapts to the input — small inputs degrade to unit claims,
//! so load balance on skewed items is unchanged where it matters.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Each worker keeps roughly this many claims available to every thread,
/// so the tail of the queue still balances across skewed item costs.
const CHUNKS_PER_THREAD: usize = 8;

/// Worker count: the `BFDN_THREADS` environment variable when set (and
/// at least 1), otherwise the machine's available parallelism.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("BFDN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, running items across [`num_threads`]
/// scoped threads (the calling thread participates as one worker), and
/// returns the results **in item order** regardless of scheduling.
///
/// A panic in any `f` call (experiments assert paper bounds by
/// panicking) is propagated to the caller with its original payload.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with_threads(items, num_threads(), f)
}

/// [`par_map`] with an explicit worker count (testable without touching
/// the `BFDN_THREADS` process environment).
pub fn par_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    // One atomic claim hands out `chunk` adjacent indices.
    let chunk = (items.len() / (threads * CHUNKS_PER_THREAD)).max(1);
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads - 1)
            .map(|_| s.spawn(|| drain_queue(&next, chunk, items, &f)))
            .collect();
        let mut all = drain_queue(&next, chunk, items, &f);
        for h in handles {
            match h.join() {
                Ok(part) => all.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// One worker: claim the next unclaimed chunk of indices until the
/// queue is dry, tagging each result with its item index for the stable
/// merge.
fn drain_queue<T, R>(
    next: &AtomicUsize,
    chunk: usize,
    items: &[T],
    f: &(impl Fn(&T) -> R + Sync),
) -> Vec<(usize, R)> {
    let mut out = Vec::new();
    loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= items.len() {
            return out;
        }
        let end = (start + chunk).min(items.len());
        for (i, item) in items.iter().enumerate().take(end).skip(start) {
            out.push((i, f(item)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = par_map(&items, |&i| {
            // Skew the per-item cost so late items often finish first.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * 3
        });
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        let res = std::panic::catch_unwind(|| {
            par_map_with_threads(&[1u32, 2, 3, 4], 4, |&x| {
                assert!(x != 3, "bound violated on item {x}");
                x
            })
        });
        let payload = res.expect_err("the panic must cross par_map");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("bound violated on item 3"), "got: {msg}");
    }

    #[test]
    fn matches_sequential_map_on_heavier_closures() {
        let items: Vec<u64> = (0..64).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xABCD).collect();
        assert_eq!(par_map(&items, |&x| x.wrapping_mul(x) ^ 0xABCD), sequential);
    }

    #[test]
    fn chunked_claiming_stays_index_stable_at_every_thread_count() {
        // Large enough that chunk > 1 for small thread counts: with 4
        // threads and 8 chunks per thread, 4096 items → chunk 128.
        let items: Vec<u64> = (0..4096).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 2 + 1).collect();
        for threads in [2, 3, 4, 7, 16] {
            let out = par_map_with_threads(&items, threads, |&x| x * 2 + 1);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn every_item_is_claimed_exactly_once_under_chunking() {
        use std::sync::atomic::AtomicU64;
        let counters: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..1000).collect();
        par_map_with_threads(&items, 8, |&i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
