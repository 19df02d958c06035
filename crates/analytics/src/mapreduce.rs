//! A thread-pool map over partitions — the Spark-skeleton substitute —
//! plus [`ShardPool`], the persistent, addressed worker pool backing
//! the sharded consumer runtime (`corsaro::runtime`).
//!
//! [`par_map`] spawns scoped threads per call, which is fine for
//! coarse batch jobs but too expensive for a runtime delivering many
//! record batches per second. [`ShardPool`] keeps its workers alive
//! for the pool's lifetime: each worker owns private mutable state
//! (built once by an `init` closure) and drains its own **bounded**
//! queue, so a slow worker exerts backpressure on the producer instead
//! of letting queues grow without limit.
//!
//! `ShardPool` itself now lives in [`bsync::pool`] (it is built
//! entirely from facade primitives, and `mrt::par` needs it below this
//! crate in the dependency graph); it is re-exported here unchanged.

use bsync::channel;
/// Re-export: the pool moved to `bsync` so `mrt::par` can reuse it.
pub use bsync::pool::ShardPool;

/// Map `f` over `items` on `workers` threads, preserving input order
/// in the output. Panics in `f` propagate.
pub fn par_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let (task_tx, task_rx) = channel::unbounded::<(usize, T)>();
    let (res_tx, res_rx) = channel::unbounded::<(usize, R)>();
    for pair in items.into_iter().enumerate() {
        // xcheck:allow(unwrap) — task_rx is still alive in this scope
        task_tx.send(pair).expect("queue open");
    }
    drop(task_tx);
    // A panic in `f` ends its worker; `thread::scope` re-raises it
    // here once every worker has joined.
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let task_rx = task_rx.clone();
            let res_tx = res_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok((idx, item)) = task_rx.recv() {
                    let out = f(item);
                    if res_tx.send((idx, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
    });
    let mut results: Vec<(usize, R)> = res_rx.iter().collect();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect(), 8, |x: u64| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_works() {
        let out = par_map(vec![3, 1, 2], 1, |x: i32| x + 1);
        assert_eq!(out, vec![4, 2, 3]);
    }

    #[test]
    fn more_workers_than_items() {
        let out = par_map(vec![1, 2], 16, |x: i32| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn shard_pool_reexport_still_resolves() {
        // The pool's own unit + model tests live in bsync now; this
        // pins the back-compat path `analytics::ShardPool`.
        let pool: ShardPool<u32> = ShardPool::spawn(1, 1, |_| (), |_, _, _| {});
        assert_eq!(pool.workers(), 1);
        pool.join();
    }
}
