//! Parallel parameter sweeps.
//!
//! Most figures evaluate many independent (community, policy, parameter)
//! combinations; each combination is an independent simulation or analytic
//! solve, so they parallelise trivially across cores. The helper here uses
//! `std::thread::scope` so the closure can borrow from the caller without
//! `'static` bounds; no external thread-pool crate is needed.
//!
//! Determinism: [`parallel_map_with_workers`] only schedules work — each
//! cell's RNG seed is derived from stable identifiers (see
//! [`crate::runner`]), never from the execution order — so the parallel and
//! serial paths produce bit-identical results. With `RRP_THREADS=1`, everything runs serially on the calling
//! thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads the threaded path would use: `RRP_THREADS` if
/// set, otherwise the available parallelism.
///
/// # Panics
/// Panics if `RRP_THREADS` is set to anything but a positive integer,
/// naming the variable and the value, so a typo never runs a sweep at
/// another width.
pub fn worker_threads() -> usize {
    let threads = std::env::var_os("RRP_THREADS").map(|v| v.to_string_lossy().into_owned());
    parse_threads(threads.as_deref())
        .unwrap_or_else(|message| panic!("{message}"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
}

/// [`worker_threads`]' parsing, given the variable's value (`None` when
/// unset): the worker count it names, or `None` for the default.
fn parse_threads(threads: Option<&str>) -> Result<Option<usize>, String> {
    match threads.map(str::parse::<usize>) {
        None => Ok(None),
        Some(Ok(threads)) if threads > 0 => Ok(Some(threads)),
        Some(_) => Err(format!(
            "invalid RRP_THREADS {:?}: expected a positive integer",
            threads.unwrap_or_default()
        )),
    }
}

/// Apply `f` to every item, running up to `workers` items concurrently
/// (the figure drivers pass [`worker_threads`]), and return the results in
/// input order. `workers <= 1` runs serially on the calling thread, so
/// determinism tests can compare the serial and threaded paths directly.
pub fn parallel_map_with_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let result = f(&items[index]);
                results.lock().expect("sweep worker poisoned results")[index] = Some(result);
            });
        }
    });

    results
        .into_inner()
        .expect("sweep worker poisoned results")
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_with_workers(items, 4, |&x| x * x);
        assert_eq!(out.len(), 100);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = parallel_map_with_workers(items, 4, |&x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(counter.load(Ordering::SeqCst), 57);
        assert_eq!(out[56], 57);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map_with_workers(Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn closure_can_borrow_caller_state() {
        let offset = 10_u64;
        let out = parallel_map_with_workers(vec![1_u64, 2, 3], 4, |&x| x + offset);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn single_item_uses_sequential_path() {
        let out = parallel_map_with_workers(vec![41_u64], 4, |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn serial_and_threaded_paths_agree() {
        let items: Vec<u64> = (0..64).collect();
        let serial = parallel_map_with_workers(items.clone(), 1, |&x| x.wrapping_mul(x) ^ 7);
        let threaded = parallel_map_with_workers(items, 8, |&x| x.wrapping_mul(x) ^ 7);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn thread_counts_parse_in_their_valid_forms() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_threads(Some("64")), Ok(Some(64)));
    }

    #[test]
    fn malformed_thread_counts_are_refused_by_name_and_value() {
        for threads in ["abc", "-2", "4 ", "", "0", "1.5"] {
            let message = parse_threads(Some(threads)).unwrap_err();
            assert!(message.contains("RRP_THREADS"), "{message}");
            assert!(message.contains(&format!("{threads:?}")), "{message}");
        }
    }
}
