//! The deterministic sweep executor behind every figure driver.
//!
//! Each figure evaluates a grid of `(policy, community configuration,
//! parameter)` cells. Two properties must hold at once:
//!
//! 1. **Parallelism** — cells are independent simulations, so they should
//!    fan out across all cores ([`crate::sweep::parallel_map_with_workers`]).
//! 2. **Determinism** — the random stream a cell consumes must depend only
//!    on *what the cell is*, never on which worker ran it, how the grid was
//!    enumerated, or which other cells exist. Adding a grid point must not
//!    perturb the results of the others.
//!
//! [`SweepExecutor`] reconciles the two: every cell gets a human-readable
//! label (e.g. `"rule=Selective r=0.1"`), and its RNG stream is derived
//! from a stable FNV-1a hash of `(figure id, cell label)` finished with a
//! SplitMix64 mix. The label→stream map is a pure function, so the serial
//! and parallel paths — any worker count, any scheduling — produce
//! bit-identical figures.

use crate::sweep::{parallel_map_with_workers, worker_threads};
use rrp_model::splitmix64;

/// FNV-1a hash of a byte string (stable across platforms and releases).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Deterministic parallel executor for one figure's sweep grid.
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    figure: String,
    workers: usize,
}

impl SweepExecutor {
    /// Build an executor for the figure with the given identifier. The
    /// identifier participates in every cell's stream derivation, so two
    /// figures never share random streams even for identical cell labels.
    pub fn new(figure: impl Into<String>) -> Self {
        SweepExecutor {
            figure: figure.into(),
            workers: worker_threads(),
        }
    }

    /// Override the worker count (used by determinism tests; `1` forces the
    /// serial path).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The figure identifier.
    pub fn figure(&self) -> &str {
        &self.figure
    }

    /// The stable stream identifier for a cell label: a pure function of
    /// `(figure, label)`, independent of grid shape and execution order.
    /// Figure drivers pass this as the `stream` argument of
    /// [`crate::runners::simulate_qpc`] and friends.
    pub fn stream(&self, label: &str) -> u64 {
        splitmix64(fnv1a(self.figure.as_bytes()) ^ fnv1a(label.as_bytes()).rotate_left(31))
    }

    /// Run the sweep: `label` names each cell, `work` receives the cell and
    /// its derived stream identifier. Results come back in input order.
    ///
    /// Labels must be unique within one run — two cells with the same label
    /// would silently consume the *same* random stream, spuriously
    /// correlating their results, so every build panics on a duplicate (the
    /// check is O(cells) string hashing, negligible next to the sweeps). A
    /// cell that several curves genuinely share (e.g. a common `r = 0`
    /// baseline) should be swept once and reused by the caller.
    pub fn run<T, R, L, W>(&self, cells: Vec<T>, label: L, work: W) -> Vec<R>
    where
        T: Sync,
        R: Send,
        L: Fn(&T) -> String + Sync,
        W: Fn(&T, u64) -> R + Sync,
    {
        let mut seen = std::collections::HashSet::new();
        for cell in &cells {
            let cell_label = label(cell);
            assert!(
                seen.insert(cell_label.clone()),
                "sweep {:?}: duplicate cell label {cell_label:?} would reuse a random stream",
                self.figure
            );
        }
        parallel_map_with_workers(cells, self.workers, |cell| {
            work(cell, self.stream(&label(cell)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_figure_and_label() {
        let a = SweepExecutor::new("Figure 5");
        let b = SweepExecutor::new("Figure 5");
        assert_eq!(a.stream("r=0.1"), b.stream("r=0.1"));
        assert_ne!(a.stream("r=0.1"), a.stream("r=0.2"));
        assert_ne!(
            SweepExecutor::new("Figure 5").stream("r=0.1"),
            SweepExecutor::new("Figure 6").stream("r=0.1"),
            "figures must not share streams"
        );
    }

    #[test]
    fn streams_do_not_collide_across_a_realistic_grid() {
        let executor = SweepExecutor::new("Figure 6");
        let mut streams: Vec<u64> = Vec::new();
        for k in [1usize, 2, 6, 11, 21] {
            for r in 0..=10 {
                streams.push(executor.stream(&format!("k={k} r={}", r as f64 / 10.0)));
            }
        }
        let total = streams.len();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), total, "stream collision in a small grid");
    }

    #[test]
    fn run_hands_each_cell_its_label_stream() {
        let executor = SweepExecutor::new("Test figure").with_workers(3);
        let cells: Vec<u32> = (0..10).collect();
        let out = executor.run(cells, |c| format!("cell={c}"), |&c, stream| (c, stream));
        for &(c, stream) in &out {
            assert_eq!(stream, executor.stream(&format!("cell={c}")));
        }
    }

    #[test]
    fn serial_and_parallel_runs_are_identical() {
        let cells: Vec<u32> = (0..24).collect();
        let serial = SweepExecutor::new("Det check").with_workers(1).run(
            cells.clone(),
            |c| format!("c{c}"),
            |&c, s| s.wrapping_add(c as u64),
        );
        let parallel = SweepExecutor::new("Det check").with_workers(8).run(
            cells,
            |c| format!("c{c}"),
            |&c, s| s.wrapping_add(c as u64),
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn adding_a_cell_does_not_perturb_the_others() {
        let executor = SweepExecutor::new("Figure 5");
        let small = executor.run(vec![1u32, 2], |c| format!("c{c}"), |_, s| s);
        let large = executor.run(vec![1u32, 2, 3], |c| format!("c{c}"), |_, s| s);
        assert_eq!(small[..], large[..2]);
    }
}
