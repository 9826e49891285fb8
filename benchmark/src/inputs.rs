//! Seeded input generation: the corpus, the mutation stream and the query
//! contexts. The same seed always yields the same inputs; the program under
//! test only ever sees the generated values.

use rrp_core::{Document, QueryContext};
use rrp_model::{splitmix64, PowerLawQuality, QualityDistribution};

/// A small deterministic generator (SplitMix64 over a counter), kept local
/// so the inputs never depend on the workspace's RNG stream choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Whether the corpus generated this page unexplored (ids `0, 10, 20, …`;
/// the corpus size is a multiple of 10, so `id + 1` always exists).
fn is_pool_page(id: u64) -> bool {
    id.is_multiple_of(10)
}

/// `n` documents with ids `0..n`: every 10th one unexplored, the rest with
/// power-law popularity (the paper's quality law) and ages up to a year.
pub fn corpus(n: u64, seed: u64) -> Vec<Document> {
    let law = PowerLawQuality::paper_default();
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|i| {
            let u = rng.unit();
            if is_pool_page(i) {
                Document::unexplored(i)
            } else {
                Document::established(i, law.quantile(u).value()).with_age(i % 365)
            }
        })
        .collect()
}

/// One mutation, addressed by store sequence (= document id here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    Visit(u64),
    SetPopularity(u64, f64),
}

/// How mutation targets are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Targets {
    Uniform,
    /// Zipf with exponent 1 over a seed-drawn permutation of the corpus,
    /// with every 8th mutation a flash-crowd jump above the current maximum
    /// popularity.
    ZipfWithJumps,
}

/// The mutation stream: visits and popularity updates alternate; under
/// [`Targets::ZipfWithJumps`] every 8th mutation is a jump instead.
///
/// Visits land on explored pages only (a target in the promotion pool
/// moves to its neighbour): a visit to an unexplored page would drain the
/// pool for good, since no mutation refills it, and the work per round
/// would then fall over the run, making a run's cost depend on its length.
#[derive(Debug, Clone)]
pub struct MutationStream {
    rng: Rng,
    n: u64,
    /// Zipf CDF over ranks and the rank → sequence permutation.
    zipf: Option<(Vec<f64>, Vec<u64>)>,
    law: PowerLawQuality,
    max_popularity: f64,
    issued: u64,
}

const JUMP_EVERY: u64 = 8;

impl MutationStream {
    pub fn new(corpus: &[Document], targets: Targets, seed: u64) -> Self {
        let n = corpus.len() as u64;
        let mut rng = Rng::new(seed, 2);
        let zipf = (targets == Targets::ZipfWithJumps).then(|| {
            let mut cdf = Vec::with_capacity(n as usize);
            let mut total = 0.0;
            for rank in 1..=n {
                total += 1.0 / rank as f64;
                cdf.push(total);
            }
            cdf.iter_mut().for_each(|c| *c /= total);
            let mut perm: Vec<u64> = (0..n).collect();
            for i in (1..perm.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                perm.swap(i, j);
            }
            (cdf, perm)
        });
        let max_popularity = corpus.iter().map(|d| d.popularity).fold(0.0, f64::max);
        MutationStream {
            rng,
            n,
            zipf,
            law: PowerLawQuality::paper_default(),
            max_popularity,
            issued: 0,
        }
    }

    fn target(&mut self) -> u64 {
        match &self.zipf {
            None => self.rng.below(self.n),
            Some((cdf, perm)) => {
                let u = self.rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                perm[rank]
            }
        }
    }

    pub fn next_mutation(&mut self) -> Mutation {
        let index = self.issued;
        self.issued += 1;
        let seq = self.target();
        if self.zipf.is_some() && index % JUMP_EVERY == JUMP_EVERY - 1 {
            self.max_popularity += 0.001 + 0.01 * self.rng.unit();
            return Mutation::SetPopularity(seq, self.max_popularity);
        }
        if index.is_multiple_of(2) {
            Mutation::Visit(if is_pool_page(seq) { seq + 1 } else { seq })
        } else {
            Mutation::SetPopularity(seq, self.law.quantile(self.rng.unit()).value())
        }
    }

    /// Fill `out` with the next `count` mutations.
    pub fn fill(&mut self, count: usize, out: &mut Vec<Mutation>) {
        out.clear();
        out.extend((0..count).map(|_| self.next_mutation()));
    }
}

/// The query stream: fresh `(query, session)` hashes per read.
#[derive(Debug, Clone)]
pub struct QueryStream(Rng);

impl QueryStream {
    pub fn new(seed: u64) -> Self {
        QueryStream(Rng::new(seed, 3))
    }

    pub fn fill(&mut self, count: usize, out: &mut Vec<QueryContext>) {
        out.clear();
        out.extend((0..count).map(|_| QueryContext::new(self.0.next_u64(), self.0.next_u64())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = corpus(500, 7);
        assert_eq!(a, corpus(500, 7));
        assert_ne!(a, corpus(500, 8));
        for targets in [Targets::Uniform, Targets::ZipfWithJumps] {
            let (mut x, mut y) = (
                MutationStream::new(&a, targets, 7),
                MutationStream::new(&a, targets, 7),
            );
            for _ in 0..200 {
                assert_eq!(x.next_mutation(), y.next_mutation());
            }
        }
    }

    #[test]
    fn jumps_climb_above_every_popularity() {
        let docs = corpus(1_000, 3);
        let max = docs.iter().map(|d| d.popularity).fold(0.0, f64::max);
        let mut stream = MutationStream::new(&docs, Targets::ZipfWithJumps, 3);
        let jumps: Vec<f64> = (0..64)
            .filter_map(|_| match stream.next_mutation() {
                Mutation::SetPopularity(_, p) if p > max => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(jumps.len(), 8);
        assert!(jumps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn visits_never_explore_pool_pages() {
        let docs = corpus(1_000, 4);
        for targets in [Targets::Uniform, Targets::ZipfWithJumps] {
            let mut stream = MutationStream::new(&docs, targets, 4);
            for _ in 0..5_000 {
                if let Mutation::Visit(seq) = stream.next_mutation() {
                    assert!(!docs[seq as usize].is_unexplored);
                }
            }
        }
    }
}
