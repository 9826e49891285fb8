//! A minimal, vendored stand-in for the `rand` crate (offline build).
//!
//! Implements the subset of the `rand` 0.8 API this workspace uses:
//! [`RngCore`], [`SeedableRng`] (with the SplitMix64-based
//! `seed_from_u64`), the [`Rng`] extension trait (`gen`, `gen_range`,
//! `gen_bool`), [`seq::SliceRandom`] (Fisher–Yates `shuffle`, `choose`),
//! and [`rngs::StdRng`]. All generators are deterministic and portable;
//! none touch OS entropy.
//!
//! # Bulk words
//!
//! [`RngCore::fill_u64`] and [`CHUNK_WORDS`] are this crate's additions
//! to the upstream API. `fill_u64` fills a slice with exactly the words
//! that many `next_u64` calls would return, and leaves the generator
//! where they would. That word-stream invariant lets a caller draw in
//! bulk without moving any golden: the shuffle draws `CHUNK_WORDS` words
//! at a time while at least that many steps remain, so every drawn word
//! is consumed, in order. A block generator (`rand_chacha`) overrides
//! `fill_u64` to write whole blocks straight into the slice; everything
//! else keeps the default loop over `next_u64`.

/// The core of a random number generator (object safe).
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with exactly the words of `dest.len()` [`next_u64`]
    /// calls, in order, leaving the generator where those calls would.
    ///
    /// This is the word-stream invariant every override keeps: a caller
    /// may mix `fill_u64`, `next_u64` and `next_u32` freely and read the
    /// same words as with `next_u64` alone. A loop by default; a block
    /// generator overrides it to write whole blocks straight into `dest`.
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn fill_u64(&mut self, dest: &mut [u64]) {
        for word in dest {
            *word = self.next_u64();
        }
    }
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_u64(&mut self, dest: &mut [u64]) {
        (**self).fill_u64(dest)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl RngCore for Box<dyn RngCore> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_u64(&mut self, dest: &mut [u64]) {
        (**self).fill_u64(dest)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Words a bulk caller draws per [`RngCore::fill_u64`] call: a stack
/// chunk, drawn only while every word in it is certain to be consumed.
pub const CHUNK_WORDS: usize = 128;

/// A generator that can be instantiated from a fixed seed.
pub trait SeedableRng: Sized {
    /// Raw seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Build from the raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64` by expanding it with SplitMix64, as upstream
    /// `rand` does.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 step: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types that `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value from the generator.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision (as upstream).
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw a value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = uniform_u128(rng, span);
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let draw = uniform_u128(rng, span);
                (start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform draw in `[0, span)` by rejection sampling (span ≤ 2^64 here).
fn uniform_u128<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    match u64::try_from(span) {
        Ok(span) => uniform_below(span, || rng.next_u64()) as u128,
        // The one span past `u64` is 2^64, a power of two: a whole word.
        Err(_) => rng.next_u64() as u128,
    }
}

/// Uniform draw in `[0, span)` from the words `next` yields — the one
/// acceptance rule behind [`Rng::gen_range`] on integers and
/// [`SliceRandom::shuffle`](seq::SliceRandom::shuffle).
///
/// A power-of-two span takes one word, masked, and never rejects. Any
/// other span rejects the words in the top `2^64 mod span` values, and
/// each rejection consumes one more word. Everything runs in `u64`
/// arithmetic, since a software `u128` modulo would dominate a
/// Fisher–Yates shuffle: `2^64 mod span` is `((u64::MAX % span) + 1) %
/// span`, computed only for the rare draw in the top `span` values.
/// Draws, acceptance zone and outputs equal the all-`u128` formulation
/// (`uniform_draw_matches_u128_reference_formulation`).
#[inline(always)]
fn uniform_below(span: u64, mut next: impl FnMut() -> u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return next() & (span - 1);
    }
    loop {
        let draw = next();
        // The acceptance zone is [0, 2^64 - rem) with rem = 2^64 mod span,
        // and rem < span — so a draw at or below `u64::MAX - span` is
        // accepted for certain without computing the zone.
        if draw <= u64::MAX - span {
            return draw % span;
        }
        // `u64::MAX % span` is already in [0, span), so the outer
        // reduction is a branch rather than a division.
        let r = (u64::MAX % span) + 1;
        let rem = if r == span { 0 } else { r };
        if draw <= u64::MAX - rem {
            return draw % span;
        }
    }
}

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit = <$t as Standard>::draw(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let unit = <$t as Standard>::draw(rng);
                start + unit * (end - start)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Extension methods available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of type `T` from the standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draw uniformly from a range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        <f64 as Standard>::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Sequence-related helpers.
pub mod seq {
    use super::{uniform_below, Rng, RngCore, CHUNK_WORDS};

    /// Slice shuffling and random selection.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffle in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Pick one element uniformly, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        /// Draws its words in [`CHUNK_WORDS`] chunks through
        /// [`RngCore::fill_u64`] while at least that many steps remain:
        /// every step takes at least one word, so each chunk is consumed
        /// in full, and the shuffle reads exactly the words — and leaves
        /// the generator exactly where — one `gen_range(0..i + 1)` per
        /// step would.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            let mut words = [0u64; CHUNK_WORDS];
            let mut unread = 0..0;
            for i in (1..self.len()).rev() {
                let j = uniform_below(i as u64 + 1, || match unread.next() {
                    Some(w) => words[w],
                    None if i >= CHUNK_WORDS => {
                        rng.fill_u64(&mut words);
                        unread = 1..CHUNK_WORDS;
                        words[0]
                    }
                    None => rng.next_u64(),
                });
                self.swap(i, j as usize);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[gen_index(rng, self.len())])
            }
        }
    }

    fn gen_index<R: RngCore + ?Sized>(rng: &mut R, bound: usize) -> usize {
        rng.gen_range(0..bound)
    }
}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator (xoshiro256++ here; upstream's
    /// `StdRng` algorithm is explicitly unspecified).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // Never start from the all-zero state.
            if s == [0; 4] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xBB67_AE85_84CA_A73B,
                    0x3C6E_F372_FE94_F82B,
                ];
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn std_rng_is_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = rng.gen_range(3u64..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let z = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&z));
        }
    }

    #[test]
    fn uniform_draw_matches_u128_reference_formulation() {
        // The u64 fast path must reproduce the original all-u128 rejection
        // sampler draw for draw: same acceptance zone, same reduction.
        fn reference<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
            if span.is_power_of_two() {
                return (rng.next_u64() as u128) & (span - 1);
            }
            let zone = (u64::MAX as u128 + 1) - ((u64::MAX as u128 + 1) % span);
            loop {
                let draw = rng.next_u64() as u128;
                if draw < zone {
                    return draw % span;
                }
            }
        }
        for span in [1u128, 2, 3, 7, 10, 1 << 20, (1 << 20) + 1, u64::MAX as u128] {
            let mut a = StdRng::seed_from_u64(99);
            let mut b = StdRng::seed_from_u64(99);
            for _ in 0..2_000 {
                assert_eq!(
                    uniform_u128(&mut a, span),
                    reference(&mut b, span),
                    "span {span}"
                );
            }
            assert_eq!(a, b, "identical RNG stream consumption for span {span}");
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle virtually never is identity"
        );
    }

    #[test]
    fn works_through_dyn_rng_core() {
        let mut rng = StdRng::seed_from_u64(5);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let x: f64 = dyn_rng.gen();
        assert!((0.0..1.0).contains(&x));
        let mut v = [1u8, 2, 3];
        v.shuffle(dyn_rng);
        let i = dyn_rng.gen_range(0usize..3);
        assert!(i < 3);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
