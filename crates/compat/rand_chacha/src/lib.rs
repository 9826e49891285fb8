//! Vendored ChaCha random number generators for the minimal `rand` facade.
//!
//! Implements the real ChaCha block function (D. J. Bernstein) with a
//! 64-bit block counter, exposed as [`ChaCha8Rng`], [`ChaCha12Rng`] and
//! [`ChaCha20Rng`]. Streams are deterministic, portable across platforms,
//! and independent of the upstream crate's exact output (nothing in this
//! workspace depends on upstream golden vectors — only on determinism).
//!
//! # Two paths to one word stream
//!
//! - `next_u32` / `next_u64` read a 32-word buffer that a refill fills
//!   with two blocks (one AVX2 pass where the CPU has it, else SSE2 or
//!   scalar). The workspace seeds a fresh generator per query and the
//!   lazy top-k reads only a few words, so a refill stays two blocks.
//! - `fill_u64` drains the buffer, then writes whole batches of eight
//!   blocks straight into the slice with a word-sliced AVX2 kernel
//!   (lane `i` computes block `counter + i`). A last partial batch goes
//!   through a scratch batch, and its block pair holding the next unread
//!   word stays buffered, so the generator's state — counter, buffer,
//!   index and [`ChaChaRng::get_word_pos`] — is exactly what the same
//!   number of `next_u64` calls leaves. On odd word alignment a `u64`
//!   straddles two blocks, and `fill_u64` falls back to `next_u64`.
//!
//! There is no AVX-512 kernel. A 16-block AVX-512 variant, prototyped
//! on the benchmark's 2-vCPU Xeon, lifted `mixed_10k` `queries_per_s`
//! by only +22% where an eight-block AVX2 kernel gave +47.5%; the
//! likely cause, lower clocks under AVX-512, was not verified.

use rand::{RngCore, SeedableRng};

/// `"expand 32-byte k"`, the ChaCha constant.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One four-lane vector of the 4×4 ChaCha state matrix.
type Row = [u32; 4];

#[inline(always)]
fn row_add(x: &mut Row, y: &Row) {
    for i in 0..4 {
        x[i] = x[i].wrapping_add(y[i]);
    }
}

#[inline(always)]
fn row_xor_rotl(x: &mut Row, y: &Row, r: u32) {
    for i in 0..4 {
        x[i] = (x[i] ^ y[i]).rotate_left(r);
    }
}

/// Four quarter-rounds applied lane-wise to the state rows — the standard
/// vectorised formulation of the ChaCha round, which LLVM turns into 4-lane
/// SIMD. Identical arithmetic (and therefore output) to applying
/// `quarter_round` to each column.
#[inline(always)]
fn four_quarter_rounds(a: &mut Row, b: &mut Row, c: &mut Row, d: &mut Row) {
    row_add(a, b);
    row_xor_rotl(d, a, 16);
    row_add(c, d);
    row_xor_rotl(b, c, 12);
    row_add(a, b);
    row_xor_rotl(d, a, 8);
    row_add(c, d);
    row_xor_rotl(b, c, 7);
}

/// Rotate a row's lanes left by `n` positions (diagonalisation shuffle).
#[inline(always)]
fn rotate_lanes<const N: usize>(row: &mut Row) {
    let copy = *row;
    for i in 0..4 {
        row[i] = copy[(i + N) % 4];
    }
}

/// Run `DOUBLE_ROUNDS` ChaCha double rounds over the state rows and apply
/// the feed-forward addition, returning the output block rows.
///
/// Portable scalar implementation; on x86_64 the SSE2 path below (always
/// available — SSE2 is in the x86_64 baseline) produces the identical
/// block ~2× faster. Both are pinned by the golden-vector tests.
#[inline(always)]
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn block_rows_scalar<const DOUBLE_ROUNDS: usize>(
    a0: Row,
    b0: Row,
    c0: Row,
    d0: Row,
) -> (Row, Row, Row, Row) {
    let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
    for _ in 0..DOUBLE_ROUNDS {
        // Column round: lanes are the columns.
        four_quarter_rounds(&mut a, &mut b, &mut c, &mut d);
        // Diagonalise so the lanes become the diagonals, apply the same
        // lane-wise quarter-rounds, and shuffle back — exactly the
        // QR(0,5,10,15) … QR(3,4,9,14) diagonal round.
        rotate_lanes::<1>(&mut b);
        rotate_lanes::<2>(&mut c);
        rotate_lanes::<3>(&mut d);
        four_quarter_rounds(&mut a, &mut b, &mut c, &mut d);
        rotate_lanes::<3>(&mut b);
        rotate_lanes::<2>(&mut c);
        rotate_lanes::<1>(&mut d);
    }
    row_add(&mut a, &a0);
    row_add(&mut b, &b0);
    row_add(&mut c, &c0);
    row_add(&mut d, &d0);
    (a, b, c, d)
}

/// SSE2 implementation of the ChaCha block: one XMM register per state
/// row, `pshufd` for the diagonalisation. Bit-identical to the scalar
/// formulation.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn block_rows<const DOUBLE_ROUNDS: usize>(
    a0: Row,
    b0: Row,
    c0: Row,
    d0: Row,
) -> (Row, Row, Row, Row) {
    use std::arch::x86_64::*;
    /// `x <<< r` lane-wise; the shift immediates must be literals because
    /// the intrinsics take const generics.
    macro_rules! rotl {
        ($x:expr, $r:literal) => {
            _mm_or_si128(_mm_slli_epi32::<$r>($x), _mm_srli_epi32::<{ 32 - $r }>($x))
        };
    }
    // SAFETY: SSE2 is unconditionally part of the x86_64 baseline target,
    // so these intrinsics are always available on this architecture.
    unsafe {
        #[inline(always)]
        unsafe fn load(row: &Row) -> __m128i {
            _mm_loadu_si128(row.as_ptr() as *const __m128i)
        }
        #[inline(always)]
        unsafe fn store(x: __m128i) -> Row {
            let mut row = [0u32; 4];
            _mm_storeu_si128(row.as_mut_ptr() as *mut __m128i, x);
            row
        }
        let (va0, vb0, vc0, vd0) = (load(&a0), load(&b0), load(&c0), load(&d0));
        let (mut a, mut b, mut c, mut d) = (va0, vb0, vc0, vd0);
        for _ in 0..DOUBLE_ROUNDS {
            // Column round.
            a = _mm_add_epi32(a, b);
            d = rotl!(_mm_xor_si128(d, a), 16);
            c = _mm_add_epi32(c, d);
            b = rotl!(_mm_xor_si128(b, c), 12);
            a = _mm_add_epi32(a, b);
            d = rotl!(_mm_xor_si128(d, a), 8);
            c = _mm_add_epi32(c, d);
            b = rotl!(_mm_xor_si128(b, c), 7);
            // Diagonalise (lanes left by 1/2/3), …
            b = _mm_shuffle_epi32::<0x39>(b);
            c = _mm_shuffle_epi32::<0x4E>(c);
            d = _mm_shuffle_epi32::<0x93>(d);
            // …diagonal round, …
            a = _mm_add_epi32(a, b);
            d = rotl!(_mm_xor_si128(d, a), 16);
            c = _mm_add_epi32(c, d);
            b = rotl!(_mm_xor_si128(b, c), 12);
            a = _mm_add_epi32(a, b);
            d = rotl!(_mm_xor_si128(d, a), 8);
            c = _mm_add_epi32(c, d);
            b = rotl!(_mm_xor_si128(b, c), 7);
            // …and shuffle back.
            b = _mm_shuffle_epi32::<0x93>(b);
            c = _mm_shuffle_epi32::<0x4E>(c);
            d = _mm_shuffle_epi32::<0x39>(d);
        }
        a = _mm_add_epi32(a, va0);
        b = _mm_add_epi32(b, vb0);
        c = _mm_add_epi32(c, vc0);
        d = _mm_add_epi32(d, vd0);
        (store(a), store(b), store(c), store(d))
    }
}

/// Non-x86_64 targets use the portable scalar block.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn block_rows<const DOUBLE_ROUNDS: usize>(
    a0: Row,
    b0: Row,
    c0: Row,
    d0: Row,
) -> (Row, Row, Row, Row) {
    block_rows_scalar::<DOUBLE_ROUNDS>(a0, b0, c0, d0)
}

/// Words buffered per refill: two ChaCha blocks, generated together so the
/// wide (AVX2) path can compute them in one pass. The word *stream* is
/// identical to generating one block at a time — block `t` then `t + 1`.
const BUFFER_WORDS: usize = 32;

/// Blocks per bulk batch: [`RngCore::fill_u64`] writes whole batches of
/// eight blocks straight into its destination.
const BATCH_BLOCKS: usize = 8;

/// `u64` words per bulk batch (eight 16-word blocks).
const BATCH_WORDS: usize = BATCH_BLOCKS * 8;

/// A ChaCha generator with `R/2` double rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaChaRng<const DOUBLE_ROUNDS: usize> {
    key: [u32; 8],
    /// Index of the next block to generate.
    counter: u64,
    nonce: [u32; 2],
    buffer: [u32; BUFFER_WORDS],
    /// Next unread word in `buffer`; `BUFFER_WORDS` means "refill".
    index: usize,
}

impl<const DOUBLE_ROUNDS: usize> ChaChaRng<DOUBLE_ROUNDS> {
    /// The input rows of block `counter`.
    fn input_rows(&self, counter: u64) -> (Row, Row, Row, Row) {
        (
            CONSTANTS,
            self.key[..4].try_into().expect("row"),
            self.key[4..].try_into().expect("row"),
            [
                counter as u32,
                (counter >> 32) as u32,
                self.nonce[0],
                self.nonce[1],
            ],
        )
    }

    fn refill(&mut self) {
        let (a0, b0, c0, d0) = self.input_rows(self.counter);
        let (_, _, _, d1) = self.input_rows(self.counter.wrapping_add(1));

        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: just checked that AVX2 is available.
            unsafe { block_pair_avx2::<DOUBLE_ROUNDS>(a0, b0, c0, d0, d1, &mut self.buffer) };
            self.counter = self.counter.wrapping_add(2);
            self.index = 0;
            return;
        }

        let (a, b, c, d) = block_rows::<DOUBLE_ROUNDS>(a0, b0, c0, d0);
        self.buffer[..4].copy_from_slice(&a);
        self.buffer[4..8].copy_from_slice(&b);
        self.buffer[8..12].copy_from_slice(&c);
        self.buffer[12..16].copy_from_slice(&d);
        let (a, b, c, d) = block_rows::<DOUBLE_ROUNDS>(a0, b0, c0, d1);
        self.buffer[16..20].copy_from_slice(&a);
        self.buffer[20..24].copy_from_slice(&b);
        self.buffer[24..28].copy_from_slice(&c);
        self.buffer[28..].copy_from_slice(&d);
        self.counter = self.counter.wrapping_add(2);
        self.index = 0;
    }

    /// The eight blocks `counter`, `counter + 1`, … `counter + 7`
    /// (wrapping) as `u64` words, each block's 16 words in stream order —
    /// the words eight two-block refills would buffer. The AVX2 kernel
    /// computes all eight at once where the CPU has it.
    fn batch(&self, counter: u64, out: &mut [u64; BATCH_WORDS]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: just checked that AVX2 is available.
            unsafe { blocks8_avx2::<DOUBLE_ROUNDS>(&self.key, self.nonce, counter, out) };
            return;
        }
        for (i, block) in out.chunks_exact_mut(8).enumerate() {
            let (a0, b0, c0, d0) = self.input_rows(counter.wrapping_add(i as u64));
            let (a, b, c, d) = block_rows::<DOUBLE_ROUNDS>(a0, b0, c0, d0);
            for (word, pair) in block
                .iter_mut()
                .zip([a, b, c, d].as_flattened().chunks_exact(2))
            {
                *word = pair[0] as u64 | (pair[1] as u64) << 32;
            }
        }
    }

    /// Buffer the two blocks whose `u64` words are `words`, as a refill
    /// would have.
    fn buffer_pair(&mut self, words: &[u64]) {
        for (pair, &word) in self.buffer.chunks_exact_mut(2).zip(words) {
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
    }

    /// Word stream position, for tests.
    pub fn get_word_pos(&self) -> u128 {
        // `counter` points past the buffered blocks; unread words remain.
        (self.counter as u128) * 16 - (BUFFER_WORDS - self.index) as u128
    }
}

/// Two ChaCha blocks in one pass: each YMM register holds a state row of
/// block 0 in its low 128 bits and of block 1 in its high 128 bits, so the
/// round function and the per-128-bit-lane `vpshufd` diagonalisation run
/// both blocks at once. Output is bit-identical to two `block_rows` calls.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_pair_avx2<const DOUBLE_ROUNDS: usize>(
    a0: Row,
    b0: Row,
    c0: Row,
    d0: Row,
    d1: Row,
    out: &mut [u32; BUFFER_WORDS],
) {
    use std::arch::x86_64::*;
    macro_rules! rotl {
        ($x:expr, $r:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$r>($x),
                _mm256_srli_epi32::<{ 32 - $r }>($x),
            )
        };
    }
    #[inline(always)]
    unsafe fn broadcast(row: &Row) -> __m256i {
        let lane = _mm_loadu_si128(row.as_ptr() as *const __m128i);
        _mm256_broadcastsi128_si256(lane)
    }
    let va0 = broadcast(&a0);
    let vb0 = broadcast(&b0);
    let vc0 = broadcast(&c0);
    // Low 128 bits: block 0's d row; high 128 bits: block 1's.
    let vd0 = _mm256_inserti128_si256::<1>(
        _mm256_castsi128_si256(_mm_loadu_si128(d0.as_ptr() as *const __m128i)),
        _mm_loadu_si128(d1.as_ptr() as *const __m128i),
    );
    let (mut a, mut b, mut c, mut d) = (va0, vb0, vc0, vd0);
    for _ in 0..DOUBLE_ROUNDS {
        // Column round.
        a = _mm256_add_epi32(a, b);
        d = rotl!(_mm256_xor_si256(d, a), 16);
        c = _mm256_add_epi32(c, d);
        b = rotl!(_mm256_xor_si256(b, c), 12);
        a = _mm256_add_epi32(a, b);
        d = rotl!(_mm256_xor_si256(d, a), 8);
        c = _mm256_add_epi32(c, d);
        b = rotl!(_mm256_xor_si256(b, c), 7);
        // Diagonalise (per 128-bit lane), …
        b = _mm256_shuffle_epi32::<0x39>(b);
        c = _mm256_shuffle_epi32::<0x4E>(c);
        d = _mm256_shuffle_epi32::<0x93>(d);
        // …diagonal round, …
        a = _mm256_add_epi32(a, b);
        d = rotl!(_mm256_xor_si256(d, a), 16);
        c = _mm256_add_epi32(c, d);
        b = rotl!(_mm256_xor_si256(b, c), 12);
        a = _mm256_add_epi32(a, b);
        d = rotl!(_mm256_xor_si256(d, a), 8);
        c = _mm256_add_epi32(c, d);
        b = rotl!(_mm256_xor_si256(b, c), 7);
        // …and shuffle back.
        b = _mm256_shuffle_epi32::<0x93>(b);
        c = _mm256_shuffle_epi32::<0x4E>(c);
        d = _mm256_shuffle_epi32::<0x39>(d);
    }
    a = _mm256_add_epi32(a, va0);
    b = _mm256_add_epi32(b, vb0);
    c = _mm256_add_epi32(c, vc0);
    d = _mm256_add_epi32(d, vd0);
    // Low lanes → block 0 (words 0..16), high lanes → block 1 (16..32).
    let ptr = out.as_mut_ptr();
    _mm_storeu_si128(ptr as *mut __m128i, _mm256_castsi256_si128(a));
    _mm_storeu_si128(ptr.add(4) as *mut __m128i, _mm256_castsi256_si128(b));
    _mm_storeu_si128(ptr.add(8) as *mut __m128i, _mm256_castsi256_si128(c));
    _mm_storeu_si128(ptr.add(12) as *mut __m128i, _mm256_castsi256_si128(d));
    _mm_storeu_si128(
        ptr.add(16) as *mut __m128i,
        _mm256_extracti128_si256::<1>(a),
    );
    _mm_storeu_si128(
        ptr.add(20) as *mut __m128i,
        _mm256_extracti128_si256::<1>(b),
    );
    _mm_storeu_si128(
        ptr.add(24) as *mut __m128i,
        _mm256_extracti128_si256::<1>(c),
    );
    _mm_storeu_si128(
        ptr.add(28) as *mut __m128i,
        _mm256_extracti128_si256::<1>(d),
    );
}

/// Eight ChaCha blocks in one pass, word-sliced: YMM register `x[w]`
/// holds state word `w` of all eight blocks, lane `i` computing block
/// `counter + i`, so the round function is the scalar one on vectors and
/// needs no diagonalisation shuffles. Two 8×8 transposes turn the
/// registers back into eight consecutive 16-word blocks. Output is
/// bit-identical to eight `block_rows` calls.
///
/// # Safety
///
/// The CPU must support AVX2. The stores stay inside `out`: its type
/// holds 64 words, the sixteen 32-byte stores at offsets `0..16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blocks8_avx2<const DOUBLE_ROUNDS: usize>(
    key: &[u32; 8],
    nonce: [u32; 2],
    counter: u64,
    out: &mut [u64; BATCH_WORDS],
) {
    use std::arch::x86_64::*;
    let splat = |word: u32| _mm256_set1_epi32(word as i32);
    let lanes = |word: fn(u64) -> u32| {
        let words: [u32; 8] = std::array::from_fn(|i| word(counter.wrapping_add(i as u64)));
        _mm256_loadu_si256(words.as_ptr() as *const __m256i)
    };
    let x0: [__m256i; 16] = [
        splat(CONSTANTS[0]),
        splat(CONSTANTS[1]),
        splat(CONSTANTS[2]),
        splat(CONSTANTS[3]),
        splat(key[0]),
        splat(key[1]),
        splat(key[2]),
        splat(key[3]),
        splat(key[4]),
        splat(key[5]),
        splat(key[6]),
        splat(key[7]),
        lanes(|c| c as u32),
        lanes(|c| (c >> 32) as u32),
        splat(nonce[0]),
        splat(nonce[1]),
    ];
    // Rotations by whole bytes are byte shuffles within each word.
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9,
        14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10,
        15, 12, 13, 14,
    );
    let mut x = x0;
    macro_rules! quarter_round {
        ($a:literal, $b:literal, $c:literal, $d:literal) => {
            x[$a] = _mm256_add_epi32(x[$a], x[$b]);
            x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot16);
            x[$c] = _mm256_add_epi32(x[$c], x[$d]);
            let t = _mm256_xor_si256(x[$b], x[$c]);
            x[$b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
            x[$a] = _mm256_add_epi32(x[$a], x[$b]);
            x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot8);
            x[$c] = _mm256_add_epi32(x[$c], x[$d]);
            let t = _mm256_xor_si256(x[$b], x[$c]);
            x[$b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
        };
    }
    for _ in 0..DOUBLE_ROUNDS {
        quarter_round!(0, 4, 8, 12);
        quarter_round!(1, 5, 9, 13);
        quarter_round!(2, 6, 10, 14);
        quarter_round!(3, 7, 11, 15);
        quarter_round!(0, 5, 10, 15);
        quarter_round!(1, 6, 11, 12);
        quarter_round!(2, 7, 8, 13);
        quarter_round!(3, 4, 9, 14);
    }
    for (word, input) in x.iter_mut().zip(x0) {
        *word = _mm256_add_epi32(*word, input);
    }
    // Transpose words 0..8 and 8..16 of the eight lanes; block `i`'s two
    // halves land at 256-bit offsets `2i` and `2i + 1` of `out`.
    let ptr = out.as_mut_ptr() as *mut __m256i;
    for (half, r) in x.chunks_exact(8).enumerate() {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // `u[j]` holds lanes j (low 128 bits) and j + 4 (high) of words
        // 0..4 for `j < 4`, of words 4..8 for `j ≥ 4`.
        let u = [
            _mm256_unpacklo_epi64(t0, t2),
            _mm256_unpackhi_epi64(t0, t2),
            _mm256_unpacklo_epi64(t1, t3),
            _mm256_unpackhi_epi64(t1, t3),
            _mm256_unpacklo_epi64(t4, t6),
            _mm256_unpackhi_epi64(t4, t6),
            _mm256_unpacklo_epi64(t5, t7),
            _mm256_unpackhi_epi64(t5, t7),
        ];
        // Offsets `2 * lane + half` and `2 * (lane + 4) + half` are below
        // 16, so every store stays inside `out`.
        for lane in 0..4 {
            let low = _mm256_permute2x128_si256::<0x20>(u[lane], u[lane + 4]);
            let high = _mm256_permute2x128_si256::<0x31>(u[lane], u[lane + 4]);
            _mm256_storeu_si256(ptr.add(2 * lane + half), low);
            _mm256_storeu_si256(ptr.add(2 * (lane + 4) + half), high);
        }
    }
}

impl<const DOUBLE_ROUNDS: usize> RngCore for ChaChaRng<DOUBLE_ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER_WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        // Fast path: both words are already buffered — one branch, two
        // loads. Falls back to word-at-a-time at buffer boundaries so the
        // word stream (and thus every consumer) is unchanged.
        if let [lo, hi, ..] = self.buffer[self.index.min(BUFFER_WORDS)..] {
            self.index += 2;
            return lo as u64 | ((hi as u64) << 32);
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Drains the buffered words, writes whole eight-block batches
    /// straight into `dest`, and takes a last partial batch through a
    /// scratch batch whose block pair holding the next unread word stays
    /// buffered. The generator ends in exactly the state `dest.len()`
    /// `next_u64` calls leave — counter, buffered pair and index — so
    /// [`get_word_pos`](ChaChaRng::get_word_pos) and equality agree too.
    /// On odd word alignment (after an odd number of `next_u32` calls) a
    /// `u64` straddles two blocks, and it falls back to `next_u64`.
    fn fill_u64(&mut self, dest: &mut [u64]) {
        if self.index % 2 == 1 {
            dest.iter_mut().for_each(|word| *word = self.next_u64());
            return;
        }
        let buffered = (BUFFER_WORDS - self.index) / 2;
        let (head, rest) = dest.split_at_mut(buffered.min(dest.len()));
        head.iter_mut().for_each(|word| *word = self.next_u64());
        let whole = rest.len() - rest.len() % BATCH_WORDS;
        let (batches, tail) = rest.split_at_mut(whole);
        for batch in batches.chunks_exact_mut(BATCH_WORDS) {
            self.batch(self.counter, batch.try_into().expect("batch"));
            self.counter = self.counter.wrapping_add(BATCH_BLOCKS as u64);
        }
        if tail.is_empty() {
            if let Some(pair) = batches.rchunks_exact(BUFFER_WORDS / 2).next() {
                self.buffer_pair(pair);
            }
            return;
        }
        let mut batch = [0u64; BATCH_WORDS];
        self.batch(self.counter, &mut batch);
        tail.copy_from_slice(&batch[..tail.len()]);
        // The pair of blocks holding the last word read stays buffered.
        let read = 2 * tail.len();
        let pair = (read - 1) / BUFFER_WORDS;
        self.buffer_pair(&batch[pair * BUFFER_WORDS / 2..][..BUFFER_WORDS / 2]);
        self.index = read - pair * BUFFER_WORDS;
        self.counter = self.counter.wrapping_add(2 * pair as u64 + 2);
    }
}

impl<const DOUBLE_ROUNDS: usize> SeedableRng for ChaChaRng<DOUBLE_ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaChaRng {
            key,
            counter: 0,
            nonce: [0, 0],
            buffer: [0; BUFFER_WORDS],
            index: BUFFER_WORDS,
        }
    }
}

/// ChaCha with 8 rounds: the fast statistically-strong choice.
pub type ChaCha8Rng = ChaChaRng<4>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<6>;
/// ChaCha with 20 rounds: the original cipher's round count.
pub type ChaCha20Rng = ChaChaRng<10>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn golden_vector_matches_scalar_reference() {
        // Recorded from the original scalar (per-column `quarter_round`)
        // implementation; the vectorised block function must reproduce it
        // exactly. These values are also pinned workspace-wide in
        // `tests/determinism.rs`.
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let observed: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            observed,
            vec![
                17369494502333954609,
                8906600561978300523,
                11016226833398420403,
                5554171481409164416,
            ]
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pair_matches_two_single_blocks() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = ChaCha20Rng::seed_from_u64(17);
        for _ in 0..100 {
            let mut row = || -> Row {
                [
                    rng.next_u32(),
                    rng.next_u32(),
                    rng.next_u32(),
                    rng.next_u32(),
                ]
            };
            let (a, b, c, d0) = (row(), row(), row(), row());
            let d1 = row();
            let mut pair = [0u32; BUFFER_WORDS];
            // SAFETY: AVX2 availability checked above.
            unsafe { block_pair_avx2::<4>(a, b, c, d0, d1, &mut pair) };
            let (ra, rb, rc, rd) = block_rows_scalar::<4>(a, b, c, d0);
            assert_eq!(&pair[..4], &ra);
            assert_eq!(&pair[4..8], &rb);
            assert_eq!(&pair[8..12], &rc);
            assert_eq!(&pair[12..16], &rd);
            let (ra, rb, rc, rd) = block_rows_scalar::<4>(a, b, c, d1);
            assert_eq!(&pair[16..20], &ra);
            assert_eq!(&pair[20..24], &rb);
            assert_eq!(&pair[24..28], &rc);
            assert_eq!(&pair[28..], &rd);
        }
    }

    /// The eight blocks from `counter` by the scalar reference, as words.
    fn scalar_batch<const DR: usize>(rng: &ChaChaRng<DR>, counter: u64) -> Vec<u64> {
        (0..BATCH_BLOCKS as u64)
            .flat_map(|i| {
                let (a, b, c, d) = rng.input_rows(counter.wrapping_add(i));
                let (a, b, c, d) = block_rows_scalar::<DR>(a, b, c, d);
                let words = [a, b, c, d].as_flattened().to_vec();
                (0..8).map(move |w| words[2 * w] as u64 | (words[2 * w + 1] as u64) << 32)
            })
            .collect()
    }

    /// Counters where a lane's low word wraps into the high one, and
    /// where the 64-bit counter itself wraps.
    const EDGE_COUNTERS: [u64; 8] = [
        0,
        1,
        (1 << 32) - 8,
        (1 << 32) - 5,
        (1 << 32) - 1,
        u64::MAX - 7,
        u64::MAX - 3,
        u64::MAX,
    ];

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn eight_block_kernel_matches_scalar_blocks() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU has no AVX2, so the eight-block kernel cannot run");
            return;
        }
        let mut keys = ChaCha20Rng::seed_from_u64(29);
        for round in 0..40 {
            let seed = keys.next_u64();
            let nonce = [keys.next_u32(), keys.next_u32()];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.nonce = nonce;
            let counter = EDGE_COUNTERS
                .get(round)
                .copied()
                .unwrap_or_else(|| keys.next_u64());
            let mut batch = [0u64; BATCH_WORDS];
            // SAFETY: AVX2 availability checked above.
            unsafe { blocks8_avx2::<4>(&rng.key, rng.nonce, counter, &mut batch) };
            assert_eq!(
                batch[..],
                scalar_batch(&rng, counter)[..],
                "counter {counter:#x}"
            );
            let mut wide = ChaCha20Rng::seed_from_u64(seed);
            wide.nonce = nonce;
            // SAFETY: AVX2 availability checked above.
            unsafe { blocks8_avx2::<10>(&wide.key, wide.nonce, counter, &mut batch) };
            assert_eq!(
                batch[..],
                scalar_batch(&wide, counter)[..],
                "counter {counter:#x}"
            );
        }
    }

    #[test]
    fn batches_match_scalar_blocks_on_every_path() {
        // `batch` dispatches to the kernel or to `block_rows`: either
        // must equal the scalar reference.
        let rng = ChaCha8Rng::seed_from_u64(31);
        let mut batch = [0u64; BATCH_WORDS];
        for counter in EDGE_COUNTERS {
            rng.batch(counter, &mut batch);
            assert_eq!(
                batch[..],
                scalar_batch(&rng, counter)[..],
                "counter {counter:#x}"
            );
        }
    }

    #[test]
    fn fill_u64_leaves_the_state_next_u64_would() {
        // Every fill length across several batches, from every even and
        // odd offset into the buffered pair: same words, same generator
        // state (counter, buffered pair and index), same word position.
        for skip in 0..36 {
            for len in 0..=3 * BATCH_WORDS + 17 {
                let mut filled = ChaCha8Rng::seed_from_u64(len as u64);
                for _ in 0..skip {
                    filled.next_u32();
                }
                let mut stepped = filled.clone();
                let mut words = vec![0; len];
                filled.fill_u64(&mut words);
                let expected: Vec<u64> = (0..len).map(|_| stepped.next_u64()).collect();
                assert_eq!(words, expected, "skip {skip}, len {len}");
                assert_eq!(filled, stepped, "skip {skip}, len {len}");
                assert_eq!(filled.get_word_pos(), stepped.get_word_pos());
                assert_eq!(filled.next_u64(), stepped.next_u64());
            }
        }
    }

    #[test]
    fn simd_and_scalar_blocks_agree() {
        // Exhaustively compare the dispatch path against the portable
        // scalar reference over many states.
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        for _ in 0..200 {
            let a: Row = [
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
            ];
            let b: Row = [
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
            ];
            let c: Row = [
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
            ];
            let d: Row = [
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
                rng.next_u32(),
            ];
            assert_eq!(
                block_rows::<4>(a, b, c, d),
                block_rows_scalar::<4>(a, b, c, d)
            );
            assert_eq!(
                block_rows::<10>(a, b, c, d),
                block_rows_scalar::<10>(a, b, c, d)
            );
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let equal = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 3);
    }

    #[test]
    fn blocks_differ() {
        // 16 words per block; consecutive blocks must not repeat.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let first: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first, second);
    }

    #[test]
    fn unit_floats_well_distributed() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn word_pos_advances() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let start = rng.get_word_pos();
        let _ = rng.next_u64();
        assert_eq!(rng.get_word_pos(), start + 2);
    }
}
