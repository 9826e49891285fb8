//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-8.
//!
//! Every WAL record and every snapshot file carries one of these over its
//! content, so a flipped bit anywhere in a frame is detected at read time
//! instead of being folded into serving state. One function serves the
//! WAL frames, the snapshot envelope and recovery's verification, so a
//! snapshot's cost includes one pass of it over the whole payload.
//!
//! The update folds eight input bytes per step through eight 256-entry
//! tables: `TABLES[0]` is the classic bytewise table, and `TABLES[k][b]`
//! is the CRC state of byte `b` followed by `k` zero bytes, so the eight
//! lookups of one step are independent and XOR together into the state
//! the bytewise loop would reach after those eight bytes. The checksums
//! are the bytewise algorithm's, bit for bit; a tail shorter than eight
//! bytes runs bytewise. The tables are built at compile time; no external
//! crate is involved.

const POLYNOMIAL: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLYNOMIAL
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The checksum of one contiguous byte run.
pub fn crc32(bytes: &[u8]) -> u32 {
    finish(update(!0, bytes))
}

/// The checksum of several runs hashed as if concatenated — the record
/// path checks `seq ‖ payload` without materialising the join.
pub fn crc32_concat(parts: &[&[u8]]) -> u32 {
    let mut state = !0u32;
    for part in parts {
        state = update(state, part);
    }
    finish(state)
}

fn update(mut state: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = state ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

fn finish(state: u32) -> u32 {
    !state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise update over the classic table, one byte per lookup:
    /// the reference the sliced update must equal.
    fn bytewise_update(mut state: u32, bytes: &[u8]) -> u32 {
        for &byte in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
        }
        state
    }

    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        finish(bytewise_update(!0, bytes))
    }

    /// Arbitrary bytes, up to a few sliced words plus a tail.
    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..=255, 0..200)
    }

    #[test]
    fn matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn concat_equals_one_shot() {
        let whole = b"the quick brown fox";
        assert_eq!(crc32_concat(&[&whole[..9], &whole[9..]]), crc32(whole));
        assert_eq!(crc32_concat(&[whole, b""]), crc32(whole));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = crc32(b"abcdefgh");
        for i in 0..8 {
            for bit in 0..8u8 {
                let mut copy = *b"abcdefgh";
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        #[test]
        fn sliced_crc_equals_the_bytewise_reference(bytes in bytes()) {
            prop_assert_eq!(crc32(&bytes), bytewise_crc32(&bytes));
        }

        #[test]
        fn every_length_up_to_64_equals_the_bytewise_reference(
            data in prop::collection::vec(0u8..=255, 64..65),
            state in prop::num::u64::ANY,
        ) {
            // Every word-plus-tail split, from the initial state and from
            // an arbitrary mid-stream one.
            for len in 0..=64 {
                let bytes = &data[..len];
                prop_assert_eq!(crc32(bytes), bytewise_crc32(bytes), "length {}", len);
                let state = state as u32;
                prop_assert_eq!(
                    update(state, bytes),
                    bytewise_update(state, bytes),
                    "length {} from state {:#x}",
                    len,
                    state
                );
            }
        }

        #[test]
        fn concat_at_any_split_equals_the_bytewise_reference(
            bytes in bytes(),
            a in 0usize..=200,
            b in 0usize..=200,
        ) {
            let (a, b) = (a.min(bytes.len()), b.min(bytes.len()));
            let (a, b) = (a.min(b), a.max(b));
            let parts = [&bytes[..a], &bytes[a..b], &bytes[b..]];
            prop_assert_eq!(crc32_concat(&parts), bytewise_crc32(&bytes));
            prop_assert_eq!(crc32_concat(&parts[..2]), bytewise_crc32(&bytes[..b]));
        }
    }
}
