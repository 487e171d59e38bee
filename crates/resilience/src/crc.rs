//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) used by the v2
//! checkpoint trailer. Implemented here so checkpoint integrity needs no
//! external crate.
//!
//! [`crc32`] folds eight bytes per step through eight 256-entry tables
//! (slicing-by-8); the bytewise loop finishes the last `len % 8` bytes.
//! Both compute the same CRC, and on checkpoint-sized buffers the sliced
//! loop runs 4–7× as fast (`benches/checkpoint_io.rs`).

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `TABLES[0]` is the bytewise table; `TABLES[k][i]` is `TABLES[0][i]`
/// carried through `k` more zero bytes. So the byte `k` places before the
/// end of an 8-byte word is folded in by one lookup in `TABLES[k]`.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [build_table(); 8];
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

/// CRC-32 of `bytes` (same value `cksum`-style tools report for the IEEE
/// polynomial with reflected input/output and final inversion).
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t7[lo as u8 as usize]
            ^ t6[(lo >> 8) as u8 as usize]
            ^ t5[(lo >> 16) as u8 as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[w[4] as usize]
            ^ t2[w[5] as usize]
            ^ t1[w[6] as usize]
            ^ t0[w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[(crc as u8 ^ b) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use proptest::prelude::*;

    /// The plain bytewise loop over the one 256-entry table.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"spikefolio-checkpoint payload 0123456789abcdef".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn detects_truncation() {
        let data = vec![0x5Au8; 512];
        let base = crc32(&data);
        for cut in [0, 1, 255, 511] {
            assert_ne!(crc32(&data[..cut]), base);
        }
    }

    #[test]
    fn matches_bytewise_at_every_short_length_and_alignment() {
        let data: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start}, len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_bytewise_on_random_buffers(
            words in proptest::collection::vec(0u32..256, 0..=65_536),
        ) {
            let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            prop_assert_eq!(crc32(&bytes), bytewise(&bytes));
        }
    }
}
