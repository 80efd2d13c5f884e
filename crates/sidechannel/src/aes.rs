//! From-scratch AES-128 with table-access tracing.
//!
//! The GPU AES timing attacks the paper revisits (Jiang et al., HPCA'16;
//! Section V-B1) exploit a T-table implementation: each round performs table
//! lookups whose *indices* depend on the state, and on a GPU the 32 threads
//! of a warp encrypt 32 blocks concurrently, so the number of **unique cache
//! lines** touched by the warp's last-round lookups determines the number of
//! memory transactions — and therefore the kernel's timing.
//!
//! This module implements standard AES-128 (FIPS-197) in software and, in
//! addition to ciphertexts, can report the trace of last-round S-box line
//! indices needed by the timing model and the attack. The implementation
//! exists to reproduce a published academic attack and evaluate the paper's
//! scheduling defense; it is not a hardened cryptographic library.

use serde::{Deserialize, Serialize};

/// The AES S-box (FIPS-197, Fig. 7).
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, computed from [`SBOX`].
pub fn inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    for (i, &s) in SBOX.iter().enumerate() {
        inv[s as usize] = i as u8;
    }
    inv
}

/// xtime: multiplication by x in GF(2^8) modulo the AES polynomial.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (if a & 0x80 != 0 { 0x1b } else { 0 })
}

/// The encryption T-table: entry `x` is SubBytes then MixColumns of a
/// column holding `SBOX[x]` in row 0 and zeros elsewhere, as a big-endian
/// column word `2·S, S, S, 3·S`. Row `r`'s table is this one rotated right
/// by `8·r` bits.
const TE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        t[x] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        x += 1;
    }
    t
};

/// A state's four columns as big-endian words, row 0 in the top byte.
fn columns(block: &[u8; 16]) -> [u32; 4] {
    core::array::from_fn(|c| u32::from_be_bytes(core::array::from_fn(|r| block[4 * c + r])))
}

/// Multiplication in GF(2^8).
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Bytes per S-box cache line on the GPU: a 128 B line holds 128 single-byte
/// entries of the final-round table... in the T-table layout each entry is
/// 4 B, so a line holds 32 entries. The attack literature uses 32-entry
/// granularity; we follow it.
pub const SBOX_ENTRIES_PER_LINE: u8 = 32;

/// Trace of one block encryption: the last-round S-box indices (one per state
/// byte), from which warp-level unique-line counts are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockTrace {
    /// Indices into the S-box used by the final round, per byte position.
    pub last_round_indices: [u8; 16],
}

impl BlockTrace {
    /// The cache-line ids touched by the final round.
    pub fn lines(&self) -> impl Iterator<Item = u8> + '_ {
        self.last_round_indices
            .iter()
            .map(|&i| i / SBOX_ENTRIES_PER_LINE)
    }
}

/// AES-128 with expanded round keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: [u8; 16]) -> Self {
        const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Self { round_keys }
    }

    /// The last round key (used by the attacker's hypothesis test).
    pub fn last_round_key(&self) -> [u8; 16] {
        self.round_keys[10]
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: byte (row r, col c) at index 4c + r.
        let mut out = [0u8; 16];
        for c in 0..4 {
            for r in 0..4 {
                out[4 * c + r] = state[4 * ((c + r) % 4) + r];
            }
        }
        *state = out;
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let mut out = [0u8; 16];
        for c in 0..4 {
            for r in 0..4 {
                // Inverse of ShiftRows: row r rotates right by r.
                out[4 * ((c + r) % 4) + r] = state[4 * c + r];
            }
        }
        *state = out;
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, plaintext: [u8; 16]) -> [u8; 16] {
        self.encrypt_block_traced(plaintext).0
    }

    /// Decrypts one 16-byte block (the inverse cipher of FIPS-197 §5.3).
    pub fn decrypt_block(&self, ciphertext: [u8; 16]) -> [u8; 16] {
        let inv = inv_sbox();
        let inv_sub = |state: &mut [u8; 16]| {
            for b in state.iter_mut() {
                *b = inv[*b as usize];
            }
        };
        let mut state = ciphertext;
        Self::add_round_key(&mut state, &self.round_keys[10]);
        Self::inv_shift_rows(&mut state);
        inv_sub(&mut state);
        for round in (1..10).rev() {
            Self::add_round_key(&mut state, &self.round_keys[round]);
            Self::inv_mix_columns(&mut state);
            Self::inv_shift_rows(&mut state);
            inv_sub(&mut state);
        }
        Self::add_round_key(&mut state, &self.round_keys[0]);
        state
    }

    /// Encrypts one block and reports the last-round table-access trace.
    ///
    /// Rounds 1–9 run on column words through [`TE`]: output column `c`
    /// takes row `r` from input column `c + r` (ShiftRows), and the four
    /// rotated lookups XOR into SubBytes + MixColumns of the column.
    pub fn encrypt_block_traced(&self, plaintext: [u8; 16]) -> ([u8; 16], BlockTrace) {
        let mut state = plaintext;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        let mut w = columns(&state);
        for rk in &self.round_keys[1..10] {
            let rk = columns(rk);
            let byte = |c: usize, r: usize| (w[(c + r) % 4] >> (24 - 8 * r)) as u8 as usize;
            w = core::array::from_fn(|c| {
                TE[byte(c, 0)]
                    ^ TE[byte(c, 1)].rotate_right(8)
                    ^ TE[byte(c, 2)].rotate_right(16)
                    ^ TE[byte(c, 3)].rotate_right(24)
                    ^ rk[c]
            });
        }
        for (c, word) in w.iter().enumerate() {
            state[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
        }
        self.final_round(state)
    }

    /// The last round on the state after round 9, with its trace: the table
    /// indices are the pre-SubBytes state bytes, which after the ShiftRows
    /// permutation feed the output positions.
    fn final_round(&self, mut state: [u8; 16]) -> ([u8; 16], BlockTrace) {
        let mut pre = state;
        Self::shift_rows(&mut pre);
        let trace = BlockTrace {
            last_round_indices: pre,
        };
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[10]);
        (state, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One byte-wise round (SubBytes, ShiftRows, MixColumns, AddRoundKey):
    /// the oracle for the T-table rounds.
    fn bytewise_round(state: &mut [u8; 16], rk: &[u8; 16]) {
        Aes128::sub_bytes(state);
        Aes128::shift_rows(state);
        for col in state.chunks_exact_mut(4) {
            let [a, b, c, d] = [col[0], col[1], col[2], col[3]];
            col[0] = gmul(a, 2) ^ gmul(b, 3) ^ c ^ d;
            col[1] = a ^ gmul(b, 2) ^ gmul(c, 3) ^ d;
            col[2] = a ^ b ^ gmul(c, 2) ^ gmul(d, 3);
            col[3] = gmul(a, 3) ^ b ^ c ^ gmul(d, 2);
        }
        Aes128::add_round_key(state, rk);
    }

    /// [`Aes128::encrypt_block_traced`] with byte-wise rounds 1–9.
    fn bytewise_encrypt_traced(aes: &Aes128, plaintext: [u8; 16]) -> ([u8; 16], BlockTrace) {
        let mut state = plaintext;
        Aes128::add_round_key(&mut state, &aes.round_keys[0]);
        for rk in &aes.round_keys[1..10] {
            bytewise_round(&mut state, rk);
        }
        aes.final_round(state)
    }

    #[test]
    fn t_table_rounds_match_the_bytewise_rounds() {
        let mut rng = StdRng::seed_from_u64(0x7e);
        for _ in 0..64 {
            let mut key = [0u8; 16];
            rng.fill(&mut key);
            let aes = Aes128::new(key);
            for _ in 0..64 {
                let mut pt = [0u8; 16];
                rng.fill(&mut pt);
                assert_eq!(
                    aes.encrypt_block_traced(pt),
                    bytewise_encrypt_traced(&aes, pt),
                    "key {key:02x?} block {pt:02x?}"
                );
            }
        }
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e...3c, plaintext 3243...34.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(key).encrypt_block(pt), expected);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(key).encrypt_block(pt), expected);
    }

    #[test]
    fn decrypt_inverts_encrypt_on_fips_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let aes = Aes128::new(key);
        assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
        // And on an arbitrary block with an arbitrary key.
        let aes = Aes128::new([0x5a; 16]);
        let block = [0xc3; 16];
        assert_eq!(aes.decrypt_block(aes.encrypt_block(block)), block);
    }

    #[test]
    fn trace_is_consistent_with_ciphertext() {
        // ciphertext byte = SBOX[index] ^ k10 at the same position.
        let key = [7u8; 16];
        let aes = Aes128::new(key);
        let (ct, trace) = aes.encrypt_block_traced([42u8; 16]);
        let k10 = aes.last_round_key();
        for i in 0..16 {
            assert_eq!(
                ct[i],
                SBOX[trace.last_round_indices[i] as usize] ^ k10[i],
                "position {i}"
            );
        }
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        let inv = inv_sbox();
        for b in 0..=255u8 {
            assert_eq!(inv[SBOX[b as usize] as usize], b);
        }
    }

    #[test]
    fn trace_lines_are_in_range() {
        let aes = Aes128::new([1u8; 16]);
        let (_, trace) = aes.encrypt_block_traced([9u8; 16]);
        for line in trace.lines() {
            assert!(line < 8, "256 entries / 32 per line = 8 lines");
        }
    }

    #[test]
    fn gf_multiplication_sanity() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }
}
