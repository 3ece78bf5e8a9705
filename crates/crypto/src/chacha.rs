//! The ChaCha20 block function and keystream generator (RFC 8439).
//!
//! ChaCha20 is used in two roles:
//!
//! * as the stream cipher that encrypts record payloads,
//! * as the pseudo-random function behind key derivation and MACs
//!   (see [`crate::prf`]), by treating the 64-byte output block keyed with a
//!   secret key and a structured nonce/counter as a PRF output.
//!
//! # One round function, four lanes
//!
//! The round code exists once, in `chacha20_lanes`, which computes `N`
//! independent blocks per call; [`chacha20_block`] is its one-lane call.
//! Record sealing and opening call it with four lanes, one record per lane.
//! The states are stored word-major (word `w` of every lane is contiguous),
//! and inside each double round the lane loop is the innermost loop.  In
//! that shape LLVM's loop vectorizer compiles the lane loop to one 128-bit
//! instruction per round operation (SSE2 `paddd`/`pxor`/`pslld`/`psrld`/
//! `por` at the x86-64 baseline, NEON on AArch64): about twice the scalar
//! block rate.  The ten double rounds stay a loop, so the four-lane kernel
//! is under 300 instructions and the one-lane kernel is the same size as a
//! plain scalar ChaCha20.  Writing all twenty rounds out inside the lane
//! loop vectorizes as well but is seven times larger, and the one-lane copy
//! of it ran no faster than the rolled scalar loop; the lane loop inside
//! each quarter-round, `[u32; 4]` helper operations, or the rolled rounds
//! inside the lane loop did not vectorize at all.
//!
//! There is no `unsafe`, `std::arch` intrinsic or AVX2 path on purpose.
//! Four lanes of `u32` fill the vector width every x86-64 and AArch64 CPU
//! has, so portable code reaches it with no target-feature flag and no
//! runtime CPU dispatch.  Wider lanes would need both, plus `unsafe`, and
//! this crate keeps `#![forbid(unsafe_code)]`.

/// Length of a ChaCha20 key in bytes.
pub const CHACHA_KEY_LEN: usize = 32;
/// Length of a ChaCha20 nonce in bytes (IETF variant).
pub const CHACHA_NONCE_LEN: usize = 12;
/// Length of one ChaCha20 output block in bytes.
pub const CHACHA_BLOCK_LEN: usize = 64;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks one batched kernel call computes: four `u32` lanes fill one
/// 128-bit vector register, the baseline vector width of x86-64 (SSE2) and
/// AArch64 (NEON).
pub(crate) const LANES: usize = 4;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(16);

    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(12);

    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(8);

    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(7);
}

#[inline(always)]
fn double_round(x: &mut [u32; 16]) {
    // Column rounds.
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    // Diagonal rounds.
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
}

/// Copies one word per lane into every lane of a word-major state.
#[inline(always)]
pub(crate) fn splat<const N: usize, const W: usize>(words: [u32; W]) -> [[u32; N]; W] {
    words.map(|word| [word; N])
}

/// The word-major RFC 8439 input states of `N` blocks (`state[w][lane]`):
/// constants, key, counter, nonce.
#[inline(always)]
pub(crate) fn lane_states<const N: usize>(
    key: [[u32; N]; 8],
    counter: u32,
    nonce: [[u32; N]; 3],
) -> [[u32; N]; 16] {
    let mut state = [[0u32; N]; 16];
    state[..4].copy_from_slice(&splat(CONSTANTS));
    state[4..12].copy_from_slice(&key);
    state[12] = [counter; N];
    state[13..].copy_from_slice(&nonce);
    state
}

/// Reads little-endian `u32` words from `bytes` (`bytes.len() == 4 * W`).
#[inline(always)]
pub(crate) fn le_words<const W: usize>(bytes: &[u8]) -> [u32; W] {
    std::array::from_fn(|i| {
        u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    })
}

/// Swaps the two axes of a word array: word-major (`words[w][lane]`) to
/// lane-major (`words[lane][w]`) and back.
#[inline(always)]
pub(crate) fn transpose<const A: usize, const B: usize>(words: [[u32; A]; B]) -> [[u32; B]; A] {
    std::array::from_fn(|a| std::array::from_fn(|b| words[b][a]))
}

/// Writes `words` into `out` as little-endian bytes, four per word.
#[inline(always)]
pub(crate) fn write_le_words(out: &mut [u8], words: impl IntoIterator<Item = u32>) {
    for (chunk, word) in out.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
}

/// Computes `N` independent ChaCha20 blocks, feed-forward included, from
/// word-major input states (`state[w][lane]`), returning word-major output.
///
/// This is the only copy of the round code; [`chacha20_block`] is its
/// one-lane call.  Inside each double round the lane loop is the innermost
/// loop and runs over contiguous words, so the loop vectorizer turns it
/// into one vector instruction per round operation across all lanes.
#[inline(never)]
pub(crate) fn chacha20_lanes<const N: usize>(state: &[[u32; N]; 16]) -> [[u32; N]; 16] {
    let mut x = *state;
    for _ in 0..10 {
        for lane in 0..N {
            let mut v: [u32; 16] = std::array::from_fn(|w| x[w][lane]);
            double_round(&mut v);
            for (words, v) in x.iter_mut().zip(v) {
                words[lane] = v;
            }
        }
    }
    for (words, input) in x.iter_mut().zip(state) {
        for (word, input) in words.iter_mut().zip(input) {
            *word = word.wrapping_add(*input);
        }
    }
    x
}

/// Computes one 64-byte ChaCha20 block for the given key, block counter and nonce.
pub fn chacha20_block(
    key: &[u8; CHACHA_KEY_LEN],
    counter: u32,
    nonce: &[u8; CHACHA_NONCE_LEN],
) -> [u8; CHACHA_BLOCK_LEN] {
    let state = lane_states::<1>(splat(le_words(key)), counter, splat(le_words(nonce)));
    let mut out = [0u8; CHACHA_BLOCK_LEN];
    write_le_words(&mut out, chacha20_lanes(&state).map(|[word]| word));
    out
}

/// A ChaCha20 cipher instance bound to one key.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u8; CHACHA_KEY_LEN],
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("ChaCha20")
            .field("key", &"<redacted>")
            .finish()
    }
}

impl ChaCha20 {
    /// Creates a cipher for the given 256-bit key.
    pub fn new(key: [u8; CHACHA_KEY_LEN]) -> Self {
        Self { key }
    }

    /// Keystream block `counter` under `N` nonces at once, one per kernel
    /// lane, word-major (`nonces[w][lane]` in, `block[w][lane]` out).
    #[inline(always)]
    pub(crate) fn keystream_lanes<const N: usize>(
        &self,
        counter: u32,
        nonces: [[u32; N]; 3],
    ) -> [[u32; N]; 16] {
        chacha20_lanes(&lane_states(splat(le_words(&self.key)), counter, nonces))
    }

    /// Returns a keystream starting at block `initial_counter` for `nonce`.
    pub fn keystream(&self, nonce: [u8; CHACHA_NONCE_LEN], initial_counter: u32) -> Keystream {
        Keystream {
            key: self.key,
            nonce,
            counter: initial_counter,
            block: [0u8; CHACHA_BLOCK_LEN],
            offset: CHACHA_BLOCK_LEN, // force generation on first use
        }
    }

    /// Encrypts or decrypts `data` in place (XOR with the keystream).
    ///
    /// The operation is an involution: applying it twice with the same key,
    /// nonce and counter restores the original bytes.
    pub fn apply(&self, nonce: [u8; CHACHA_NONCE_LEN], initial_counter: u32, data: &mut [u8]) {
        let mut ks = self.keystream(nonce, initial_counter);
        ks.xor_into(data);
    }

    /// Convenience wrapper that copies `data` and returns the transformed bytes.
    pub fn apply_copy(
        &self,
        nonce: [u8; CHACHA_NONCE_LEN],
        initial_counter: u32,
        data: &[u8],
    ) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(nonce, initial_counter, &mut out);
        out
    }
}

/// A lazily generated ChaCha20 keystream.
pub struct Keystream {
    key: [u8; CHACHA_KEY_LEN],
    nonce: [u8; CHACHA_NONCE_LEN],
    counter: u32,
    block: [u8; CHACHA_BLOCK_LEN],
    offset: usize,
}

impl Keystream {
    /// Returns the next keystream byte.
    pub fn next_byte(&mut self) -> u8 {
        if self.offset >= CHACHA_BLOCK_LEN {
            self.block = chacha20_block(&self.key, self.counter, &self.nonce);
            self.counter = self.counter.wrapping_add(1);
            self.offset = 0;
        }
        let b = self.block[self.offset];
        self.offset += 1;
        b
    }

    /// XORs the keystream into `data`.
    ///
    /// Keystream bytes are consumed in exactly the same order as repeated
    /// [`Keystream::next_byte`] calls, but whole 64-byte spans are generated
    /// directly and XORed block-at-a-time instead of staging every byte
    /// through the buffered single-byte path.
    pub fn xor_into(&mut self, data: &mut [u8]) {
        let mut i = 0usize;
        // Drain the partially consumed buffered block first.
        while self.offset < CHACHA_BLOCK_LEN && i < data.len() {
            data[i] ^= self.block[self.offset];
            self.offset += 1;
            i += 1;
        }
        // Whole blocks, generated straight into the XOR.
        while data.len() - i >= CHACHA_BLOCK_LEN {
            let block = chacha20_block(&self.key, self.counter, &self.nonce);
            self.counter = self.counter.wrapping_add(1);
            for (byte, key) in data[i..i + CHACHA_BLOCK_LEN].iter_mut().zip(&block) {
                *byte ^= key;
            }
            i += CHACHA_BLOCK_LEN;
        }
        // Tail (shorter than one block) through the buffered path so a later
        // call continues mid-block correctly.
        for byte in data[i..].iter_mut() {
            *byte ^= self.next_byte();
        }
    }

    /// Fills `out` with raw keystream bytes (used by the PRF).
    pub fn fill(&mut self, out: &mut [u8]) {
        // Zero the destination and reuse the block-wise XOR: x ^ 0 = x.
        out.fill(0);
        self.xor_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_key() -> [u8; CHACHA_KEY_LEN] {
        let mut key = [0u8; CHACHA_KEY_LEN];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = i as u8;
        }
        key
    }

    #[test]
    fn rfc8439_block_function_test_vector() {
        // RFC 8439 §2.3.2: key = 00..1f, nonce = 000000090000004a00000000, counter = 1.
        let key = rfc_key();
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let block = chacha20_block(&key, 1, &nonce);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    #[test]
    fn every_lane_computes_the_rfc8439_block_vector() {
        // RFC 8439 §2.3.2 in lane `position`, unrelated inputs in the other
        // lanes: each lane's output depends on its own input only.
        let key = rfc_key();
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let expected = chacha20_block(&key, 1, &nonce);
        for position in 0..LANES {
            let mut keys = [[0u8; CHACHA_KEY_LEN]; LANES];
            let mut nonces = [[0u8; CHACHA_NONCE_LEN]; LANES];
            for lane in 0..LANES {
                keys[lane] = [0x40 + lane as u8; CHACHA_KEY_LEN];
                nonces[lane] = [0x70 + lane as u8; CHACHA_NONCE_LEN];
            }
            keys[position] = key;
            nonces[position] = nonce;
            let mut state = lane_states::<LANES>([[0; LANES]; 8], 1, [[0; LANES]; 3]);
            for lane in 0..LANES {
                let key: [u32; 8] = le_words(&keys[lane]);
                let nonce: [u32; 3] = le_words(&nonces[lane]);
                for w in 0..8 {
                    state[4 + w][lane] = key[w];
                }
                for w in 0..3 {
                    state[13 + w][lane] = nonce[w];
                }
            }
            let out = chacha20_lanes(&state);
            for lane in 0..LANES {
                let mut block = [0u8; CHACHA_BLOCK_LEN];
                write_le_words(&mut block, out.map(|words| words[lane]));
                assert_eq!(
                    block,
                    chacha20_block(&keys[lane], 1, &nonces[lane]),
                    "lane {lane}"
                );
                if lane == position {
                    assert_eq!(block, expected, "RFC vector in lane {lane}");
                }
            }
        }
    }

    #[test]
    fn rfc8439_quarter_round_test_vector() {
        // RFC 8439 §2.1.1.
        let mut state = [0u32; 16];
        state[0] = 0x1111_1111;
        state[1] = 0x0102_0304;
        state[2] = 0x9b8d_6f43;
        state[3] = 0x0123_4567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a_92f4);
        assert_eq!(state[1], 0xcb1c_f8ce);
        assert_eq!(state[2], 0x4581_472e);
        assert_eq!(state[3], 0x5881_c4bb);
    }

    #[test]
    fn rfc8439_encryption_test_vector() {
        // RFC 8439 §2.4.2 ("sunscreen" plaintext), counter starts at 1.
        let key = rfc_key();
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let cipher = ChaCha20::new(key);
        let ct = cipher.apply_copy(nonce, 1, plaintext);
        let expected_prefix: [u8; 16] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81,
        ];
        assert_eq!(&ct[..16], &expected_prefix);
        // Round trip back to the plaintext.
        let pt = cipher.apply_copy(nonce, 1, &ct);
        assert_eq!(&pt, plaintext);
    }

    #[test]
    fn apply_is_an_involution() {
        let cipher = ChaCha20::new([7u8; 32]);
        let nonce = [3u8; 12];
        let mut data = vec![0u8; 1000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let original = data.clone();
        cipher.apply(nonce, 0, &mut data);
        assert_ne!(data, original);
        cipher.apply(nonce, 0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_give_unrelated_keystreams() {
        let cipher = ChaCha20::new([9u8; 32]);
        let a = cipher.apply_copy([0u8; 12], 0, &[0u8; 64]);
        let b = cipher.apply_copy([1u8; 12], 0, &[0u8; 64]);
        assert_ne!(a, b);
        let matching = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(
            matching < 10,
            "keystreams overlap suspiciously: {matching}/64"
        );
    }

    #[test]
    fn different_counters_give_unrelated_blocks() {
        let key = [5u8; 32];
        let nonce = [1u8; 12];
        let b0 = chacha20_block(&key, 0, &nonce);
        let b1 = chacha20_block(&key, 1, &nonce);
        assert_ne!(b0, b1);
    }

    #[test]
    fn keystream_is_deterministic_and_continuable() {
        let cipher = ChaCha20::new([42u8; 32]);
        let nonce = [6u8; 12];
        let mut ks = cipher.keystream(nonce, 0);
        let mut first = [0u8; 100];
        ks.fill(&mut first);
        // Regenerating from scratch yields the same 100 bytes.
        let mut ks2 = cipher.keystream(nonce, 0);
        let mut again = [0u8; 100];
        ks2.fill(&mut again);
        assert_eq!(first, again);
        // Continuing the first stream does not repeat.
        let mut next = [0u8; 100];
        ks.fill(&mut next);
        assert_ne!(first, next);
    }

    #[test]
    fn keystream_bytes_look_balanced() {
        // A crude statistical sanity check: roughly half the bits are set.
        let cipher = ChaCha20::new([1u8; 32]);
        let mut ks = cipher.keystream([0u8; 12], 0);
        let mut buf = vec![0u8; 1 << 16];
        ks.fill(&mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        let total_bits = (buf.len() * 8) as f64;
        let frac = f64::from(ones) / total_bits;
        assert!((frac - 0.5).abs() < 0.01, "bit balance {frac}");
    }

    #[test]
    fn debug_never_reveals_key() {
        let cipher = ChaCha20::new([0xAB; 32]);
        let rendered = format!("{cipher:?}");
        assert!(rendered.contains("redacted"));
        assert!(!rendered.contains("171")); // 0xAB as decimal
    }
}
