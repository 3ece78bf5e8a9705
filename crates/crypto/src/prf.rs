//! A keyed pseudo-random function and a PRF-based MAC built on ChaCha20.
//!
//! The record-encryption layer needs two keyed primitives besides the stream
//! cipher itself:
//!
//! * a **PRF** used for key derivation and for deriving per-record nonces from
//!   a monotone record sequence number (so the owner never reuses a nonce),
//! * a **MAC** so that a malicious storage layer cannot silently corrupt
//!   ciphertexts without detection (DP-Sync assumes a semi-honest server, but
//!   integrity protection is cheap and standard for encrypted databases).
//!
//! Both are built from the ChaCha20 block function used as a compression
//! function in a Davies–Meyer / Merkle–Damgård arrangement: the chaining
//! value is XORed with each 32-byte message block to key the block function,
//! and the output is fed forward.  The PRF key is absorbed as the first
//! block (secret-prefix keying) and the message is length-prefixed, which
//! removes the classic extension ambiguity for variable-length inputs.

use crate::chacha::{
    chacha20_lanes, lane_states, le_words, splat, transpose, write_le_words, CHACHA_KEY_LEN,
    CHACHA_NONCE_LEN,
};

/// Output length of the PRF in bytes.
pub const PRF_OUTPUT_LEN: usize = 32;
/// Output length of the MAC tag in bytes.
pub const MAC_TAG_LEN: usize = 16;

/// Fixed domain-separation nonce for the PRF's internal compression calls.
const PRF_DOMAIN_NONCE: [u8; CHACHA_NONCE_LEN] = *b"dpsync-prf/1";

/// Davies–Meyer compression of `N` independent lanes at once, word-major
/// (`cv[w][lane]`): key the ChaCha20 block function with `cv XOR block`,
/// run it with `counter` as the position index, and feed the keying
/// material forward into the output.
#[inline(always)]
fn compress_lanes<const N: usize>(
    cv: &[[u32; N]; 8],
    block: &[[u32; N]; 8],
    counter: u32,
) -> [[u32; N]; 8] {
    let key = xor_words(*cv, block);
    let out = chacha20_lanes(&lane_states(
        key,
        counter,
        splat(le_words(&PRF_DOMAIN_NONCE)),
    ));
    xor_words(key, &out[..8].try_into().expect("8 words"))
}

/// Lane-wise XOR of two word-major arrays.
#[inline(always)]
fn xor_words<const N: usize>(mut a: [[u32; N]; 8], b: &[[u32; N]; 8]) -> [[u32; N]; 8] {
    for (a, b) in a.iter_mut().zip(b) {
        for (a, b) in a.iter_mut().zip(b) {
            *a ^= b;
        }
    }
    a
}

/// Word `j` of the zero-padded message `len ‖ input` (the 8-byte
/// little-endian length prefix, then the input), little-endian.  The prefix
/// is two words long, so input word `j - 2` starts at byte `4 * (j - 2)`.
#[inline(always)]
fn message_word(input: &[u8], j: usize) -> u32 {
    let len = input.len();
    if j < 2 {
        return ((len as u64) >> (32 * j)) as u32;
    }
    let start = 4 * (j - 2);
    if start + 4 <= len {
        u32::from_le_bytes(input[start..start + 4].try_into().expect("4 bytes"))
    } else {
        let mut word = [0u8; 4];
        for (byte, &input) in word.iter_mut().zip(input.get(start..).unwrap_or_default()) {
            *byte = input;
        }
        u32::from_le_bytes(word)
    }
}

/// A keyed pseudo-random function with 32-byte output.
///
/// The key-absorption compression (the first Davies–Meyer round, which
/// depends only on the key) is performed once at construction and its
/// chaining value cached, so every [`Prf::eval`] — and therefore every MAC
/// tag and nonce derivation on the record hot path — saves one ChaCha20
/// block evaluation.
#[derive(Clone)]
pub struct Prf {
    /// Chaining value after absorbing the key (`compress(0, key, 0)`), as
    /// little-endian words.
    keyed_cv: [u32; 8],
}

impl std::fmt::Debug for Prf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prf").field("key", &"<redacted>").finish()
    }
}

impl Prf {
    /// Creates a PRF keyed with `key`.
    pub fn new(key: [u8; CHACHA_KEY_LEN]) -> Self {
        // Absorb the key as the first block (secret-prefix keying); message
        // blocks continue from this cached chaining value.
        let [keyed_cv] = transpose(compress_lanes::<1>(&[[0]; 8], &splat(le_words(&key)), 0));
        Self { keyed_cv }
    }

    /// Evaluates the PRF on `input`, producing 32 pseudo-random bytes.
    ///
    /// The message is the 8-byte little-endian length prefix followed by
    /// `input`, zero-padded and absorbed in 32-byte blocks.  The blocks are
    /// read word by word straight from `input` — the eval path performs no
    /// heap allocation, which matters because every record encryption calls
    /// it twice (nonce derivation and MAC).
    pub fn eval(&self, input: &[u8]) -> [u8; PRF_OUTPUT_LEN] {
        let [out] = self.eval_lanes([input]);
        out
    }

    /// [`Prf::eval`] of `N` equal-length inputs at once, one per kernel
    /// lane: lane `i` of the result is `self.eval(inputs[i])`.
    #[inline(always)]
    pub(crate) fn eval_lanes<const N: usize>(
        &self,
        inputs: [&[u8]; N],
    ) -> [[u8; PRF_OUTPUT_LEN]; N] {
        let len = inputs[0].len();
        assert!(
            inputs.iter().all(|input| input.len() == len),
            "PRF lanes take equal-length inputs"
        );
        let mut cv = splat(self.keyed_cv);
        for (index, first) in (0..2 + len.div_ceil(4)).step_by(8).enumerate() {
            let mut block = [[0u32; N]; 8];
            for (w, words) in block.iter_mut().enumerate() {
                for (word, input) in words.iter_mut().zip(inputs) {
                    *word = message_word(input, first + w);
                }
            }
            cv = compress_lanes(&cv, &block, (index as u32).wrapping_add(1));
        }
        transpose(cv).map(|words| {
            let mut out = [0u8; PRF_OUTPUT_LEN];
            write_le_words(&mut out, words);
            out
        })
    }

    /// Evaluates the PRF on a 64-bit integer (a record sequence number).
    pub fn eval_u64(&self, input: u64) -> [u8; PRF_OUTPUT_LEN] {
        self.eval(&input.to_le_bytes())
    }

    /// Derives a 12-byte nonce from a record sequence number.
    pub fn derive_nonce(&self, sequence: u64) -> [u8; CHACHA_NONCE_LEN] {
        let [nonce] = self.derive_nonces(sequence);
        nonce
    }

    /// [`Prf::derive_nonce`] for the `N` sequence numbers `first..first + N`
    /// (wrapping), one per kernel lane.
    #[inline(always)]
    pub(crate) fn derive_nonces<const N: usize>(&self, first: u64) -> [[u8; CHACHA_NONCE_LEN]; N] {
        let sequences: [[u8; 8]; N] =
            std::array::from_fn(|lane| first.wrapping_add(lane as u64).to_le_bytes());
        let full = self.eval_lanes(sequences.each_ref().map(|bytes| bytes.as_slice()));
        full.map(|out| out[..CHACHA_NONCE_LEN].try_into().expect("12 bytes"))
    }

    /// Derives a 32-byte sub-key from a domain-separation label.
    pub fn derive_key(&self, label: &str) -> [u8; CHACHA_KEY_LEN] {
        self.eval(label.as_bytes())
    }
}

/// A PRF-based message authentication code with 16-byte tags.
#[derive(Clone)]
pub struct Mac {
    prf: Prf,
}

impl std::fmt::Debug for Mac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mac").field("key", &"<redacted>").finish()
    }
}

impl Mac {
    /// Creates a MAC keyed with `key`.
    pub fn new(key: [u8; CHACHA_KEY_LEN]) -> Self {
        Self { prf: Prf::new(key) }
    }

    /// Computes the tag for `message`.
    pub fn tag(&self, message: &[u8]) -> [u8; MAC_TAG_LEN] {
        let [tag] = self.tags([message]);
        tag
    }

    /// [`Mac::tag`] of `N` equal-length messages at once, one per kernel
    /// lane.
    #[inline(always)]
    pub(crate) fn tags<const N: usize>(&self, messages: [&[u8]; N]) -> [[u8; MAC_TAG_LEN]; N] {
        self.prf
            .eval_lanes(messages)
            .map(|full| full[..MAC_TAG_LEN].try_into().expect("16 bytes"))
    }

    /// Verifies `tag` against `message` in constant time with respect to the
    /// tag contents.
    pub fn verify(&self, message: &[u8], tag: &[u8; MAC_TAG_LEN]) -> bool {
        tags_equal(&self.tag(message), tag)
    }
}

/// Compares two tags in constant time with respect to their contents.
pub(crate) fn tags_equal(a: &[u8; MAC_TAG_LEN], b: &[u8; MAC_TAG_LEN]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_is_deterministic() {
        let prf = Prf::new([1u8; 32]);
        assert_eq!(prf.eval(b"hello"), prf.eval(b"hello"));
        assert_eq!(prf.eval_u64(99), prf.eval_u64(99));
    }

    #[test]
    fn prf_outputs_differ_across_inputs() {
        let prf = Prf::new([1u8; 32]);
        assert_ne!(prf.eval(b"hello"), prf.eval(b"hellp"));
        assert_ne!(prf.eval(b""), prf.eval(b"\0"));
        assert_ne!(prf.eval_u64(0), prf.eval_u64(1));
    }

    #[test]
    fn prf_outputs_differ_across_keys() {
        let a = Prf::new([1u8; 32]);
        let b = Prf::new([2u8; 32]);
        assert_ne!(a.eval(b"same input"), b.eval(b"same input"));
    }

    #[test]
    fn prf_handles_long_inputs_and_prefix_extension() {
        let prf = Prf::new([3u8; 32]);
        let long = vec![0xAAu8; 10_000];
        let out1 = prf.eval(&long);
        let mut longer = long.clone();
        longer.push(0x00);
        assert_ne!(out1, prf.eval(&longer));
        // Length prefixing: a message equal to another message plus trailing
        // zeros must not collide.
        assert_ne!(prf.eval(&[0u8; 47]), prf.eval(&[0u8; 48]));
    }

    /// One-lane Davies–Meyer compression over byte strings.
    fn compress(
        cv: &[u8; PRF_OUTPUT_LEN],
        block: &[u8; PRF_OUTPUT_LEN],
        counter: u32,
    ) -> [u8; PRF_OUTPUT_LEN] {
        let [words] = transpose(compress_lanes::<1>(
            &splat(le_words(cv)),
            &splat(le_words(block)),
            counter,
        ));
        let mut out = [0u8; PRF_OUTPUT_LEN];
        write_le_words(&mut out, words);
        out
    }

    #[test]
    fn streaming_eval_matches_reference_chunking() {
        // Reference: materialize `len ‖ input` and absorb zero-padded
        // 32-byte chunks (the pre-optimization implementation).  The
        // allocation-free streaming path must be byte-identical for every
        // boundary-straddling length.
        let key = [0x5Au8; CHACHA_KEY_LEN];
        let prf = Prf::new(key);
        let reference = |input: &[u8]| -> [u8; PRF_OUTPUT_LEN] {
            let mut cv = compress(&[0u8; PRF_OUTPUT_LEN], &key, 0);
            let mut data = Vec::with_capacity(8 + input.len());
            data.extend_from_slice(&(input.len() as u64).to_le_bytes());
            data.extend_from_slice(input);
            for (i, chunk) in data.chunks(PRF_OUTPUT_LEN).enumerate() {
                let mut block = [0u8; PRF_OUTPUT_LEN];
                block[..chunk.len()].copy_from_slice(chunk);
                cv = compress(&cv, &block, (i as u32).wrapping_add(1));
            }
            cv
        };
        for len in [
            0usize, 1, 7, 8, 23, 24, 25, 31, 32, 33, 55, 56, 64, 100, 1000,
        ] {
            let input: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(prf.eval(&input), reference(&input), "len {len}");
        }
    }

    #[test]
    fn nonce_derivation_is_injective_in_practice() {
        let prf = Prf::new([9u8; 32]);
        let mut seen = std::collections::HashSet::new();
        for seq in 0..5_000u64 {
            assert!(
                seen.insert(prf.derive_nonce(seq)),
                "nonce collision at {seq}"
            );
        }
    }

    #[test]
    fn key_derivation_separates_labels() {
        let prf = Prf::new([4u8; 32]);
        let enc = prf.derive_key("record-encryption");
        let mac = prf.derive_key("record-mac");
        assert_ne!(enc, mac);
        assert_eq!(enc, prf.derive_key("record-encryption"));
    }

    #[test]
    fn prf_output_is_bit_balanced() {
        let prf = Prf::new([8u8; 32]);
        let mut ones = 0u32;
        let samples = 2_000u64;
        for i in 0..samples {
            ones += prf.eval_u64(i).iter().map(|b| b.count_ones()).sum::<u32>();
        }
        let frac = f64::from(ones) / (samples as f64 * 32.0 * 8.0);
        assert!((frac - 0.5).abs() < 0.01, "bit balance {frac}");
    }

    #[test]
    fn mac_roundtrip_and_rejection() {
        let mac = Mac::new([7u8; 32]);
        let msg = b"synchronize 15 records at t=360";
        let tag = mac.tag(msg);
        assert!(mac.verify(msg, &tag));
        assert!(!mac.verify(b"synchronize 16 records at t=360", &tag));
        let mut bad_tag = tag;
        bad_tag[0] ^= 1;
        assert!(!mac.verify(msg, &bad_tag));
    }

    #[test]
    fn mac_differs_across_keys() {
        let a = Mac::new([1u8; 32]);
        let b = Mac::new([2u8; 32]);
        assert_ne!(a.tag(b"msg"), b.tag(b"msg"));
    }

    #[test]
    fn debug_redacts_keys() {
        assert!(format!("{:?}", Prf::new([0xCD; 32])).contains("redacted"));
        assert!(format!("{:?}", Mac::new([0xCD; 32])).contains("redacted"));
    }
}
