//! Fixed-size authenticated record encryption.
//!
//! Every record outsourced by DP-Sync — real or dummy — is encrypted into a
//! ciphertext of exactly [`EncryptedRecord::TOTAL_LEN`] bytes:
//!
//! ```text
//! ┌────────────┬──────────────────────────────────────────────┬───────────┐
//! │ nonce (12) │ ciphertext of [flag ‖ len ‖ padded payload]  │ tag (16)  │
//! └────────────┴──────────────────────────────────────────────┴───────────┘
//! ```
//!
//! The `is_dummy` flag and the true payload length live *inside* the
//! encrypted body, so the server cannot distinguish dummy records from real
//! ones, nor short payloads from long ones — the property the paper's dummy
//! mechanism relies on (§3.2.2).

use crate::chacha::{
    le_words, transpose, write_le_words, ChaCha20, CHACHA_BLOCK_LEN, CHACHA_NONCE_LEN, LANES,
};
use crate::keys::{KeyPurpose, MasterKey};
use crate::prf::{tags_equal, Mac, Prf, MAC_TAG_LEN};
use crate::CryptoError;
use bytes::Bytes;
use std::ops::Range;

/// Maximum serialized payload length of one record, in bytes.
///
/// A synthetic taxi record (pickup time, pickup/dropoff zones, distance,
/// fare, passenger count) serializes to well under this limit; the constant
/// is deliberately generous so other schemas fit without changing the
/// ciphertext format.
pub const RECORD_PAYLOAD_LEN: usize = 64;

/// Length of the plaintext body: 1 flag byte + 2 length bytes + padded payload.
const BODY_LEN: usize = 1 + 2 + RECORD_PAYLOAD_LEN;

/// Where each part sits in a serialized [`EncryptedRecord`].  The MAC covers
/// `nonce ‖ body`, the bytes before the tag.
const NONCE: Range<usize> = 0..CHACHA_NONCE_LEN;
const BODY: Range<usize> = CHACHA_NONCE_LEN..CHACHA_NONCE_LEN + BODY_LEN;
const TAG: Range<usize> = BODY.end..BODY.end + MAC_TAG_LEN;

/// The smallest group of records worth a [`LANES`]-wide kernel call.  One
/// four-lane call costs about two one-lane calls, so one or two records
/// take one-lane calls instead of computing lanes that are thrown away.
const MIN_LANE_GROUP: usize = 3;

/// ChaCha20 blocks of keystream one body takes.
const KEYSTREAM_BLOCKS: usize = BODY_LEN.div_ceil(CHACHA_BLOCK_LEN);

/// Validates `payload` and lays it out as a padded body.
fn padded_body(is_dummy: bool, payload: &[u8]) -> Result<[u8; BODY_LEN], CryptoError> {
    if payload.len() > RECORD_PAYLOAD_LEN {
        return Err(CryptoError::PayloadTooLarge {
            got: payload.len(),
            max: RECORD_PAYLOAD_LEN,
        });
    }
    let mut body = [0u8; BODY_LEN];
    body[0] = u8::from(is_dummy);
    body[1..3].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    body[3..3 + payload.len()].copy_from_slice(payload);
    Ok(body)
}

/// A plaintext record as seen by the owner before encryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordPlaintext {
    /// Whether this is a dummy record inserted purely for padding.
    pub is_dummy: bool,
    /// Application payload (serialized row), at most [`RECORD_PAYLOAD_LEN`] bytes.
    pub payload: Vec<u8>,
}

impl RecordPlaintext {
    /// Creates a real record carrying `payload`.
    pub fn real(payload: Vec<u8>) -> Self {
        Self {
            is_dummy: false,
            payload,
        }
    }

    /// Creates a dummy record (empty payload, `is_dummy` set).
    pub fn dummy() -> Self {
        Self {
            is_dummy: true,
            payload: Vec::new(),
        }
    }

    fn to_body(&self) -> Result<[u8; BODY_LEN], CryptoError> {
        padded_body(self.is_dummy, &self.payload)
    }
}

/// A plaintext record whose padded body has been assembled ahead of time.
///
/// Preparing a plaintext performs the size check and the copy into the
/// fixed-size padded body once; [`RecordCryptor::encrypt_prepared`] can then
/// be called many times, and **every call is a fresh encryption** — a new
/// nonce, a new keystream, a new tag.  This is the dummy-record fast path:
/// the all-zero dummy body is a compile-time constant, but the emitted
/// ciphertexts must never repeat, or the server could count dummies and the
/// update-pattern indistinguishability of Definition 4 would collapse.
/// Cache the *plaintext*, never the *ciphertext*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedPlaintext {
    body: [u8; BODY_LEN],
}

impl PreparedPlaintext {
    /// Prepares a plaintext record (validates and pads the payload once).
    pub fn new(record: &RecordPlaintext) -> Result<Self, CryptoError> {
        Ok(Self {
            body: record.to_body()?,
        })
    }

    /// The prepared dummy record (flag set, zero-length zero padding).
    pub const fn dummy() -> Self {
        let mut body = [0u8; BODY_LEN];
        body[0] = 1; // is_dummy flag; length bytes and padding stay zero.
        Self { body }
    }

    /// Whether this prepared record is a dummy.
    pub fn is_dummy(&self) -> bool {
        self.body[0] != 0
    }
}

/// An authenticated, decrypted record body exposed without copying the
/// payload out of the fixed-size buffer.
///
/// [`RecordCryptor::decrypt_view`] returns this on the `Π_Update` ingest hot
/// path so engines can parse rows straight from [`PlaintextView::payload`]
/// instead of materializing an intermediate `Vec` per record.
#[derive(Debug, Clone)]
pub struct PlaintextView {
    body: [u8; BODY_LEN],
}

impl PlaintextView {
    /// Whether the record is a dummy.
    pub fn is_dummy(&self) -> bool {
        self.body[0] != 0
    }

    /// The true (unpadded) payload bytes.
    pub fn payload(&self) -> &[u8] {
        let len = u16::from_le_bytes([self.body[1], self.body[2]]) as usize;
        &self.body[3..3 + len.min(RECORD_PAYLOAD_LEN)]
    }

    /// Converts the view into an owned plaintext record.
    pub fn into_plaintext(self) -> RecordPlaintext {
        RecordPlaintext {
            is_dummy: self.is_dummy(),
            payload: self.payload().to_vec(),
        }
    }
}

/// Ciphertext bytes of one encrypted record, suitable for storage/transfer.
pub type CiphertextBytes = Bytes;

/// One encrypted record, held in its serialized form
/// (nonce ‖ encrypted body ‖ tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedRecord {
    bytes: [u8; Self::TOTAL_LEN],
}

impl EncryptedRecord {
    /// Total serialized length of every encrypted record, in bytes.
    pub const TOTAL_LEN: usize = TAG.end;

    /// A record carrying the plaintext `body`, with nonce and tag still
    /// zero: [`RecordCryptor`] seals it in place.
    fn unsealed(body: &[u8; BODY_LEN]) -> Self {
        let mut bytes = [0u8; Self::TOTAL_LEN];
        bytes[BODY].copy_from_slice(body);
        Self { bytes }
    }

    /// Appends the serialized record (nonce ‖ encrypted body ‖ tag) to `out`.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bytes);
    }

    /// Serializes the record to bytes (nonce ‖ encrypted body ‖ tag).
    pub fn to_bytes(&self) -> CiphertextBytes {
        let mut out = Vec::with_capacity(Self::TOTAL_LEN);
        self.append_to(&mut out);
        Bytes::from(out)
    }

    /// Parses an encrypted record from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let bytes = bytes
            .try_into()
            .map_err(|_| CryptoError::MalformedCiphertext {
                got: bytes.len(),
                expected: Self::TOTAL_LEN,
            })?;
        Ok(Self { bytes })
    }

    /// The per-record nonce (public).
    pub fn nonce(&self) -> &[u8; CHACHA_NONCE_LEN] {
        self.bytes[NONCE].try_into().expect("nonce range")
    }

    fn body(&self) -> &[u8; BODY_LEN] {
        self.bytes[BODY].try_into().expect("body range")
    }

    fn tag(&self) -> &[u8; MAC_TAG_LEN] {
        self.bytes[TAG].try_into().expect("tag range")
    }

    /// The MAC input: `nonce ‖ body`.
    fn authenticated(&self) -> &[u8] {
        &self.bytes[..TAG.start]
    }
}

/// One record per kernel lane: record `i` in lane `i`, and lanes past the
/// end repeating the last record (their results are computed and dropped).
fn lanes<'a, T: ?Sized, const N: usize>(
    records: &'a [EncryptedRecord],
    part: impl Fn(&'a EncryptedRecord) -> &'a T,
) -> [&'a T; N] {
    std::array::from_fn(|lane| part(&records[lane.min(records.len() - 1)]))
}

/// Encrypts and decrypts records under keys derived from one master key.
///
/// The cryptor tracks a monotone sequence number used to derive a unique
/// nonce per encryption, so the caller never has to manage nonces.
///
/// Seal and open each have one implementation, generic over the number of
/// records it handles at once: batches run four records per call of the
/// lane-parallel ChaCha20 kernel, and single records (and a batch's last one
/// or two) one-lane calls of the same code.  Every record is still its
/// own encryption under its own sequence-derived nonce, so the ciphertexts
/// do not depend on how records are grouped.
#[derive(Debug, Clone)]
pub struct RecordCryptor {
    cipher: ChaCha20,
    mac: Mac,
    nonce_prf: Prf,
    next_sequence: u64,
}

impl RecordCryptor {
    /// Creates a cryptor from the owner's master key, starting the nonce
    /// sequence at zero.
    pub fn new(master: &MasterKey) -> Self {
        Self::with_sequence(master, 0)
    }

    /// Creates a cryptor whose nonce sequence starts at `next_sequence`
    /// (used when resuming after a restart).
    pub fn with_sequence(master: &MasterKey, next_sequence: u64) -> Self {
        let enc = master.derive(KeyPurpose::RecordEncryption);
        let mac = master.derive(KeyPurpose::RecordAuthentication);
        let nonce = master.derive(KeyPurpose::NonceDerivation);
        Self {
            cipher: ChaCha20::new(*enc.bytes()),
            mac: Mac::new(*mac.bytes()),
            nonce_prf: Prf::new(*nonce.bytes()),
            next_sequence,
        }
    }

    /// The sequence number the next encryption will consume.
    pub fn next_sequence(&self) -> u64 {
        self.next_sequence
    }

    /// XORs each record's keystream (block counter 0 onwards, under the
    /// record's own nonce) into its body; `records.len() <= N`.
    #[inline(always)]
    fn apply_keystream<const N: usize>(&self, records: &mut [EncryptedRecord]) {
        let nonces = transpose(lanes::<_, N>(records, EncryptedRecord::nonce).map(|n| le_words(n)));
        let mut keystream = [[0u8; KEYSTREAM_BLOCKS * CHACHA_BLOCK_LEN]; N];
        for counter in 0..KEYSTREAM_BLOCKS {
            let block = self.cipher.keystream_lanes::<N>(counter as u32, nonces);
            for (lane, keystream) in keystream.iter_mut().enumerate() {
                write_le_words(
                    &mut keystream[counter * CHACHA_BLOCK_LEN..][..CHACHA_BLOCK_LEN],
                    block.iter().map(|words| words[lane]),
                );
            }
        }
        for (record, keystream) in records.iter_mut().zip(&keystream) {
            for (byte, key) in record.bytes[BODY].iter_mut().zip(keystream) {
                *byte ^= key;
            }
        }
    }

    /// Seals `records` (`1..=N` of them, bodies in place) in three kernel
    /// passes: nonces from the next sequence numbers, the keystream, and
    /// the tags over `nonce ‖ encrypted body`.
    #[inline(always)]
    fn seal_lanes<const N: usize>(&mut self, records: &mut [EncryptedRecord]) {
        debug_assert!((1..=N).contains(&records.len()));
        let nonces = self.nonce_prf.derive_nonces::<N>(self.next_sequence);
        self.next_sequence += records.len() as u64;
        for (record, nonce) in records.iter_mut().zip(&nonces) {
            record.bytes[NONCE].copy_from_slice(nonce);
        }
        self.apply_keystream::<N>(records);
        let tags = self
            .mac
            .tags::<N>(lanes(records, EncryptedRecord::authenticated));
        for (record, tag) in records.iter_mut().zip(&tags) {
            record.bytes[TAG].copy_from_slice(tag);
        }
    }

    /// Seals `records` lane group by lane group.
    fn seal(&mut self, records: &mut [EncryptedRecord]) {
        for group in records.chunks_mut(LANES) {
            if group.len() >= MIN_LANE_GROUP {
                self.seal_lanes::<LANES>(group);
            } else {
                for record in group {
                    self.seal_lanes::<1>(std::slice::from_mut(record));
                }
            }
        }
    }

    /// Seals an already-padded body: fresh nonce, encrypt, authenticate.
    fn seal_body(&mut self, body: &[u8; BODY_LEN]) -> EncryptedRecord {
        let mut record = EncryptedRecord::unsealed(body);
        self.seal_lanes::<1>(std::slice::from_mut(&mut record));
        record
    }

    /// Encrypts a plaintext record into a fixed-size ciphertext.
    pub fn encrypt(&mut self, record: &RecordPlaintext) -> Result<EncryptedRecord, CryptoError> {
        Ok(self.seal_body(&record.to_body()?))
    }

    /// Encrypts a real record directly from its payload bytes, skipping the
    /// intermediate [`RecordPlaintext`] (and its owned `Vec`).
    pub fn encrypt_payload(&mut self, payload: &[u8]) -> Result<EncryptedRecord, CryptoError> {
        Ok(self.seal_body(&padded_body(false, payload)?))
    }

    /// Encrypts a prepared plaintext.  Infallible (the body was validated at
    /// preparation time) and **fresh** every call: a new nonce and keystream
    /// are derived per invocation, so encrypting the same prepared plaintext
    /// twice never yields related ciphertexts.
    pub fn encrypt_prepared(&mut self, prepared: &PreparedPlaintext) -> EncryptedRecord {
        self.seal_body(&prepared.body)
    }

    /// Encrypts a dummy record.
    pub fn encrypt_dummy(&mut self) -> Result<EncryptedRecord, CryptoError> {
        Ok(self.encrypt_prepared(&PreparedPlaintext::dummy()))
    }

    /// Encrypts a batch of real records followed by `dummies` dummy records
    /// into `out`, byte-identical to encrypting them one by one.
    ///
    /// `encode` serializes one item into the scratch buffer it is handed
    /// (already cleared); the same buffer is reused for every item, so the
    /// batch performs no per-record payload allocation.  Records are laid
    /// out in `out` as padded bodies and sealed there in place, four at a
    /// time, so the batch needs no buffer beyond `out` itself.  Each dummy
    /// is still a fresh encryption.  `out` is not cleared, so a caller
    /// draining a queue can reuse one output buffer across batches.  An item
    /// too large for a record stops the batch with the records before it
    /// sealed and appended.
    pub fn encrypt_batch_into<T>(
        &mut self,
        items: &[T],
        mut encode: impl FnMut(&T, &mut Vec<u8>),
        dummies: usize,
        out: &mut Vec<EncryptedRecord>,
    ) -> Result<(), CryptoError> {
        out.reserve(items.len() + dummies);
        let mut payload = Vec::with_capacity(RECORD_PAYLOAD_LEN);
        let bodies = items
            .iter()
            .map(|item| {
                payload.clear();
                encode(item, &mut payload);
                padded_body(false, &payload)
            })
            .chain(std::iter::repeat_n(
                Ok(PreparedPlaintext::dummy().body),
                dummies,
            ));
        let mut sealed = out.len();
        for body in bodies {
            match body {
                Ok(body) => out.push(EncryptedRecord::unsealed(&body)),
                Err(error) => {
                    self.seal(&mut out[sealed..]);
                    return Err(error);
                }
            }
            if out.len() - sealed == LANES {
                self.seal_lanes::<LANES>(&mut out[sealed..]);
                sealed = out.len();
            }
        }
        self.seal(&mut out[sealed..]);
        Ok(())
    }

    /// Authenticates and decrypts `records` (`1..=N` of them), one result
    /// per lane.  Every tag is recomputed and compared in constant time; a
    /// lane releases its body only if its own tag verifies.
    #[inline(always)]
    fn open_lanes<const N: usize>(
        &self,
        records: &[EncryptedRecord],
    ) -> [Result<PlaintextView, CryptoError>; N] {
        let tags = self
            .mac
            .tags::<N>(lanes(records, EncryptedRecord::authenticated));
        let mut opened = lanes::<_, N>(records, |record| record).map(Clone::clone);
        self.apply_keystream::<N>(&mut opened);
        std::array::from_fn(|lane| {
            if tags_equal(&tags[lane], opened[lane].tag()) {
                Ok(PlaintextView {
                    body: *opened[lane].body(),
                })
            } else {
                Err(CryptoError::AuthenticationFailed)
            }
        })
    }

    /// Decrypts and authenticates an encrypted record.
    pub fn decrypt(&self, record: &EncryptedRecord) -> Result<RecordPlaintext, CryptoError> {
        Ok(self.decrypt_view(record)?.into_plaintext())
    }

    /// Decrypts and authenticates a record, returning a zero-copy view of
    /// the padded body.
    pub fn decrypt_view(&self, record: &EncryptedRecord) -> Result<PlaintextView, CryptoError> {
        let [opened] = self.open_lanes::<1>(std::slice::from_ref(record));
        opened
    }

    /// Decrypts and authenticates a batch, four records at a time (the
    /// `Π_Update` ingest hot path).
    ///
    /// `visit` sees one result per record, in batch order: the record's
    /// view, or [`CryptoError::AuthenticationFailed`] if its own tag does
    /// not verify.  The first error `visit` returns stops the batch and is
    /// returned.  Each result equals [`RecordCryptor::decrypt_view`] of the
    /// same record.
    pub fn decrypt_batch<E>(
        &self,
        records: &[EncryptedRecord],
        mut visit: impl FnMut(Result<PlaintextView, CryptoError>) -> Result<(), E>,
    ) -> Result<(), E> {
        for group in records.chunks(LANES) {
            if group.len() >= MIN_LANE_GROUP {
                for opened in self
                    .open_lanes::<LANES>(group)
                    .into_iter()
                    .take(group.len())
                {
                    visit(opened)?;
                }
            } else {
                for record in group {
                    visit(self.decrypt_view(record))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cryptor() -> RecordCryptor {
        RecordCryptor::new(&MasterKey::from_bytes([3u8; 32]))
    }

    #[test]
    fn roundtrip_real_record() {
        let mut c = cryptor();
        let pt = RecordPlaintext::real(b"pickup=42,dropoff=17,fare=12.5".to_vec());
        let ct = c.encrypt(&pt).unwrap();
        assert_eq!(c.decrypt(&ct).unwrap(), pt);
    }

    #[test]
    fn roundtrip_dummy_record() {
        let mut c = cryptor();
        let ct = c.encrypt_dummy().unwrap();
        let pt = c.decrypt(&ct).unwrap();
        assert!(pt.is_dummy);
        assert!(pt.payload.is_empty());
    }

    #[test]
    fn all_ciphertexts_have_identical_length() {
        let mut c = cryptor();
        let short = c.encrypt(&RecordPlaintext::real(vec![1])).unwrap();
        let long = c
            .encrypt(&RecordPlaintext::real(vec![7u8; RECORD_PAYLOAD_LEN]))
            .unwrap();
        let dummy = c.encrypt_dummy().unwrap();
        assert_eq!(short.to_bytes().len(), EncryptedRecord::TOTAL_LEN);
        assert_eq!(long.to_bytes().len(), EncryptedRecord::TOTAL_LEN);
        assert_eq!(dummy.to_bytes().len(), EncryptedRecord::TOTAL_LEN);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut c = cryptor();
        let err = c
            .encrypt(&RecordPlaintext::real(vec![0u8; RECORD_PAYLOAD_LEN + 1]))
            .unwrap_err();
        assert!(matches!(err, CryptoError::PayloadTooLarge { .. }));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut c = cryptor();
        let ct = c.encrypt(&RecordPlaintext::real(b"abc".to_vec())).unwrap();
        let bytes = ct.to_bytes();
        let parsed = EncryptedRecord::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, ct);
        assert!(matches!(
            EncryptedRecord::from_bytes(&bytes[..bytes.len() - 1]),
            Err(CryptoError::MalformedCiphertext { .. })
        ));
    }

    #[test]
    fn tampering_is_detected() {
        let mut c = cryptor();
        let ct = c
            .encrypt(&RecordPlaintext::real(b"secret".to_vec()))
            .unwrap();
        let mut bytes = ct.to_bytes().to_vec();
        bytes[20] ^= 0x01;
        let tampered = EncryptedRecord::from_bytes(&bytes).unwrap();
        assert_eq!(c.decrypt(&tampered), Err(CryptoError::AuthenticationFailed));
    }

    #[test]
    fn wrong_key_fails_authentication() {
        let mut c1 = cryptor();
        let c2 = RecordCryptor::new(&MasterKey::from_bytes([4u8; 32]));
        let ct = c1
            .encrypt(&RecordPlaintext::real(b"secret".to_vec()))
            .unwrap();
        assert_eq!(c2.decrypt(&ct), Err(CryptoError::AuthenticationFailed));
    }

    #[test]
    fn nonces_never_repeat_across_encryptions() {
        let mut c = cryptor();
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000u64 {
            let ct = c
                .encrypt(&RecordPlaintext::real(i.to_le_bytes().to_vec()))
                .unwrap();
            assert!(seen.insert(*ct.nonce()), "nonce reuse at {i}");
        }
        assert_eq!(c.next_sequence(), 2_000);
    }

    #[test]
    fn identical_plaintexts_produce_different_ciphertexts() {
        let mut c = cryptor();
        let pt = RecordPlaintext::real(b"same".to_vec());
        let a = c.encrypt(&pt).unwrap();
        let b = c.encrypt(&pt).unwrap();
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn dummy_and_real_ciphertexts_are_statistically_similar() {
        // Indistinguishability smoke test: byte histograms of dummy vs real
        // ciphertext bodies should both look uniform (we compare the mean byte
        // value and total length only — a full distinguisher is out of scope).
        let mut c = cryptor();
        let mut real_bytes = Vec::new();
        let mut dummy_bytes = Vec::new();
        for i in 0..500u64 {
            real_bytes.extend_from_slice(
                &c.encrypt(&RecordPlaintext::real(i.to_le_bytes().to_vec()))
                    .unwrap()
                    .to_bytes(),
            );
            dummy_bytes.extend_from_slice(&c.encrypt_dummy().unwrap().to_bytes());
        }
        assert_eq!(real_bytes.len(), dummy_bytes.len());
        let mean = |v: &[u8]| v.iter().map(|&b| f64::from(b)).sum::<f64>() / v.len() as f64;
        assert!((mean(&real_bytes) - mean(&dummy_bytes)).abs() < 3.0);
    }

    #[test]
    fn prepared_dummy_matches_plaintext_dummy() {
        // The prepared fast path and the general path must produce
        // ciphertexts that decrypt to the same plaintext dummy record.
        let master = MasterKey::from_bytes([3u8; 32]);
        let mut via_plaintext = RecordCryptor::new(&master);
        let mut via_prepared = RecordCryptor::new(&master);
        let a = via_plaintext
            .encrypt(&RecordPlaintext::dummy())
            .unwrap()
            .to_bytes();
        let b = via_prepared
            .encrypt_prepared(&PreparedPlaintext::dummy())
            .to_bytes();
        // Identical sequence numbers + identical bodies => identical bytes.
        assert_eq!(a, b);
        assert!(PreparedPlaintext::dummy().is_dummy());
    }

    #[test]
    fn prepared_encryption_is_fresh_every_call() {
        let mut c = cryptor();
        let prepared = PreparedPlaintext::new(&RecordPlaintext::real(b"same".to_vec())).unwrap();
        assert!(!prepared.is_dummy());
        let a = c.encrypt_prepared(&prepared);
        let b = c.encrypt_prepared(&prepared);
        assert_ne!(a.nonce(), b.nonce());
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_eq!(c.decrypt(&a).unwrap(), c.decrypt(&b).unwrap());
    }

    #[test]
    fn prepared_rejects_oversized_payloads() {
        let err = PreparedPlaintext::new(&RecordPlaintext::real(vec![0u8; RECORD_PAYLOAD_LEN + 1]))
            .unwrap_err();
        assert!(matches!(err, CryptoError::PayloadTooLarge { .. }));
    }

    #[test]
    fn encrypt_payload_matches_encrypt() {
        let master = MasterKey::from_bytes([3u8; 32]);
        let mut a = RecordCryptor::new(&master);
        let mut b = RecordCryptor::new(&master);
        let payload = b"pickup=42".to_vec();
        let via_record = a.encrypt(&RecordPlaintext::real(payload.clone())).unwrap();
        let via_payload = b.encrypt_payload(&payload).unwrap();
        assert_eq!(via_record.to_bytes(), via_payload.to_bytes());
        assert!(matches!(
            b.encrypt_payload(&[0u8; RECORD_PAYLOAD_LEN + 1]),
            Err(CryptoError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn batch_encryption_matches_one_by_one() {
        let master = MasterKey::from_bytes([3u8; 32]);
        let mut batch_cryptor = RecordCryptor::new(&master);
        let mut single_cryptor = RecordCryptor::new(&master);
        let payloads: Vec<Vec<u8>> = (0..10u64).map(|i| i.to_le_bytes().to_vec()).collect();

        let mut batched = Vec::new();
        batch_cryptor
            .encrypt_batch_into(
                &payloads,
                |p, buf| buf.extend_from_slice(p),
                4,
                &mut batched,
            )
            .unwrap();

        let mut singles = Vec::new();
        for p in &payloads {
            singles.push(
                single_cryptor
                    .encrypt(&RecordPlaintext::real(p.clone()))
                    .unwrap(),
            );
        }
        for _ in 0..4 {
            singles.push(single_cryptor.encrypt_dummy().unwrap());
        }
        assert_eq!(batched, singles);
        assert_eq!(
            batch_cryptor.next_sequence(),
            single_cryptor.next_sequence()
        );
        // The output buffer is appended to, not cleared.
        let no_items: [Vec<u8>; 0] = [];
        batch_cryptor
            .encrypt_batch_into(
                &no_items,
                |p, buf| buf.extend_from_slice(p),
                1,
                &mut batched,
            )
            .unwrap();
        assert_eq!(batched.len(), 15);
        // An oversized item surfaces the payload error, not a panic.
        let oversized = [vec![0u8; RECORD_PAYLOAD_LEN + 1]];
        let err = batch_cryptor
            .encrypt_batch_into(
                &oversized,
                |p, buf| buf.extend_from_slice(p),
                0,
                &mut batched,
            )
            .unwrap_err();
        assert!(matches!(err, CryptoError::PayloadTooLarge { .. }));
    }

    #[test]
    fn decrypt_view_exposes_payload_without_copy() {
        let mut c = cryptor();
        let ct = c
            .encrypt(&RecordPlaintext::real(b"hot path".to_vec()))
            .unwrap();
        let view = c.decrypt_view(&ct).unwrap();
        assert!(!view.is_dummy());
        assert_eq!(view.payload(), b"hot path");
        assert_eq!(
            view.into_plaintext(),
            RecordPlaintext::real(b"hot path".to_vec())
        );
        let dummy_view = c.decrypt_view(&c.clone().encrypt_dummy().unwrap()).unwrap();
        assert!(dummy_view.is_dummy());
        assert!(dummy_view.payload().is_empty());
    }

    #[test]
    fn with_sequence_resumes_nonce_counter() {
        let master = MasterKey::from_bytes([3u8; 32]);
        let mut a = RecordCryptor::with_sequence(&master, 500);
        assert_eq!(a.next_sequence(), 500);
        let ct = a.encrypt(&RecordPlaintext::real(vec![1])).unwrap();
        // A fresh cryptor at sequence 500 derives the same nonce.
        let mut b = RecordCryptor::with_sequence(&master, 500);
        let ct2 = b.encrypt(&RecordPlaintext::real(vec![2])).unwrap();
        assert_eq!(ct.nonce(), ct2.nonce());
    }

    /// Seals one record from today's public primitives, independently of
    /// the lane code: `derive_nonce`, `ChaCha20::apply` and `Mac::tag` over
    /// `nonce ‖ body`.  Reference implementation the batch tests compare
    /// against.
    fn reference_seal(
        master: &MasterKey,
        sequence: u64,
        is_dummy: bool,
        payload: &[u8],
    ) -> Vec<u8> {
        let nonce =
            Prf::new(*master.derive(KeyPurpose::NonceDerivation).bytes()).derive_nonce(sequence);
        let mut body = vec![u8::from(is_dummy)];
        body.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        body.extend_from_slice(payload);
        body.resize(BODY_LEN, 0);
        ChaCha20::new(*master.derive(KeyPurpose::RecordEncryption).bytes())
            .apply(nonce, 0, &mut body);
        let mut sealed = nonce.to_vec();
        sealed.extend_from_slice(&body);
        let tag = Mac::new(*master.derive(KeyPurpose::RecordAuthentication).bytes()).tag(&sealed);
        sealed.extend_from_slice(&tag);
        sealed
    }

    /// Opens one serialized record with the same public primitives.
    fn reference_open(master: &MasterKey, bytes: &[u8]) -> Result<(bool, Vec<u8>), CryptoError> {
        let (sealed, tag) = bytes.split_at(CHACHA_NONCE_LEN + BODY_LEN);
        let mac = Mac::new(*master.derive(KeyPurpose::RecordAuthentication).bytes());
        if !mac.verify(sealed, tag.try_into().expect("16-byte tag")) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let (nonce, body) = sealed.split_at(CHACHA_NONCE_LEN);
        let mut body = body.to_vec();
        ChaCha20::new(*master.derive(KeyPurpose::RecordEncryption).bytes()).apply(
            nonce.try_into().expect("12-byte nonce"),
            0,
            &mut body,
        );
        let len = usize::from(u16::from_le_bytes([body[1], body[2]]));
        Ok((body[0] != 0, body[3..3 + len].to_vec()))
    }

    fn open_all(
        cryptor: &RecordCryptor,
        records: &[EncryptedRecord],
    ) -> Vec<Result<PlaintextView, CryptoError>> {
        let mut opened = Vec::new();
        cryptor
            .decrypt_batch(records, |result| {
                opened.push(result);
                Ok::<_, ()>(())
            })
            .unwrap();
        opened
    }

    fn view_parts(view: &PlaintextView) -> (bool, Vec<u8>) {
        (view.is_dummy(), view.payload().to_vec())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lane-parallel seal and open are byte-identical to the
        /// one-record reference for every batch size up to three lane groups
        /// and a remainder, with real records and dummies mixed, payloads of
        /// 0..=64 bytes, and sequences around the 2^32 boundary (the nonce
        /// PRF splits the sequence across two words) and at 2^40.  Flipping
        /// one byte of one record fails that record and only that record.
        #[test]
        fn batch_seal_and_open_match_the_one_record_reference(
            key in any::<[u8; 32]>(),
            start in (0u64..16).prop_map(|k| if k < 8 { (1u64 << 32) - 8 + k } else { (1u64 << 40) + k }),
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=RECORD_PAYLOAD_LEN), 3 * LANES + 1),
            dummy_seed in 0usize..LANES,
            tamper in (0usize..1 << 16, 0usize..EncryptedRecord::TOTAL_LEN),
        ) {
            let master = MasterKey::from_bytes(key);
            for reals in 0..=payloads.len() {
                let dummies = (reals + dummy_seed) % LANES;
                let mut cryptor = RecordCryptor::with_sequence(&master, start);
                let mut sealed = Vec::new();
                cryptor
                    .encrypt_batch_into(&payloads[..reals], |p, buf| buf.extend_from_slice(p), dummies, &mut sealed)
                    .unwrap();
                let total = reals + dummies;
                prop_assert_eq!(sealed.len(), total);
                prop_assert_eq!(cryptor.next_sequence(), start + total as u64);
                let expected: Vec<(bool, Vec<u8>)> = (0..total)
                    .map(|i| if i < reals { (false, payloads[i].clone()) } else { (true, Vec::new()) })
                    .collect();
                for (i, (record, (is_dummy, payload))) in sealed.iter().zip(&expected).enumerate() {
                    let reference = reference_seal(&master, start + i as u64, *is_dummy, payload);
                    prop_assert_eq!(&record.to_bytes()[..], &reference[..], "record {} of {}", i, total);
                }

                let opened = open_all(&cryptor, &sealed);
                prop_assert_eq!(opened.len(), total);
                for ((result, record), parts) in opened.iter().zip(&sealed).zip(&expected) {
                    let view = result.as_ref().expect("authentic record opens");
                    let single = cryptor.decrypt_view(record).expect("authentic record opens");
                    prop_assert_eq!(view_parts(view), view_parts(&single));
                    prop_assert_eq!(&view_parts(view), parts);
                    prop_assert_eq!(reference_open(&master, &record.to_bytes()).as_ref(), Ok(parts));
                }

                if total > 0 {
                    let (victim, byte) = (tamper.0 % total, tamper.1);
                    let mut tampered = sealed.clone();
                    tampered[victim].bytes[byte] ^= 0x01;
                    let opened = open_all(&cryptor, &tampered);
                    for (i, result) in opened.iter().enumerate() {
                        if i == victim {
                            prop_assert_eq!(result.as_ref().err(), Some(&CryptoError::AuthenticationFailed));
                            prop_assert_eq!(
                                reference_open(&master, &tampered[i].to_bytes()),
                                Err(CryptoError::AuthenticationFailed)
                            );
                        } else {
                            prop_assert_eq!(result.as_ref().map(view_parts).ok(), Some(expected[i].clone()));
                        }
                    }
                }
            }
        }
    }
}
