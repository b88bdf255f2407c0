//! `checkpoint` — a versioned, zero-dependency binary snapshot codec.
//!
//! The simulator's crash-safety layer needs to freeze the *entire* mutable
//! state of a run (router buffers, controller state, RNG state, metrics)
//! and later resume it with the golden property *snapshot at cycle C +
//! restore + run to end ≡ uninterrupted run, bit for bit*. This crate
//! provides the byte-level plumbing every state-owning crate shares:
//!
//! * [`Enc`] / [`Dec`] — little-endian primitive writers/readers with
//!   typed, non-panicking decode errors ([`CheckpointError`]),
//! * [`seal`] / [`open`] — a self-describing container: magic, format
//!   version, a caller-supplied *configuration fingerprint* (so a snapshot
//!   is never restored into a simulation built from a different
//!   configuration), payload length and a CRC-32 integrity check,
//! * [`fnv1a64`] / [`crc32`] — the hash functions used for fingerprints
//!   and integrity.
//!
//! Floating-point values round-trip through [`f64::to_bits`], so restored
//! state is bit-identical even for NaN payloads. The codec has no
//! reflection and no external dependencies: each crate writes its own
//! fields in a fixed order and reads them back in the same order, with
//! structural validation (element counts against the rebuilt
//! configuration) at the call site.

#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

/// Magic bytes opening every sealed checkpoint.
pub const MAGIC: [u8; 8] = *b"STCCKPT\0";

/// Current container format version. Bump on any layout change.
///
/// v2: network payloads gained the per-stage work counters and the
/// starvation timer-wheel deadline array.
pub const VERSION: u32 = 2;

/// Decode-side failure: a snapshot that is truncated, corrupt, from a
/// different format version, or taken under a different configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the value being read.
    Truncated {
        /// Offset at which the read was attempted.
        at: usize,
    },
    /// The container does not start with [`MAGIC`].
    BadMagic,
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Version found in the container.
        found: u32,
    },
    /// The snapshot was taken under a different configuration than the one
    /// it is being restored into.
    ConfigMismatch {
        /// Fingerprint of the configuration being restored into.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The CRC-32 integrity check failed (bit rot or a torn write).
    BadChecksum,
    /// A decoded value is structurally impossible for the configuration
    /// being restored into (wrong element count, bad enum tag, ...).
    Corrupt(&'static str),
    /// Decoding finished with unread bytes left over.
    Trailing {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { at } => {
                write!(f, "checkpoint truncated at byte {at}")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (want {VERSION})")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            CheckpointError::BadChecksum => write!(f, "checkpoint integrity check failed"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::Trailing { remaining } => {
                write!(f, "checkpoint has {remaining} trailing bytes")
            }
        }
    }
}

impl Error for CheckpointError {}

/// Little-endian binary encoder. Infallible; appends to an owned buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Enc::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent layout).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via [`f64::to_bits`] (bit-exact, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        self.bool(v.is_some());
        self.u64(v.unwrap_or(0));
    }

    /// Writes an `Option<f64>` as a presence byte plus the value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.bool(v.is_some());
        self.f64(v.unwrap_or(0.0));
    }
}

/// Little-endian binary decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let at = self.pos;
        let end = at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated { at })?;
        self.pos = end;
        Ok(&self.buf[at..end])
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `usize` written by [`Enc::usize`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] on a short stream;
    /// [`CheckpointError::Corrupt`] if the value overflows this platform's
    /// `usize`.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` written by [`Enc::f64`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] on a short stream;
    /// [`CheckpointError::Corrupt`] on a byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool out of range")),
        }
    }

    /// Reads an `Option<u64>` written by [`Enc::opt_u64`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Dec::bool`]/[`Dec::u64`] errors.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        let some = self.bool()?;
        let v = self.u64()?;
        Ok(some.then_some(v))
    }

    /// Reads an `Option<f64>` written by [`Enc::opt_f64`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Dec::bool`]/[`Dec::f64`] errors.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        let some = self.bool()?;
        let v = self.f64()?;
        Ok(some.then_some(v))
    }

    /// Asserts the stream is fully consumed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Trailing`] if bytes remain.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(CheckpointError::Trailing { remaining }),
        }
    }
}

/// FNV-1a 64-bit hash (used for configuration fingerprints).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let low = crc & 1;
            crc >>= 1;
            crc ^= 0xedb8_8320 * low;
        }
    }
    !crc
}

/// Wraps `payload` in the versioned container: magic, [`VERSION`],
/// `fingerprint`, payload length, payload, CRC-32 of everything prior.
#[must_use]
pub fn seal(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(&MAGIC);
    e.u32(VERSION);
    e.u64(fingerprint);
    e.usize(payload.len());
    e.buf.extend_from_slice(payload);
    let crc = crc32(&e.buf);
    e.u32(crc);
    e.into_vec()
}

/// Reads the configuration fingerprint out of a sealed container without
/// validating the payload (tooling and adversarial tests need to re-seal
/// a container they only have the bytes of).
///
/// # Errors
///
/// [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`] /
/// [`CheckpointError::Truncated`] when the header itself is damaged.
pub fn peek_fingerprint(bytes: &[u8]) -> Result<u64, CheckpointError> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len()).map_err(|_| CheckpointError::BadMagic)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion { found: version });
    }
    d.u64()
}

/// Validates a sealed container and returns its payload slice.
///
/// # Errors
///
/// [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`] /
/// [`CheckpointError::ConfigMismatch`] / [`CheckpointError::BadChecksum`] /
/// [`CheckpointError::Truncated`] / [`CheckpointError::Trailing`] on any
/// container-level mismatch.
pub fn open(bytes: &[u8], fingerprint: u64) -> Result<&[u8], CheckpointError> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len()).map_err(|_| CheckpointError::BadMagic)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion { found: version });
    }
    let found = d.u64()?;
    if found != fingerprint {
        return Err(CheckpointError::ConfigMismatch {
            expected: fingerprint,
            found,
        });
    }
    let len = d.usize()?;
    let payload = d.take(len)?;
    let body_end = bytes.len() - d.remaining();
    let crc = d.u32()?;
    if crc != crc32(&bytes[..body_end]) {
        return Err(CheckpointError::BadChecksum);
    }
    d.finish()?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(0xab);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 7);
        e.usize(12345);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bool(true);
        e.bool(false);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.opt_f64(Some(2.5));
        e.opt_f64(None);
        let bytes = e.into_vec();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.opt_f64().unwrap(), Some(2.5));
        assert_eq!(d.opt_f64().unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.into_vec();
        let mut d = Dec::new(&bytes[..5]);
        assert_eq!(d.u64(), Err(CheckpointError::Truncated { at: 0 }));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut d = Dec::new(&[7]);
        assert!(matches!(d.bool(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv_matches_known_vector() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn seal_open_round_trips() {
        let sealed = seal(42, b"payload");
        assert_eq!(open(&sealed, 42).unwrap(), b"payload");
    }

    #[test]
    fn open_rejects_wrong_fingerprint() {
        let sealed = seal(42, b"payload");
        assert!(matches!(
            open(&sealed, 43),
            Err(CheckpointError::ConfigMismatch {
                expected: 43,
                found: 42
            })
        ));
    }

    #[test]
    fn open_rejects_tampering() {
        let mut sealed = seal(42, b"payload");
        assert_eq!(open(&sealed, 42).unwrap(), b"payload");
        let n = sealed.len();
        sealed[n - 10] ^= 1; // flip a payload bit
        assert_eq!(open(&sealed, 42), Err(CheckpointError::BadChecksum));
    }

    #[test]
    fn open_rejects_wrong_magic_and_version() {
        let mut sealed = seal(0, b"x");
        sealed[0] ^= 1;
        assert_eq!(open(&sealed, 0), Err(CheckpointError::BadMagic));
        let mut sealed = seal(0, b"x");
        sealed[8] = 99; // version byte
        assert!(matches!(
            open(&sealed, 0),
            Err(CheckpointError::BadVersion { .. })
        ));
    }

    #[test]
    fn open_rejects_truncation_and_trailing() {
        let sealed = seal(7, b"abc");
        assert!(open(&sealed[..sealed.len() - 1], 7).is_err());
        let mut extended = sealed.clone();
        extended.push(0);
        assert!(open(&extended, 7).is_err());
    }
}
