//! `checkpoint` — a versioned, zero-dependency binary snapshot codec.
//!
//! The simulator's crash-safety layer needs to freeze the *entire* mutable
//! state of a run (router buffers, controller state, RNG state, metrics)
//! and later resume it with the golden property *snapshot at cycle C +
//! restore + run to end ≡ uninterrupted run, bit for bit*. This crate
//! provides the byte-level plumbing every state-owning crate shares:
//!
//! * [`Enc`] / [`Dec`] — little-endian primitive writers/readers and one
//!   canonical LEB128 varint pair ([`Enc::varint`] / [`Dec::varint`]),
//!   with typed, non-panicking decode errors ([`CheckpointError`]),
//! * [`seal`] / [`seal_with`] / [`open`] — a self-describing container:
//!   magic, format version, a caller-supplied *configuration fingerprint*
//!   (so a snapshot is never restored into a simulation built from a
//!   different configuration), payload length and a CRC-32 integrity check,
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
///
/// v3: no layout change — the workload's `next_gen` array changed meaning.
/// It is now every node's next-packet deadline under every process
/// (Bernoulli sources draw geometric gaps into it); a v2 writer left it
/// unused under Bernoulli, so a v2 snapshot would resume a different
/// stream and is refused.
///
/// v4: network payloads carry only ground truth. The starvation
/// deadline array, the worklist words, the full-buffer census and the
/// per-VC token-queue flags are gone; restore derives them.
///
/// v5: controller and simulation payloads carry only ground truth too.
/// A side-band controller writes its scaffold frame as one block — the
/// buffer count its law was sized with, the gate bit, the watchdog state
/// and counters — ahead of the law's own fields. Gone: the snapshot-dedup
/// cycle, every value a law's sizing computes from the buffer count, the
/// DEC-bit verdict (a function of its window) and the simulation's
/// warm-up flag (a function of the clock).
///
/// v6: the packet store writes what it holds, not its slot array. The
/// free list comes first and a freed slot writes nothing (`alloc`
/// overwrites it whole). A live packet still exactly as `offer` wrote it
/// is a tag, `src` and `dst` (`u32`) and its generation cycle: 17 bytes,
/// where v5 wrote 44 for every slot. Any other live packet is a tag
/// carrying its sticky escape bit, then its fields. Gone: every packet's
/// length (always the configured one) and the separate escape-flag array.
/// Undrained delivery records write node ids as `u32` and no length.
///
/// v7: a side-band controller's frame carries the tuning period being
/// folded (delivered flits, the previous period's, the census sum, the
/// gathers and the gate-closed and total cycles) and the decision tallies
/// (`decisions`, `raises`, `cuts`, `resets`) ahead of the watchdog
/// counters; the laws no longer write either. BBR's filter samples are
/// `u64`s.
///
/// v8: a queued packet is a source-queue entry, not a packet record. A
/// source queue writes each entry as its destination (`u32`) and
/// generation cycle: 12 bytes, where v7 wrote a 4-byte id plus a 17-byte
/// record. A packet gets its record when its injection wins routing, so
/// every record is a tag carrying the sticky escape bit, then `src`,
/// `dst`, the generation and injection cycles, the delivered count and
/// `last_move` (v7's tag 0, a record still as `offer` wrote it, is gone).
///
/// v9: a section writes what its state holds, not the network's shape.
/// Counts, ids, nodes and cycle stamps are [`Enc::varint`]s, and every
/// stamp is an offset back from the checkpoint's clock. An input VC is a
/// tag byte (assignment kind, ring non-empty, blocked count non-zero)
/// followed only by what that state reads, so an idle VC is one byte; a
/// ring writes its front index and each packet run's id once. A source
/// queue entry's generation cycle is its gap from the entry before it;
/// output-VC allocation is one bit per VC, a round-robin cursor one byte,
/// an idle injection interface one byte.
///
/// v10: only state something reads. A latency statistic is its count and
/// sum, two varints (v9 wrote a minimum, a maximum and a 40-bucket
/// histogram beside them, 704 bytes per statistic). A delivery record has
/// no recovery flag. A switchable input VC writes its routing cycle after
/// its ring, and only when the ring's front is a header: under a body
/// flit, or with no flit, nothing reads it and a restore leaves it 0.
///
/// v11: no layout change — the configuration fingerprint changed. The
/// controllers' one-valued settings became constants of their laws, so a
/// configuration prints fewer fields and hashes differently; a v10
/// container would be refused as a configuration mismatch, so it is
/// refused by version instead.
///
/// v12: an in-progress Disha recovery writes no drain path. The path is
/// the route tables' dimension-order walk from the source VC's router to
/// the packet's destination, so a restore derives it from the job's packet
/// and source VC, and a container can no longer steer a drain off that
/// walk. A restore refuses a job whose packet is not live.
pub const VERSION: u32 = 12;

/// Most bytes [`Enc::varint`] writes: ⌈64 / 7⌉.
const VARINT_MAX_LEN: usize = 10;

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

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent layout).
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via [`f64::to_bits`] (bit-exact, NaN-safe).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes `v` as an unsigned LEB128 varint: seven bits a byte, least
    /// significant group first, the high bit set on every byte but the
    /// last. The encoding is the shortest one, so each value has exactly
    /// one ([`Dec::varint`] refuses any other).
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    #[inline]
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes every element as [`Enc::u64`] would, after one `reserve`;
    /// the reader takes them back one [`Dec::u64`] at a time.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.u64(v);
        }
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
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
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
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    #[inline]
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
    #[inline]
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` written by [`Enc::f64`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] if the stream is exhausted.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] on a short stream;
    /// [`CheckpointError::Corrupt`] on a byte other than 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool out of range")),
        }
    }

    /// Reads a varint written by [`Enc::varint`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at the varint's start if the stream
    /// ends inside it; [`CheckpointError::Corrupt`] on an encoding longer
    /// than the shortest (a zero last byte after the first) or one that
    /// does not fit a `u64` (past ten bytes, or bits past the 64th).
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CheckpointError> {
        let at = self.pos;
        let mut v = 0u64;
        for i in 0..VARINT_MAX_LEN {
            let Some(&b) = self.buf.get(self.pos) else {
                return Err(CheckpointError::Truncated { at });
            };
            self.pos += 1;
            let group = u64::from(b & 0x7f);
            if i == VARINT_MAX_LEN - 1 && group > 1 {
                break;
            }
            v |= group << (7 * i);
            if b < 0x80 {
                if b == 0 && i > 0 {
                    return Err(CheckpointError::Corrupt("overlong varint"));
                }
                return Ok(v);
            }
        }
        Err(CheckpointError::Corrupt("varint overflows u64"))
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

/// The reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xedb8_8320;

/// Input bytes one table step of [`crc32`] consumes.
const SLICE: usize = 16;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes, so sixteen table reads advance the register over sixteen
/// input bytes with no dependency between the reads.
static CRC_TABLES: [[u32; 256]; SLICE] = crc_tables();

const fn crc_tables() -> [[u32; 256]; SLICE] {
    let mut t = [[0u32; 256]; SLICE];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY * (crc & 1));
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, sixteen bytes per step.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(SLICE);
    for block in &mut blocks {
        let mut x = [0u8; SLICE];
        x.copy_from_slice(block);
        let head = crc ^ u32::from_le_bytes([x[0], x[1], x[2], x[3]]);
        x[..4].copy_from_slice(&head.to_le_bytes());
        // Byte `i` is followed by `SLICE - 1 - i` more in the block.
        crc = (0..SLICE).fold(0, |acc, i| acc ^ t[SLICE - 1 - i][usize::from(x[i])]);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Bytes of container before the payload: magic, version, fingerprint,
/// payload length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8 + 8;

/// Builds a sealed container in one buffer: the header, whatever `write`
/// encodes as the payload, then the CRC-32 of everything prior. The
/// buffer grows as `write` appends, as a `Vec` does.
#[must_use]
pub fn seal_with(fingerprint: u64, write: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&MAGIC);
    e.u32(VERSION);
    e.u64(fingerprint);
    e.u64(0); // payload length, known once `write` returns
    write(&mut e);
    let len = (e.buf.len() - HEADER_LEN) as u64;
    e.buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&e.buf);
    e.u32(crc);
    e.buf
}

/// Wraps `payload` in the versioned container: magic, [`VERSION`],
/// `fingerprint`, payload length, payload, CRC-32 of everything prior.
#[must_use]
pub fn seal(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    seal_with(fingerprint, |e| e.bytes(payload))
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

    /// Varint inputs: each group boundary, the top bit alone and the
    /// largest value.
    const VARINTS: [u64; 7] = [0, 1, 127, 128, 16_383, 1 << 63, u64::MAX];

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        for v in VARINTS {
            e.varint(v);
        }
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
        assert_eq!(bytes[..6], [0, 1, 0x7f, 0x80, 0x01, 0xff]);
        let mut d = Dec::new(&bytes);
        for v in VARINTS {
            assert_eq!(d.varint().unwrap(), v);
        }
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
        // A varint cut at any byte is truncated at its start.
        for v in VARINTS {
            let mut e = Enc::new();
            e.u8(0xee);
            e.varint(v);
            let bytes = e.into_vec();
            for cut in 1..bytes.len() {
                let mut d = Dec::new(&bytes[..cut]);
                d.u8().unwrap();
                assert_eq!(d.varint(), Err(CheckpointError::Truncated { at: 1 }));
            }
        }
    }

    #[test]
    fn bad_primitives_are_corrupt() {
        let mut d = Dec::new(&[7]);
        assert!(matches!(d.bool(), Err(CheckpointError::Corrupt(_))));
        // A varint has one encoding: neither padded with an empty last
        // group (zero, and one) nor past 64 bits (a tenth byte above 1, an
        // eleventh byte).
        for bytes in [
            &[0x80, 0x00][..],
            &[0x81, 0x80, 0x00],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00,
            ],
        ] {
            let got = Dec::new(bytes).varint();
            assert!(
                matches!(got, Err(CheckpointError::Corrupt(_))),
                "{bytes:?} read as {got:?}"
            );
        }
    }

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY * (crc & 1));
            }
        }
        !crc
    }

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = traffic::SimRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn table_crc_matches_bitwise_reference() {
        // Every length across the 16-byte step and its tail, at every
        // alignment of the slice start.
        let buf = random_bytes(80, 1);
        for offset in 0..16 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
            }
        }
        let big = random_bytes(1 << 20, 2);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
        assert_eq!(crc32(&big[3..]), crc32_bitwise(&big[3..]));
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

    /// The container layout, spelled out: any change to it is a format
    /// change and must bump [`VERSION`].
    #[test]
    fn seal_matches_hand_assembled_container() {
        let payload = b"some payload bytes";
        let mut want = b"STCCKPT\0".to_vec();
        want.extend_from_slice(&12u32.to_le_bytes());
        want.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        want.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        want.extend_from_slice(payload);
        let crc = crc32_bitwise(&want);
        want.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(seal(0x0123_4567_89ab_cdef, payload), want);
        // The in-place writer produces the same bytes.
        let sealed = seal_with(0x0123_4567_89ab_cdef, |e| {
            e.u16(u16::from_le_bytes([payload[0], payload[1]]));
            e.bytes(&payload[2..]);
        });
        assert_eq!(sealed, want);
        assert_eq!(seal(9, b""), seal_with(9, |_| {}));
    }

    #[test]
    fn open_rejects_every_single_bit_flip() {
        let sealed = seal(42, b"tiny payload");
        assert!(open(&sealed, 42).is_ok());
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(open(&bad, 42).is_err(), "bit {bit} flipped unnoticed");
        }
    }

    #[test]
    fn slice_helpers_write_the_per_element_bytes() {
        let words = [0u64, 1, u64::MAX, 0x0102_0304_0506_0708, 7];
        let mut one_by_one = Enc::new();
        for &w in &words {
            one_by_one.u64(w);
        }
        let mut sliced = Enc::new();
        sliced.u64s(&words);
        let bytes = sliced.into_vec();
        assert_eq!(bytes, one_by_one.into_vec());

        let mut d = Dec::new(&bytes);
        for &w in &words {
            assert_eq!(d.u64().unwrap(), w);
        }
        d.finish().unwrap();
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
