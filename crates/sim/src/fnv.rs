//! 64-bit FNV-1a: the one hash behind every determinism fingerprint.
//!
//! Lifecycle trace hashes, durable-log frame checksums and seals, the
//! fleet trace fold, and the golden-replay digests all hash with this
//! type. It implements [`Hasher`] for byte slices and [`fmt::Write`] so a
//! `Debug` rendering can be hashed with `write!` without building a
//! `String` first. Hashing is a pure byte fold: writing the same bytes in
//! any number of pieces yields the same value.
//!
//! Integers go through [`Hasher::write`] with an explicit byte order
//! (`to_le_bytes`); the default `write_u64` & co. hash native-endian
//! bytes and would make fingerprints host-dependent.

use std::fmt;
use std::hash::Hasher;

/// A running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard 64-bit offset basis: the hash of no bytes.
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hash at the offset basis.
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// FNV-1a of `bytes` in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn standard_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hashing_in_pieces_equals_hashing_at_once() {
        let bytes = b"the quick brown fox jumps over the lazy dog";
        for split in 0..=bytes.len() {
            let mut h = Fnv1a::new();
            h.write(&bytes[..split]);
            h.write(&bytes[split..]);
            assert_eq!(h.finish(), Fnv1a::hash(bytes), "split at {split}");
        }
        let mut h = Fnv1a::new();
        write!(h, "{:?}-{}", (1u8, "x"), 42).unwrap();
        assert_eq!(
            h.finish(),
            Fnv1a::hash(format!("{:?}-{}", (1u8, "x"), 42).as_bytes())
        );
    }
}
