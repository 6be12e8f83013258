//! Deterministic fast hashing for protocol-internal maps.
//!
//! The interval log and the exchange path perform millions of map
//! operations per run, keyed by small integers ([`tm_page::PageId`],
//! sequence numbers).  The standard library's default SipHash hasher is
//! designed to resist hash-flooding from untrusted keys, which these are
//! not; its per-lookup cost is pure overhead here.  `FastHasher` is an
//! FxHash-style multiplicative hasher: a single rotate/xor/multiply per
//! written word.
//!
//! It is also fully deterministic — unlike `RandomState`, which seeds
//! itself per process — so map iteration order can never vary between
//! runs.  (Protocol code must not depend on map iteration order either
//! way, but determinism here removes a whole class of accidental
//! irreproducibility.)

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// An FxHash-style multiplicative hasher for small trusted integer keys.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplicative constant (from FxHash / Firefox); spreads low-entropy
/// integer keys across the whole 64-bit range.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn deterministic_across_builders() {
        let b1 = BuildHasherDefault::<FastHasher>::default();
        let b2 = BuildHasherDefault::<FastHasher>::default();
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            let mut h1 = b1.build_hasher();
            let mut h2 = b2.build_hasher();
            key.hash(&mut h1);
            key.hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish());
        }
    }

    #[test]
    fn distinct_small_keys_spread() {
        let b = BuildHasherDefault::<FastHasher>::default();
        let mut seen = std::collections::HashSet::new();
        for key in 0u64..1024 {
            let mut h = b.build_hasher();
            key.hash(&mut h);
            assert!(seen.insert(h.finish()), "collision for {key}");
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastHashMap<(u64, u32), u32> = FastHashMap::default();
        for i in 0..100u32 {
            m.insert((i as u64 * 7, i), i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(&(i as u64 * 7, i)), Some(&i));
        }
    }
}
