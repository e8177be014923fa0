//! A fast hasher for maps keyed by machine words.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash step with a rotating finish, for word keys: node ids, node
/// addresses and signature hashes. Those keys come from this process's own
/// graphs and views, so the tables need speed, not SipHash's resistance to
/// chosen keys. The finish rotates the well-mixed high bits of the product down,
/// because the tables index buckets by the low bits and an address is a multiple
/// of its alignment.
#[derive(Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
