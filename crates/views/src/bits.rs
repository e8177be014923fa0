//! Exact-length bit strings.
//!
//! The paper measures *advice* as a single binary string given to every node; its
//! length in bits is the "size of advice". [`BitString`] keeps the exact length
//! (not rounded to bytes) so that measured advice sizes can be compared to the
//! paper's bounds bit-for-bit, and packs the bits into `u64` words, most
//! significant bit first, so that fixed-width fields move up to 64 bits per step.

/// Bits per storage word.
const WORD: usize = 64;

/// A growable sequence of bits with fixed-width integer read/write helpers.
///
/// Bit `i` is bit `63 − i % 64` of word `i / 64`. The words hold exactly the
/// `len` bits rounded up to a whole word, and the bits past `len` are 0, so the
/// derived equality and hash are those of the bit sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// The empty bit string (advice of size 0).
    pub fn new() -> Self {
        BitString::default()
    }

    /// Number of bits — the *size of advice* in the paper's terminology.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the string empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Append every bit of `other`, in order, a word at a time. The codecs splice
    /// their node tables into the output with it.
    pub fn append(&mut self, other: &BitString) {
        if self.len.is_multiple_of(WORD) {
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            return;
        }
        let mut rest = other.len;
        for &word in &other.words {
            let width = rest.min(WORD);
            self.push_bits(word >> (WORD - width), width);
            rest -= width;
        }
    }

    /// Remove every bit, keeping the allocation. Scratch buffers on hot paths (the
    /// metered transport's per-message serialisation) clear and refill one string
    /// instead of allocating a fresh one per message.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Append the `width` low-order bits of `value`, most significant first.
    /// Panics if `value` does not fit in `width` bits.
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(width <= WORD, "width must be at most 64");
        if width < WORD {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        self.push_bits(value, width);
    }

    /// [`BitString::push_uint`] without the checks: `width ≤ 64` and `value` fits.
    fn push_bits(&mut self, value: u64, width: usize) {
        if width == 0 {
            return;
        }
        let used = self.len % WORD;
        if used == 0 {
            self.words.push(0);
        }
        let free = WORD - used;
        let last = self.words.len() - 1;
        if width <= free {
            self.words[last] |= value << (free - width);
        } else {
            // `free < width ≤ 64`, so both shifts stay below 64.
            let spill = width - free;
            self.words[last] |= value >> spill;
            self.words.push(value << (WORD - spill));
        }
        self.len += width;
    }

    /// Bit at position `i`. Panics if `i ≥ len`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for a {}-bit string",
            self.len
        );
        (self.words[i / WORD] >> (WORD - 1 - i % WORD)) & 1 == 1
    }

    /// Iterate over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.bit(i))
    }

    /// Render as a 0/1 string (for debugging and experiment output).
    pub fn to_binary_string(&self) -> String {
        self.iter().map(|b| if b { '1' } else { '0' }).collect()
    }

    /// Parse from a 0/1 string.
    pub fn from_binary_string(s: &str) -> Option<BitString> {
        let mut bits = BitString::new();
        for c in s.chars() {
            match c {
                '0' => bits.push_bit(false),
                '1' => bits.push_bit(true),
                _ => return None,
            }
        }
        Some(bits)
    }

    /// Append `value` as a variable-length integer: groups of 4 payload bits (least
    /// significant group first), each preceded by a continuation bit that is 1 iff
    /// more groups follow. Values below 16 cost 5 bits, and the cost grows by 5 bits
    /// per factor of 16 — the encoding the DAG view codec uses for node ids, which
    /// are almost always small.
    ///
    /// ```
    /// use anet_views::BitString;
    /// let mut b = BitString::new();
    /// b.push_varint(7);
    /// b.push_varint(1000);
    /// let mut r = b.reader();
    /// assert_eq!(r.read_varint(), Some(7));
    /// assert_eq!(r.read_varint(), Some(1000));
    /// ```
    pub fn push_varint(&mut self, mut value: u64) {
        loop {
            let group = value & 0xF;
            value >>= 4;
            // The continuation bit and the group as one 5-bit field.
            self.push_bits((u64::from(value != 0) << 4) | group, 5);
            if value == 0 {
                return;
            }
        }
    }

    /// A cursor for sequential reads.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { bits: self, pos: 0 }
    }

    /// Number of bits needed to write any value in `0..=max_value`
    /// (at least 1, so that a value can always be read back).
    pub fn width_for(max_value: u64) -> usize {
        (64 - max_value.leading_zeros() as usize).max(1)
    }
}

/// Sequential reader over a [`BitString`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a BitString,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read one bit; `None` when exhausted.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_uint(1).map(|b| b == 1)
    }

    /// Read a `width`-bit unsigned integer (most significant bit first).
    pub fn read_uint(&mut self, width: usize) -> Option<u64> {
        if width > WORD || width > self.remaining() {
            return None;
        }
        if width == 0 {
            return Some(0);
        }
        let (index, used) = (self.pos / WORD, self.pos % WORD);
        let words = &self.bits.words;
        // The word's unread bits, moved to the top; the next word fills in below
        // them when the field crosses the boundary (then `used > 0`, so the shift
        // by `WORD - used` stays below 64).
        let mut top = words[index] << used;
        if width > WORD - used {
            top |= words[index + 1] >> (WORD - used);
        }
        self.pos += width;
        Some(top >> (WORD - width))
    }

    /// Read a variable-length integer written by [`BitString::push_varint`]. `None`
    /// when the string ends mid-value or the value would exceed 64 bits (16 groups) —
    /// the cursor position is unspecified afterwards, so treat `None` as fatal.
    pub fn read_varint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for group in 0..16 {
            let more = self.read_bit()?;
            let payload = self.read_uint(4)?;
            value |= payload << (4 * group);
            if !more {
                return Some(value);
            }
        }
        None // a 17th group would shift past 64 bits
    }

    /// Number of bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits.len - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_round_trip() {
        let mut b = BitString::new();
        b.push_uint(5, 3);
        b.push_bit(true);
        b.push_uint(1023, 10);
        b.push_uint(0, 4);
        assert_eq!(b.len(), 18);

        let mut r = b.reader();
        assert_eq!(r.read_uint(3), Some(5));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_uint(10), Some(1023));
        assert_eq!(r.read_uint(4), Some(0));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_uint(1), None);
    }

    #[test]
    fn append_concatenates_in_order() {
        let mut head = BitString::from_binary_string("101").unwrap();
        let tail = BitString::from_binary_string("0011").unwrap();
        head.append(&tail);
        assert_eq!(head.to_binary_string(), "1010011");
        assert_eq!(tail.len(), 4, "the appended string is left as it was");
        head.append(&BitString::new());
        assert_eq!(head.len(), 7);
        let mut empty = BitString::new();
        empty.append(&tail);
        assert_eq!(empty, tail);
    }

    #[test]
    fn width_checked_on_push() {
        let mut b = BitString::new();
        b.push_uint(7, 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut b = BitString::new();
        b.push_uint(8, 3);
    }

    #[test]
    fn binary_string_round_trip() {
        let mut b = BitString::new();
        b.push_uint(0b1011, 4);
        assert_eq!(b.to_binary_string(), "1011");
        assert_eq!(BitString::from_binary_string("1011"), Some(b));
        assert_eq!(BitString::from_binary_string("10x1"), None);
        assert_eq!(BitString::from_binary_string(""), Some(BitString::new()));
    }

    #[test]
    fn width_for_is_minimal() {
        assert_eq!(BitString::width_for(0), 1);
        assert_eq!(BitString::width_for(1), 1);
        assert_eq!(BitString::width_for(2), 2);
        assert_eq!(BitString::width_for(3), 2);
        assert_eq!(BitString::width_for(4), 3);
        assert_eq!(BitString::width_for(255), 8);
        assert_eq!(BitString::width_for(256), 9);
    }

    #[test]
    fn empty_string_properties() {
        let b = BitString::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.to_binary_string(), "");
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn varint_round_trips_across_the_range() {
        let values = [0u64, 1, 15, 16, 255, 256, 4095, 1 << 20, u64::MAX];
        let mut b = BitString::new();
        for &v in &values {
            b.push_varint(v);
        }
        let mut r = b.reader();
        for &v in &values {
            assert_eq!(r.read_varint(), Some(v));
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_costs_five_bits_per_group() {
        for (value, groups) in [(0u64, 1usize), (15, 1), (16, 2), (255, 2), (256, 3)] {
            let mut b = BitString::new();
            b.push_varint(value);
            assert_eq!(b.len(), 5 * groups, "value {value}");
        }
    }

    #[test]
    fn truncated_varint_reads_none() {
        let mut b = BitString::new();
        b.push_varint(1 << 20);
        let cut = BitString::from_binary_string(&b.to_binary_string()[..b.len() - 3]).unwrap();
        assert_eq!(cut.reader().read_varint(), None);
        assert_eq!(BitString::new().reader().read_varint(), None);
    }

    #[test]
    fn overlong_varint_reads_none() {
        // 17 groups, every continuation bit set: the value would exceed 64 bits.
        let mut b = BitString::new();
        for _ in 0..17 {
            b.push_bit(true);
            b.push_uint(1, 4);
        }
        assert_eq!(b.reader().read_varint(), None);
    }

    /// A reference string of `len` bits drawn from `rng`, pushed bit by bit.
    fn random_bits(rng: &mut anet_graph::rng::Rng, len: usize) -> BitString {
        let mut b = BitString::new();
        for _ in 0..len {
            b.push_bit(rng.gen_bool());
        }
        b
    }

    #[test]
    fn every_width_reads_back_at_every_offset() {
        let mut rng = anet_graph::rng::Rng::seed(64);
        for offset in 0..64 {
            for width in 0..=64usize {
                let mask = if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                // The all-ones value, one with only the top bit set and a random one.
                let top = if width == 0 { 0 } else { 1u64 << (width - 1) };
                for value in [mask, top, rng.next_u64() & mask] {
                    let mut b = random_bits(&mut rng, offset);
                    let prefix = b.reader().read_uint(offset);
                    b.push_uint(value, width);
                    b.push_bit(true);
                    assert_eq!(b.len(), offset + width + 1);
                    let mut r = b.reader();
                    assert_eq!(r.read_uint(offset), prefix);
                    assert_eq!(
                        r.read_uint(width),
                        Some(value),
                        "offset {offset} width {width}"
                    );
                    assert_eq!(r.read_bit(), Some(true));
                    assert_eq!(r.remaining(), 0);
                    for (i, bit) in b.iter().enumerate().skip(offset).take(width) {
                        assert_eq!(bit, (value >> (width - 1 - (i - offset))) & 1 == 1);
                    }
                }
            }
        }
    }

    #[test]
    fn append_matches_bitwise_pushes_at_every_offset() {
        let mut rng = anet_graph::rng::Rng::seed(130);
        for offset in 0..130 {
            for len in 0..130 {
                let mut head = random_bits(&mut rng, offset);
                let tail = random_bits(&mut rng, len);
                let mut expected = head.clone();
                for bit in tail.iter() {
                    expected.push_bit(bit);
                }
                head.append(&tail);
                assert_eq!(head, expected, "offset {offset} len {len}");
                assert_eq!(head.to_binary_string(), expected.to_binary_string());
            }
        }
    }

    #[test]
    fn varints_read_back_across_a_word_boundary() {
        for offset in 50..70 {
            for value in [0u64, 15, 16, 1000, u64::MAX] {
                let mut b = BitString::from_binary_string(&"1".repeat(offset)).unwrap();
                b.push_varint(value);
                let mut r = b.reader();
                assert!((0..offset).all(|_| r.read_bit() == Some(true)));
                assert_eq!(r.read_varint(), Some(value), "offset {offset}");
                assert_eq!(r.remaining(), 0);
            }
        }
    }

    #[test]
    fn one_sequence_built_three_ways_is_one_string() {
        use std::hash::{BuildHasher, RandomState};
        let mut rng = anet_graph::rng::Rng::seed(3);
        let by_bit = random_bits(&mut rng, 300);
        let text = by_bit.to_binary_string();
        // Chunks of uneven widths, each pushed as one integer.
        let mut by_uint = BitString::new();
        let mut at = 0;
        for width in [1usize, 7, 64, 3, 63, 0, 2, 64, 33, 20, 43]
            .into_iter()
            .cycle()
        {
            let width = width.min(300 - at);
            // An empty chunk does not parse; its value is 0.
            let value = u64::from_str_radix(&text[at..at + width], 2).unwrap_or(0);
            by_uint.push_uint(value, width);
            at += width;
            if at == 300 {
                break;
            }
        }
        // Pieces of uneven lengths, appended.
        let mut by_append = BitString::new();
        for piece in [
            &text[..5],
            &text[5..69],
            &text[69..70],
            &text[70..200],
            &text[200..],
        ] {
            by_append.append(&BitString::from_binary_string(piece).unwrap());
        }
        let state = RandomState::new();
        for other in [&by_uint, &by_append] {
            assert_eq!(other, &by_bit);
            assert_eq!(state.hash_one(other), state.hash_one(&by_bit));
        }
    }

    #[test]
    fn a_cleared_and_refilled_string_equals_a_fresh_one() {
        let mut rng = anet_graph::rng::Rng::seed(9);
        let mut reused = random_bits(&mut rng, 200);
        reused.clear();
        assert_eq!(reused, BitString::new());
        reused.push_uint(5, 3);
        let mut fresh = BitString::new();
        fresh.push_uint(5, 3);
        assert_eq!(reused, fresh);
        assert_eq!(reused.to_binary_string(), "101");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_past_the_end_panics() {
        let mut b = BitString::new();
        b.push_uint(0, 64);
        b.bit(64);
    }

    #[test]
    fn sixty_four_bit_values_supported() {
        let mut b = BitString::new();
        b.push_uint(u64::MAX, 64);
        let mut r = b.reader();
        assert_eq!(r.read_uint(64), Some(u64::MAX));
    }
}
