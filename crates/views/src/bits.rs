//! Exact-length bit strings.
//!
//! The paper measures *advice* as a single binary string given to every node; its
//! length in bits is the "size of advice". [`BitString`] stores bits exactly (not
//! rounded to bytes) so that measured advice sizes can be compared to the paper's
//! bounds bit-for-bit.

/// A growable sequence of bits with fixed-width integer read/write helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// The empty bit string (advice of size 0).
    pub fn new() -> Self {
        BitString { bits: Vec::new() }
    }

    /// Number of bits — the *size of advice* in the paper's terminology.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Is the string empty?
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Append a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Append every bit of `other`, in order: one slice copy, where pushing bit
    /// by bit would check capacity per bit. The codecs splice their node tables
    /// into the output with it.
    pub fn append(&mut self, other: &BitString) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// Remove every bit, keeping the allocation. Scratch buffers on hot paths (the
    /// metered transport's per-message serialisation) clear and refill one string
    /// instead of allocating a fresh one per message.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Append the `width` low-order bits of `value`, most significant first.
    /// Panics if `value` does not fit in `width` bits.
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width must be at most 64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        for i in (0..width).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Bit at position `i`.
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Iterate over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// Render as a 0/1 string (for debugging and experiment output).
    pub fn to_binary_string(&self) -> String {
        self.bits
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    /// Parse from a 0/1 string.
    pub fn from_binary_string(s: &str) -> Option<BitString> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                _ => return None,
            }
        }
        Some(BitString { bits })
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
            self.push_bit(value != 0);
            self.push_uint(group, 4);
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
        if self.pos >= self.bits.len() {
            return None;
        }
        let b = self.bits.bit(self.pos);
        self.pos += 1;
        Some(b)
    }

    /// Read a `width`-bit unsigned integer (most significant bit first).
    pub fn read_uint(&mut self, width: usize) -> Option<u64> {
        if width > 64 || self.pos + width > self.bits.len() {
            return None;
        }
        let mut value = 0u64;
        for _ in 0..width {
            value = (value << 1) | u64::from(self.bits.bit(self.pos));
            self.pos += 1;
        }
        Some(value)
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
        self.bits.len() - self.pos
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

    #[test]
    fn sixty_four_bit_values_supported() {
        let mut b = BitString::new();
        b.push_uint(u64::MAX, 64);
        let mut r = b.reader();
        assert_eq!(r.read_uint(64), Some(u64::MAX));
    }
}
