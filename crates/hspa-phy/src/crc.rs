//! Transport-block CRC attachment (TS 25.212 §4.2.1).
//!
//! HSDPA transport blocks carry a 24-bit CRC
//! (`gCRC24(D) = D²⁴ + D²³ + D⁶ + D⁵ + D + 1`); the receiver's CRC check is
//! what turns a decoded block into an ACK or a HARQ retransmission
//! request. The 16-bit polynomial is provided for smaller test blocks.

/// A bit-serial CRC defined by its generator polynomial.
///
/// The polynomial is given without the leading `x^width` term, MSB-first
/// (e.g. gCRC24 → `0x80_0063`).
///
/// # Example
///
/// ```
/// use hspa_phy::crc::Crc;
///
/// let crc = Crc::gcrc24();
/// let data = vec![1u8, 0, 1, 1, 0, 0, 1, 0, 1];
/// let block = crc.attach(&data);
/// assert_eq!(block.len(), data.len() + 24);
/// assert!(crc.check(&block));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc {
    width: u8,
    poly: u32,
}

impl Crc {
    /// The 3GPP 24-bit CRC `D²⁴ + D²³ + D⁶ + D⁵ + D + 1`.
    pub fn gcrc24() -> Self {
        Self {
            width: 24,
            poly: 0x80_0063,
        }
    }

    /// The 3GPP 16-bit CRC `D¹⁶ + D¹² + D⁵ + 1` (CCITT).
    pub fn gcrc16() -> Self {
        Self {
            width: 16,
            poly: 0x1021,
        }
    }

    /// Creates a CRC from an explicit width and polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=31`.
    pub fn new(width: u8, poly: u32) -> Self {
        assert!((1..=31).contains(&width), "CRC width must be in 1..=31");
        Self { width, poly }
    }

    /// CRC width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Computes the CRC remainder of a bit sequence (MSB-first shifting,
    /// zero initial state, as specified by 25.212).
    pub fn remainder(&self, bits: &[u8]) -> u32 {
        let mask = (1u32 << self.width) - 1;
        let top = 1u32 << (self.width - 1);
        let mut reg = 0u32;
        for &b in bits {
            debug_assert!(b <= 1, "non-binary input bit");
            let fb = ((reg & top) != 0) ^ (b != 0);
            reg = (reg << 1) & mask;
            if fb {
                reg ^= self.poly & mask;
            }
        }
        reg
    }

    /// Appends the CRC parity bits (MSB first) to a copy of `data`.
    pub fn attach(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + self.width as usize);
        self.attach_into(data, &mut out);
        out
    }

    /// Allocation-free [`Crc::attach`]: clears `out` and fills it with
    /// `data` followed by the parity bits, reusing capacity.
    pub fn attach_into(&self, data: &[u8], out: &mut Vec<u8>) {
        let rem = self.remainder(data);
        out.clear();
        out.extend_from_slice(data);
        out.extend((0..self.width).rev().map(|i| ((rem >> i) & 1) as u8));
    }

    /// Checks a block produced by [`Crc::attach`].
    ///
    /// Returns `false` for blocks shorter than the CRC itself.
    pub fn check(&self, block: &[u8]) -> bool {
        if block.len() < self.width as usize {
            return false;
        }
        self.remainder(block) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn attach_then_check_ok() {
        let crc = Crc::gcrc24();
        let data: Vec<u8> = (0..100).map(|i| (i * 7 % 3 == 0) as u8).collect();
        assert!(crc.check(&crc.attach(&data)));
    }

    #[test]
    fn single_bit_error_detected() {
        let crc = Crc::gcrc24();
        let data: Vec<u8> = (0..64).map(|i| (i % 5 == 0) as u8).collect();
        let block = crc.attach(&data);
        for pos in 0..block.len() {
            let mut bad = block.clone();
            bad[pos] ^= 1;
            assert!(!crc.check(&bad), "missed single-bit error at {pos}");
        }
    }

    #[test]
    fn burst_errors_detected() {
        let crc = Crc::gcrc16();
        let data: Vec<u8> = (0..48).map(|i| (i % 3 == 0) as u8).collect();
        let block = crc.attach(&data);
        // All bursts up to the CRC width are detected by construction.
        for start in 0..block.len() - 16 {
            let mut bad = block.clone();
            for b in bad.iter_mut().skip(start).take(16) {
                *b ^= 1;
            }
            assert!(!crc.check(&bad), "missed burst at {start}");
        }
    }

    #[test]
    fn zero_data_nonzero_appended() {
        // All-zero data has zero remainder: block is all zeros and checks.
        let crc = Crc::gcrc24();
        let block = crc.attach(&[0u8; 40]);
        assert!(block.iter().all(|&b| b == 0));
        assert!(crc.check(&block));
    }

    #[test]
    fn short_block_fails() {
        let crc = Crc::gcrc24();
        assert!(!crc.check(&[0u8; 10]));
    }

    #[test]
    fn known_ccitt_vector() {
        // CRC-16/CCITT (init 0) of ASCII "123456789" is 0x31C3.
        let crc = Crc::gcrc16();
        let mut bits = Vec::new();
        for byte in b"123456789" {
            for i in (0..8).rev() {
                bits.push((byte >> i) & 1);
            }
        }
        assert_eq!(crc.remainder(&bits), 0x31c3);
    }

    proptest! {
        #[test]
        fn roundtrip_always_checks(data in proptest::collection::vec(0u8..2, 1..200)) {
            let crc = Crc::gcrc24();
            prop_assert!(crc.check(&crc.attach(&data)));
        }

        #[test]
        fn flip_always_detected_within_distance(data in proptest::collection::vec(0u8..2, 24..120),
                                                pos in 0usize..120) {
            let crc = Crc::gcrc24();
            let block = crc.attach(&data);
            let pos = pos % block.len();
            let mut bad = block;
            bad[pos] ^= 1;
            prop_assert!(!crc.check(&bad));
        }
    }
}
