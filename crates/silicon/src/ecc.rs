//! Hamming SECDED — the conventional full-word protection baseline.
//!
//! Section 6.2 of the paper compares selective MSB protection against
//! single-error-correcting, double-error-detecting (SECDED) ECC over the
//! whole LLR word and finds ECC inefficient (≥35 % storage overhead for a
//! 10-bit word). This module implements parameterized Hamming SECDED so
//! the comparison can be reproduced in simulation, not just in the area
//! model.

/// Outcome of a SECDED decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// No error detected.
    Clean,
    /// A single-bit error was detected and corrected.
    Corrected,
    /// A double-bit error was detected; data is unreliable.
    DoubleError,
}

/// A Hamming SECDED code for `k` data bits.
///
/// Uses the classic construction: parity bits at power-of-two positions of
/// a 1-indexed codeword, plus an overall parity bit for double-error
/// detection.
///
/// # Example
///
/// ```
/// use silicon::ecc::{Secded, DecodeOutcome};
///
/// let code = Secded::new(10);
/// let cw = code.encode(0b10_1100_0111);
/// let (data, outcome) = code.decode(cw ^ (1 << 3)); // flip one bit
/// assert_eq!(outcome, DecodeOutcome::Corrected);
/// assert_eq!(data, 0b10_1100_0111);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Secded {
    data_bits: u8,
    parity_bits: u8,
}

impl Secded {
    /// Creates a SECDED code for `data_bits`-wide words.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is not in `1..=26` (codeword must fit in
    /// `u32`).
    pub fn new(data_bits: u8) -> Self {
        assert!(
            (1..=26).contains(&data_bits),
            "data width must be in 1..=26"
        );
        let mut r = 0u8;
        while (1u32 << r) < data_bits as u32 + r as u32 + 1 {
            r += 1;
        }
        Self {
            data_bits,
            parity_bits: r,
        }
    }

    /// Number of protected data bits.
    pub fn data_bits(&self) -> u8 {
        self.data_bits
    }

    /// Number of Hamming parity bits (excluding the overall parity bit).
    pub fn parity_bits(&self) -> u8 {
        self.parity_bits
    }

    /// Total codeword width: data + Hamming parity + overall parity.
    pub fn codeword_bits(&self) -> u8 {
        self.data_bits + self.parity_bits + 1
    }

    /// Storage overhead versus the bare data word
    /// (`codeword_bits/data_bits − 1`). For 10-bit data this is 50 % with
    /// SECDED or 40 % with bare Hamming — the ≥35 % regime the paper
    /// dismisses.
    pub fn storage_overhead(&self) -> f64 {
        self.codeword_bits() as f64 / self.data_bits as f64 - 1.0
    }

    /// Encodes `data` (low `data_bits` bits) into a SECDED codeword.
    ///
    /// Codeword layout: bits 1..=n are the Hamming codeword (1-indexed,
    /// parity at powers of two), bit 0 is the overall parity.
    pub fn encode(&self, data: u32) -> u32 {
        let n = (self.data_bits + self.parity_bits) as u32;
        let mut cw = 0u32; // 1-indexed Hamming positions stored at bit p
                           // Place data bits at non-power-of-two positions.
        let mut d = 0u8;
        for pos in 1..=n {
            if !pos.is_power_of_two() {
                if (data >> d) & 1 != 0 {
                    cw |= 1 << pos;
                }
                d += 1;
            }
        }
        // Compute parity bits.
        for p in 0..self.parity_bits {
            let pp = 1u32 << p;
            let mut parity = 0u32;
            for pos in 1..=n {
                if pos & pp != 0 {
                    parity ^= (cw >> pos) & 1;
                }
            }
            if parity != 0 {
                cw |= 1 << pp;
            }
        }
        // Overall parity over all Hamming bits, stored at bit 0.
        let overall = (cw >> 1).count_ones() & 1;
        cw | overall
    }

    /// Decodes a (possibly corrupted) codeword.
    ///
    /// Returns the recovered data and the [`DecodeOutcome`]. On
    /// [`DecodeOutcome::DoubleError`] the returned data is a best-effort
    /// extraction of the uncorrected payload.
    pub fn decode(&self, cw: u32) -> (u32, DecodeOutcome) {
        let n = (self.data_bits + self.parity_bits) as u32;
        // Syndrome.
        let mut syndrome = 0u32;
        for p in 0..self.parity_bits {
            let pp = 1u32 << p;
            let mut parity = 0u32;
            for pos in 1..=n {
                if pos & pp != 0 {
                    parity ^= (cw >> pos) & 1;
                }
            }
            if parity != 0 {
                syndrome |= pp;
            }
        }
        let overall_ok = ((cw >> 1).count_ones() & 1) == (cw & 1);
        let (fixed, outcome) = match (syndrome, overall_ok) {
            (0, true) => (cw, DecodeOutcome::Clean),
            (0, false) => (cw ^ 1, DecodeOutcome::Corrected), // overall parity bit itself flipped
            (s, false) if s <= n => (cw ^ (1 << s), DecodeOutcome::Corrected),
            (_, false) => (cw, DecodeOutcome::DoubleError), // syndrome points outside word
            (_, true) => (cw, DecodeOutcome::DoubleError),
        };
        (self.extract(fixed), outcome)
    }

    /// Extracts the data bits from a codeword without checking parity.
    pub fn extract(&self, cw: u32) -> u32 {
        let n = (self.data_bits + self.parity_bits) as u32;
        let mut data = 0u32;
        let mut d = 0u8;
        for pos in 1..=n {
            if !pos.is_power_of_two() {
                data |= ((cw >> pos) & 1) << d;
                d += 1;
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameters_for_10_bits() {
        let c = Secded::new(10);
        assert_eq!(c.parity_bits(), 4);
        assert_eq!(c.codeword_bits(), 15);
        assert!((c.storage_overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clean_roundtrip() {
        let c = Secded::new(10);
        for data in [0u32, 1, 0x3ff, 0x2aa, 0x155] {
            let (out, outcome) = c.decode(c.encode(data));
            assert_eq!(out, data);
            assert_eq!(outcome, DecodeOutcome::Clean);
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        let c = Secded::new(10);
        let data = 0x2b7 & 0x3ff;
        let cw = c.encode(data);
        for bit in 0..c.codeword_bits() {
            let (out, outcome) = c.decode(cw ^ (1 << bit));
            assert_eq!(outcome, DecodeOutcome::Corrected, "bit {bit}");
            assert_eq!(out, data, "bit {bit}");
        }
    }

    #[test]
    fn detects_double_errors() {
        let c = Secded::new(10);
        let cw = c.encode(0x1f3);
        let mut detected = 0;
        let mut total = 0;
        for b1 in 0..c.codeword_bits() {
            for b2 in (b1 + 1)..c.codeword_bits() {
                let (_, outcome) = c.decode(cw ^ (1 << b1) ^ (1 << b2));
                total += 1;
                if outcome == DecodeOutcome::DoubleError {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, total, "SECDED must flag all double errors");
    }

    #[test]
    fn various_widths() {
        for k in [4u8, 8, 10, 11, 12, 16, 26] {
            let c = Secded::new(k);
            let data = (0xdead_beefu32) & ((1u32 << k) - 1);
            let (out, outcome) = c.decode(c.encode(data));
            assert_eq!(out, data, "width {k}");
            assert_eq!(outcome, DecodeOutcome::Clean);
        }
    }

    #[test]
    #[should_panic(expected = "data width")]
    fn rejects_wide_words() {
        let _ = Secded::new(27);
    }

    proptest! {
        #[test]
        fn single_error_correction_exhaustive(data in 0u32..1024, bit in 0u8..15) {
            let c = Secded::new(10);
            let cw = c.encode(data);
            let (out, outcome) = c.decode(cw ^ (1u32 << bit));
            prop_assert_eq!(outcome, DecodeOutcome::Corrected);
            prop_assert_eq!(out, data);
        }

        #[test]
        fn encode_is_injective(a in 0u32..1024, b in 0u32..1024) {
            let c = Secded::new(10);
            if a != b {
                prop_assert_ne!(c.encode(a), c.encode(b));
            }
        }

        #[test]
        fn codewords_differ_in_at_least_4_bits(a in 0u32..1024, b in 0u32..1024) {
            // SECDED minimum distance is 4.
            let c = Secded::new(10);
            if a != b {
                let dist = (c.encode(a) ^ c.encode(b)).count_ones();
                prop_assert!(dist >= 4, "distance {dist}");
            }
        }
    }
}
