//! Gray-mapped QAM modulation and max-log soft demapping.
//!
//! HSDPA uses QPSK and 16QAM, with 64QAM added by HSPA+ — the paper's
//! worst-case study mode. All constellations are square QAM with
//! independent Gray-coded PAM on the I and Q axes and unit average energy,
//! so per-bit LLRs decompose per axis and the max-log demapper runs in
//! `O(√M)` per symbol.
//!
//! Bit order per symbol: the first half of the bits select the I level
//! (MSB first), the second half the Q level.

use dsp::Complex64;

/// Modulation alphabets of the HSPA+ downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modulation {
    /// 4-point QAM, 2 bits per symbol.
    Qpsk,
    /// 16-point QAM, 4 bits per symbol.
    Qam16,
    /// 64-point QAM, 6 bits per symbol (the paper's evaluation mode).
    #[default]
    Qam64,
}

impl Modulation {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Bits per axis (I or Q).
    pub fn bits_per_axis(self) -> usize {
        self.bits_per_symbol() / 2
    }

    /// Number of PAM levels per axis.
    pub fn levels_per_axis(self) -> usize {
        1 << self.bits_per_axis()
    }

    /// Normalization factor so the constellation has unit average energy
    /// (`√2` for QPSK, `√10` for 16QAM, `√42` for 64QAM).
    pub fn norm(self) -> f64 {
        // Mean energy of PAM levels ±1, ±3, … ±(L-1) is (L²-1)/3 per axis.
        let l = self.levels_per_axis() as f64;
        (2.0 * (l * l - 1.0) / 3.0).sqrt()
    }

    /// Maps a bit stream to symbols.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of
    /// [`Modulation::bits_per_symbol`] or contains non-binary values.
    pub fn modulate(self, bits: &[u8]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.modulate_into(bits, &mut out);
        out
    }

    /// Allocation-free [`Modulation::modulate`]: clears `out` and fills
    /// it, reusing capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of
    /// [`Modulation::bits_per_symbol`] or contains non-binary values.
    pub fn modulate_into(self, bits: &[u8], out: &mut Vec<Complex64>) {
        let bps = self.bits_per_symbol();
        assert_eq!(bits.len() % bps, 0, "bit count must be a symbol multiple");
        crate::bits::assert_binary(bits);
        let half = self.bits_per_axis();
        let norm = self.norm();
        out.clear();
        out.extend(bits.chunks(bps).map(|chunk| {
            let i = pam_level(&chunk[..half]) / norm;
            let q = pam_level(&chunk[half..]) / norm;
            Complex64::new(i, q)
        }));
    }

    /// Max-log soft demapping: produces one LLR per bit
    /// (`ln P(0)/P(1)`, positive favours 0) given the complex noise
    /// variance `noise_var` per symbol.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is not positive.
    pub fn demodulate_soft(self, symbols: &[Complex64], noise_var: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(symbols.len() * self.bits_per_symbol());
        self.demodulate_soft_into(symbols, noise_var, &mut out);
        out
    }

    /// Allocation-free [`Modulation::demodulate_soft`]: clears `out` and
    /// fills it with one LLR per bit, reusing capacity.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is not positive.
    pub fn demodulate_soft_into(self, symbols: &[Complex64], noise_var: f64, out: &mut Vec<f64>) {
        assert!(noise_var > 0.0, "noise variance must be positive");
        let norm = self.norm();
        // Hoisted once per call (the values are identical for every
        // symbol): the un-normalized complex noise variance and the
        // per-axis LLR denominator it implies.
        let nv = noise_var * norm * norm;
        let denom = 2.0 * (nv / 2.0);
        out.clear();
        out.reserve(symbols.len() * self.bits_per_symbol());
        // Per-constellation unrolled axis demappers: the Gray code of a
        // fixed 2/4/8-level PAM axis is compile-time constant, so the
        // min-distance search over each bit's 0-set and 1-set becomes a
        // branchless `min` tree over fixed subsets — the same minima
        // (and therefore bit-identical LLRs) as the generic level loop
        // in `axis_llrs`, at a fraction of its branchy cost.
        match self {
            Modulation::Qpsk => {
                for &s in symbols {
                    axis_llrs_2pam(s.re * norm, denom, out);
                    axis_llrs_2pam(s.im * norm, denom, out);
                }
            }
            Modulation::Qam16 => {
                for &s in symbols {
                    axis_llrs_4pam(s.re * norm, denom, out);
                    axis_llrs_4pam(s.im * norm, denom, out);
                }
            }
            Modulation::Qam64 => {
                for &s in symbols {
                    axis_llrs_8pam(s.re * norm, denom, out);
                    axis_llrs_8pam(s.im * norm, denom, out);
                }
            }
        }
    }

    /// Hard-decision demapping (minimum distance).
    pub fn demodulate_hard(self, symbols: &[Complex64]) -> Vec<u8> {
        self.demodulate_soft(symbols, 1.0)
            .iter()
            .map(|&l| crate::bits::hard_decision(l))
            .collect()
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16QAM",
            Modulation::Qam64 => "64QAM",
        };
        f.write_str(s)
    }
}

/// Gray-coded PAM level for `bits` (MSB first), un-normalized
/// (±1, ±3, …).
///
/// Convention: all-zero bits map to the most positive level, consistent
/// with "bit 0 → +1" BPSK.
fn pam_level(bits: &[u8]) -> f64 {
    // Gray decode MSB-first into an index 0..L.
    let mut idx = 0usize;
    let mut acc = 0u8;
    for &b in bits {
        acc ^= b;
        idx = (idx << 1) | acc as usize;
    }
    let l = 1usize << bits.len();
    // Index 0 → +(L-1), index L-1 → -(L-1): descending by 2.
    (l as f64 - 1.0) - 2.0 * idx as f64
}

/// 2-PAM (QPSK axis): Gray map `[+1, -1]`, one bit whose 0-set is the
/// positive level.
#[inline]
fn axis_llrs_2pam(y: f64, denom: f64, out: &mut Vec<f64>) {
    let d0 = y - 1.0;
    let d1 = y - -1.0;
    out.push((d1 * d1 - d0 * d0) / denom);
}

/// 4-PAM (16QAM axis): levels `[+3, +1, -1, -3]` carry Gray patterns
/// `[00, 01, 11, 10]` (MSB first).
#[inline]
fn axis_llrs_4pam(y: f64, denom: f64, out: &mut Vec<f64>) {
    let d0 = y - 3.0;
    let d1 = y - 1.0;
    let d2 = y - -1.0;
    let d3 = y - -3.0;
    let (q0, q1, q2, q3) = (d0 * d0, d1 * d1, d2 * d2, d3 * d3);
    // MSB: 0-set {+3, +1}, 1-set {-1, -3}.
    out.push((q2.min(q3) - q0.min(q1)) / denom);
    // LSB: 0-set {+3, -3}, 1-set {+1, -1}.
    out.push((q1.min(q2) - q0.min(q3)) / denom);
}

/// 8-PAM (64QAM axis): levels `[+7, +5, +3, +1, -1, -3, -5, -7]` carry
/// Gray patterns `[000, 001, 011, 010, 110, 111, 101, 100]` (MSB
/// first).
#[inline]
fn axis_llrs_8pam(y: f64, denom: f64, out: &mut Vec<f64>) {
    let d0 = y - 7.0;
    let d1 = y - 5.0;
    let d2 = y - 3.0;
    let d3 = y - 1.0;
    let d4 = y - -1.0;
    let d5 = y - -3.0;
    let d6 = y - -5.0;
    let d7 = y - -7.0;
    let (q0, q1, q2, q3) = (d0 * d0, d1 * d1, d2 * d2, d3 * d3);
    let (q4, q5, q6, q7) = (d4 * d4, d5 * d5, d6 * d6, d7 * d7);
    // MSB: 0-set is the positive half.
    out.push((q4.min(q5).min(q6).min(q7) - q0.min(q1).min(q2).min(q3)) / denom);
    // Middle bit: 0-set {±7, ±5}, 1-set {±3, ±1}.
    out.push((q2.min(q3).min(q4).min(q5) - q0.min(q1).min(q6).min(q7)) / denom);
    // LSB: 0-set {+7, +1, -1, -7}, 1-set {+5, +3, -3, -5}.
    out.push((q1.min(q2).min(q5).min(q6) - q0.min(q3).min(q4).min(q7)) / denom);
}

/// Per-axis max-log LLRs for a received PAM value `y` on the
/// un-normalized axis; `noise_var` is the complex-symbol variance in the
/// same un-normalized units (each axis sees half of it). Kept as the
/// readable reference the unrolled per-constellation demappers are
/// checked against in tests.
#[cfg(test)]
fn axis_llrs(y: f64, bits: usize, noise_var: f64, out: &mut Vec<f64>) {
    let l = 1usize << bits;
    let axis_var = noise_var / 2.0;
    // Enumerate all levels once; for each bit take min-distance over the
    // 0-set and 1-set. L ≤ 8 so this is cheap and exact max-log.
    let mut d2 = [0.0f64; 8];
    let mut bit_patterns = [0usize; 8];
    for idx in 0..l {
        let level = (l as f64 - 1.0) - 2.0 * idx as f64;
        let d = y - level;
        d2[idx] = d * d;
        // Gray encode idx back to bits.
        bit_patterns[idx] = idx ^ (idx >> 1);
    }
    for b in 0..bits {
        let shift = bits - 1 - b; // MSB first
        let mut min0 = f64::MAX;
        let mut min1 = f64::MAX;
        for idx in 0..l {
            let bit = (bit_patterns[idx] >> shift) & 1;
            if bit == 0 {
                if d2[idx] < min0 {
                    min0 = d2[idx];
                }
            } else if d2[idx] < min1 {
                min1 = d2[idx];
            }
        }
        out.push((min1 - min0) / (2.0 * axis_var));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::rng::{complex_gaussian, random_bits, seeded};
    use proptest::prelude::*;

    #[test]
    fn constellation_sizes_and_energy() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let n_sym = 1 << m.bits_per_symbol();
            // Enumerate all symbols via all bit patterns.
            let mut bits = Vec::new();
            for v in 0..n_sym {
                for i in (0..m.bits_per_symbol()).rev() {
                    bits.push(((v >> i) & 1) as u8);
                }
            }
            let symbols = m.modulate(&bits);
            assert_eq!(symbols.len(), n_sym);
            let energy: f64 = symbols.iter().map(|s| s.norm_sqr()).sum::<f64>() / n_sym as f64;
            assert!((energy - 1.0).abs() < 1e-12, "{m}: energy {energy}");
            // All points distinct.
            for a in 0..n_sym {
                for b in a + 1..n_sym {
                    assert!(
                        (symbols[a] - symbols[b]).norm() > 1e-9,
                        "{m}: duplicate point"
                    );
                }
            }
        }
    }

    #[test]
    fn unrolled_demappers_match_generic_reference() {
        let mut rng = seeded(77);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let half = m.bits_per_axis();
            let norm = m.norm();
            for i in 0..200 {
                let s = complex_gaussian(&mut rng, 1.0) * 3.0;
                let noise_var = 0.01 + 0.1 * i as f64;
                let mut reference = Vec::new();
                axis_llrs(s.re * norm, half, noise_var * norm * norm, &mut reference);
                axis_llrs(s.im * norm, half, noise_var * norm * norm, &mut reference);
                let fast = m.demodulate_soft(&[s], noise_var);
                assert_eq!(fast, reference, "{m} symbol {s}");
            }
        }
    }

    #[test]
    fn gray_mapping_adjacent_levels_differ_one_bit() {
        // For 8-PAM (64QAM axis): adjacent levels must differ in exactly
        // one Gray bit.
        let bits_per_axis = 3;
        let mut level_to_bits = std::collections::BTreeMap::new();
        for v in 0..8usize {
            let bits: Vec<u8> = (0..bits_per_axis)
                .rev()
                .map(|i| ((v >> i) & 1) as u8)
                .collect();
            let level = pam_level(&bits) as i64;
            level_to_bits.insert(level, v);
        }
        let levels: Vec<i64> = level_to_bits.keys().copied().collect();
        assert_eq!(levels, vec![-7, -5, -3, -1, 1, 3, 5, 7]);
        for w in levels.windows(2) {
            let a = level_to_bits[&w[0]];
            let b = level_to_bits[&w[1]];
            assert_eq!((a ^ b).count_ones(), 1, "levels {w:?}");
        }
    }

    #[test]
    fn zero_bits_map_positive() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let s = m.modulate(&vec![0u8; m.bits_per_symbol()])[0];
            assert!(s.re > 0.0 && s.im > 0.0, "{m}");
        }
    }

    #[test]
    fn noiseless_roundtrip_all_modulations() {
        let mut rng = seeded(5);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let bits = random_bits(&mut rng, m.bits_per_symbol() * 100);
            let symbols = m.modulate(&bits);
            let hard = m.demodulate_hard(&symbols);
            assert_eq!(hard, bits, "{m}");
        }
    }

    #[test]
    fn soft_llr_signs_match_bits_noiseless() {
        let mut rng = seeded(6);
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let bits = random_bits(&mut rng, m.bits_per_symbol() * 50);
            let symbols = m.modulate(&bits);
            let llrs = m.demodulate_soft(&symbols, 0.1);
            for (i, (&b, &l)) in bits.iter().zip(&llrs).enumerate() {
                assert_eq!(b, crate::bits::hard_decision(l), "{m} bit {i}");
            }
        }
    }

    #[test]
    fn qpsk_llr_matches_closed_form() {
        // For QPSK, the max-log LLR reduces to 2·√2·y/σ² per axis
        // (with unit-energy normalization the axis levels are ±1/√2).
        let m = Modulation::Qpsk;
        let y = Complex64::new(0.3, -0.2);
        let nv = 0.5;
        let llrs = m.demodulate_soft(&[y], nv);
        let expect_i = 2.0 * y.re * std::f64::consts::SQRT_2 / nv;
        let expect_q = 2.0 * y.im * std::f64::consts::SQRT_2 / nv;
        assert!(
            (llrs[0] - expect_i).abs() < 1e-9,
            "{} vs {expect_i}",
            llrs[0]
        );
        assert!((llrs[1] - expect_q).abs() < 1e-9);
    }

    #[test]
    fn llr_magnitude_scales_inverse_noise() {
        let m = Modulation::Qam64;
        let bits = vec![0, 1, 1, 0, 1, 0];
        let s = m.modulate(&bits);
        let l1 = m.demodulate_soft(&s, 0.1);
        let l2 = m.demodulate_soft(&s, 0.2);
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a / b - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn denser_constellation_has_higher_raw_ber() {
        // Sanity: at identical symbol SNR, 64QAM has a higher uncoded BER
        // than QPSK.
        let mut rng = seeded(8);
        let snr = 12.0_f64;
        let nv = 1.0 / dsp::stats::db_to_linear(snr);
        let mut ber = [0.0f64; 2];
        for (j, m) in [Modulation::Qpsk, Modulation::Qam64].iter().enumerate() {
            let bits = random_bits(&mut rng, m.bits_per_symbol() * 2000);
            let tx = m.modulate(&bits);
            let rx: Vec<Complex64> = tx
                .iter()
                .map(|&s| s + complex_gaussian(&mut rng, nv))
                .collect();
            let hard = m.demodulate_hard(&rx);
            ber[j] = crate::bits::hamming_distance(&hard, &bits) as f64 / bits.len() as f64;
        }
        assert!(
            ber[1] > ber[0],
            "64QAM BER {} should exceed QPSK {}",
            ber[1],
            ber[0]
        );
    }

    proptest! {
        #[test]
        fn modulate_demodulate_roundtrip(seed in 0u64..100) {
            let mut rng = seeded(seed);
            let m = Modulation::Qam64;
            let bits = random_bits(&mut rng, 6 * 20);
            prop_assert_eq!(m.demodulate_hard(&m.modulate(&bits)), bits);
        }

        #[test]
        fn llr_antisymmetric_in_y(y in -2.0f64..2.0) {
            // Flipping the received point flips all LLR signs for QPSK.
            let m = Modulation::Qpsk;
            let a = m.demodulate_soft(&[Complex64::new(y, y)], 0.3);
            let b = m.demodulate_soft(&[Complex64::new(-y, -y)], 0.3);
            prop_assert!((a[0] + b[0]).abs() < 1e-9);
            prop_assert!((a[1] + b[1]).abs() < 1e-9);
        }
    }
}
