//! Link-level system configuration.
//!
//! [`SystemConfig`] fixes everything about the simulated HSPA+ link except
//! the SNR and the LLR-storage backend, which the experiments sweep.

use dsp::{LlrFormat, LlrQuantizer};
use hspa_phy::harq::HarqCombining;
use hspa_phy::Modulation;

/// Which channel model the link runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelKind {
    /// Frequency-flat AWGN (fast; used in unit tests).
    Awgn,
    /// Rayleigh block-fading ITU Pedestrian A at the SF16 symbol rate.
    #[default]
    PedestrianA,
    /// Rayleigh block-fading ITU Vehicular A at chip spacing — the
    /// dispersive, equalizer-stressing configuration.
    VehicularA,
    /// Time-correlated (Jakes) flat fading: successive retransmissions
    /// see correlated fades (slow terminal), weakening HARQ diversity.
    CorrelatedSlowFading,
}

/// The turbo decoder's arithmetic: the bit-exact `f64` Max-Log-MAP
/// reference is the only one.
///
/// It is kept as a one-variant field of [`SystemConfig`] because the
/// config's `Debug` rendering (`accuracy_tier: Exact`) is part of every
/// campaign store key ([`crate::campaign::hash::point_fingerprint`]);
/// dropping the field would change every key and orphan existing stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccuracyTier {
    /// Bit-exact `f64` Max-Log-MAP with the agreement early stop.
    #[default]
    Exact,
}

/// Complete link configuration.
///
/// The paper's setup (Section 5): 64QAM, 10-bit LLRs, MMSE equalizer,
/// maximum of three retransmissions (four transmissions total), fully
/// standard-compliant chain. [`SystemConfig::paper_64qam`] reproduces it
/// at a scaled block length whose LLR array matches the paper's
/// "10 % defects ≈ 2000 cells" quote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Information payload bits per transport block (before CRC).
    pub payload_bits: usize,
    /// Modulation of every transmission.
    pub modulation: Modulation,
    /// Coded bits per transmission (rate-matching target). Must be a
    /// multiple of the modulation's bits/symbol.
    pub channel_bits_per_tx: usize,
    /// Maximum transmissions per packet (1 initial + retransmissions).
    pub max_transmissions: usize,
    /// Turbo decoder iterations.
    pub decoder_iterations: usize,
    /// LLR word width in bits (the Fig. 9 sweep variable).
    pub llr_bits: u8,
    /// LLR clip level.
    pub llr_clip: f64,
    /// LLR storage format.
    pub llr_format: LlrFormat,
    /// HARQ combining strategy.
    pub combining: HarqCombining,
    /// Channel model.
    pub channel: ChannelKind,
    /// MMSE equalizer taps (ignored for AWGN).
    pub equalizer_taps: usize,
    /// Turbo-decoder arithmetic; always [`AccuracyTier::Exact`], kept
    /// for store-key stability (see [`AccuracyTier`]).
    pub accuracy_tier: AccuracyTier,
}

impl SystemConfig {
    /// The paper's 64QAM evaluation mode at a scaled block length.
    ///
    /// Transport block: 600 payload + 24 CRC = 624 turbo-input bits;
    /// codeword 1884 bits stored as LLRs → an 18 840-cell array at 10-bit
    /// quantization, so a 10 % defect rate is ~1 900 faulty cells,
    /// matching the paper's "2000 defective cells" anchor. Each
    /// transmission carries 1 152 channel bits (192 64QAM symbols), an
    /// initial code rate of 0.54 that HARQ IR lowers on retransmission.
    pub fn paper_64qam() -> Self {
        Self {
            payload_bits: 600,
            modulation: Modulation::Qam64,
            channel_bits_per_tx: 1152,
            max_transmissions: 4,
            decoder_iterations: 6,
            llr_bits: 10,
            llr_clip: 32.0,
            llr_format: LlrFormat::TwosComplement,
            combining: HarqCombining::IncrementalRedundancy,
            channel: ChannelKind::PedestrianA,
            equalizer_taps: 15,
            accuracy_tier: AccuracyTier::Exact,
        }
    }

    /// A small, fast configuration for unit/integration tests.
    pub fn fast_test() -> Self {
        Self {
            payload_bits: 120,
            modulation: Modulation::Qam16,
            channel_bits_per_tx: 288,
            max_transmissions: 4,
            decoder_iterations: 4,
            llr_bits: 10,
            llr_clip: 32.0,
            llr_format: LlrFormat::TwosComplement,
            combining: HarqCombining::IncrementalRedundancy,
            channel: ChannelKind::Awgn,
            equalizer_taps: 7,
            accuracy_tier: AccuracyTier::Exact,
        }
    }

    /// Turbo-encoder input length (payload + 24-bit CRC).
    pub fn turbo_k(&self) -> usize {
        self.payload_bits + 24
    }

    /// Mother codeword length `3K + 12` — also the LLR-buffer word count.
    pub fn coded_len(&self) -> usize {
        3 * self.turbo_k() + 12
    }

    /// Total LLR-storage cells (`coded_len × llr_bits`), the paper's `M`.
    pub fn storage_cells(&self) -> u64 {
        self.coded_len() as u64 * self.llr_bits as u64
    }

    /// 64QAM symbols per transmission.
    pub fn symbols_per_tx(&self) -> usize {
        self.channel_bits_per_tx / self.modulation.bits_per_symbol()
    }

    /// Initial-transmission code rate.
    pub fn initial_rate(&self) -> f64 {
        self.turbo_k() as f64 / self.channel_bits_per_tx as f64
    }

    /// The LLR quantizer implied by the width/clip/format fields.
    pub fn quantizer(&self) -> LlrQuantizer {
        LlrQuantizer::new(self.llr_bits, self.llr_clip, self.llr_format)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (non-multiple channel
    /// bits, zero budgets, out-of-range turbo length).
    pub fn validate(&self) {
        assert!(
            self.channel_bits_per_tx
                .is_multiple_of(self.modulation.bits_per_symbol()),
            "channel bits must be a multiple of bits/symbol"
        );
        assert!(
            (40..=5114).contains(&self.turbo_k()),
            "turbo input length out of 3GPP range"
        );
        assert!(
            self.max_transmissions >= 1,
            "need at least one transmission"
        );
        assert!(self.decoder_iterations >= 1, "need at least one iteration");
        assert!(
            self.channel_bits_per_tx >= self.turbo_k() + 6,
            "channel bits below self-decodability threshold"
        );
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_64qam()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_consistent() {
        let c = SystemConfig::paper_64qam();
        c.validate();
        assert_eq!(c.turbo_k(), 624);
        assert_eq!(c.coded_len(), 1884);
        assert_eq!(c.storage_cells(), 18_840);
        // 10 % defects ≈ 1 884 cells ≈ the paper's 2 000-cell quote.
        let ten_pct = (c.storage_cells() as f64 * 0.1) as u64;
        assert!((1500..2500).contains(&ten_pct));
        assert_eq!(c.symbols_per_tx(), 192);
        assert!((c.initial_rate() - 0.5417).abs() < 1e-3);
    }

    #[test]
    fn fast_config_consistent() {
        let c = SystemConfig::fast_test();
        c.validate();
        assert_eq!(c.turbo_k(), 144);
    }

    #[test]
    #[should_panic(expected = "multiple of bits/symbol")]
    fn bad_symbol_multiple_rejected() {
        let mut c = SystemConfig::paper_64qam();
        c.channel_bits_per_tx = 1153;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "self-decodability")]
    fn starved_budget_rejected() {
        let mut c = SystemConfig::fast_test();
        c.channel_bits_per_tx = 100;
        c.validate();
    }

    #[test]
    fn quantizer_matches_fields() {
        let c = SystemConfig::paper_64qam();
        let q = c.quantizer();
        assert_eq!(q.bits(), 10);
        assert_eq!(q.format(), LlrFormat::TwosComplement);
    }
}
