//! Mobile channel models.
//!
//! The paper evaluates over "a standard-compliant multipath channel"; we
//! provide an ITU tapped-delay-line Rayleigh block-fading model (the
//! standard simulation substitute), plus AWGN and a deterministic ISI
//! channel for tests. Models operate on the symbol-spaced baseband
//! stream; each call to [`ChannelModel::realize`] draws a new independent
//! block-fading realization.

mod correlated;

pub use correlated::CorrelatedFadingChannel;

use dsp::filter::convolve_complex;
use dsp::rng::{complex_gaussian, seeded};
use dsp::stats::db_to_linear;
use dsp::Complex64;
use rand::rngs::StdRng;

/// One realized channel: taps fixed for the block, plus the noise level.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRealization {
    /// Symbol-spaced impulse response.
    pub taps: Vec<Complex64>,
    /// Complex noise variance per received sample.
    pub noise_var: f64,
}

impl ChannelRealization {
    /// An empty realization for [`ChannelModel::realize_attempt_into`]
    /// to fill; the tap vector grows to steady-state size on first use.
    pub fn empty() -> Self {
        Self {
            taps: Vec::new(),
            noise_var: 1.0,
        }
    }

    /// Propagates `symbols` through the channel: convolution with the
    /// taps plus white Gaussian noise, truncated to the input length.
    pub fn apply(&self, symbols: &[Complex64], rng: &mut StdRng) -> Vec<Complex64> {
        let mut out = convolve_complex(symbols, &self.taps);
        out.truncate(symbols.len());
        for y in out.iter_mut() {
            *y += complex_gaussian(rng, self.noise_var);
        }
        out
    }

    /// Allocation-free [`ChannelRealization::apply`]: clears `out` and
    /// fills it with the received samples, convolving directly into the
    /// reused buffer (truncated to the input length) before adding noise.
    pub fn apply_into(&self, symbols: &[Complex64], rng: &mut StdRng, out: &mut Vec<Complex64>) {
        out.clear();
        if let [h] = self.taps[..] {
            out.reserve(symbols.len());
            for &s in symbols {
                out.push(s * h + complex_gaussian(rng, self.noise_var));
            }
            return;
        }
        // Same accumulation order as `convolve_complex` so both paths
        // are bit-identical, not merely close.
        out.resize(symbols.len(), Complex64::ZERO);
        for (i, &s) in symbols.iter().enumerate() {
            for (y, &h) in out[i..].iter_mut().zip(&self.taps) {
                *y += s * h;
            }
        }
        for y in out.iter_mut() {
            *y += complex_gaussian(rng, self.noise_var);
        }
    }

    /// Total tap energy `Σ|h|²`.
    pub fn energy(&self) -> f64 {
        self.taps.iter().map(|t| t.norm_sqr()).sum()
    }
}

/// A channel model that can draw independent block realizations.
///
/// Models must be stateless: a realization may depend only on the
/// arguments (including the caller's RNG), never on interior mutable
/// state, so that the Monte-Carlo engine's per-packet RNG streams fully
/// determine results regardless of thread interleaving.
pub trait ChannelModel {
    /// Draws a channel realization for one block at the given SNR (dB,
    /// signal power over noise power at the receiver input).
    fn realize(&self, snr_db: f64, rng: &mut StdRng) -> ChannelRealization;

    /// Draws the per-transport-block fading time origin. Memoryless
    /// channels ignore it (default `0.0`, consuming no randomness);
    /// time-correlated channels draw a random drop time here, once per
    /// block.
    fn block_phase(&self, rng: &mut StdRng) -> f64 {
        let _ = rng;
        0.0
    }

    /// Realization for transmission `attempt` (0-based) of the block
    /// whose time origin is `block_phase`. The default ignores both and
    /// draws an independent realization — correct for channels where
    /// HARQ round trips exceed the coherence time.
    fn realize_attempt(
        &self,
        snr_db: f64,
        block_phase: f64,
        attempt: usize,
        rng: &mut StdRng,
    ) -> ChannelRealization {
        let _ = (block_phase, attempt);
        self.realize(snr_db, rng)
    }

    /// Allocation-free [`ChannelModel::realize_attempt`]: fills `out`
    /// (reusing its tap vector) instead of returning a fresh
    /// realization. The default delegates to `realize_attempt` and
    /// copies — models on the Monte-Carlo hot path override it to write
    /// taps in place. Must consume the RNG identically to
    /// `realize_attempt`.
    fn realize_attempt_into(
        &self,
        snr_db: f64,
        block_phase: f64,
        attempt: usize,
        rng: &mut StdRng,
        out: &mut ChannelRealization,
    ) {
        let real = self.realize_attempt(snr_db, block_phase, attempt, rng);
        out.taps.clear();
        out.taps.extend_from_slice(&real.taps);
        out.noise_var = real.noise_var;
    }

    /// Human-readable model name (for reports).
    fn name(&self) -> &str;
}

/// Frequency-flat AWGN: a single unit tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AwgnChannel;

impl ChannelModel for AwgnChannel {
    // alloc: cold(allocating trait path; hot-path callers use realize_attempt_into)
    fn realize(&self, snr_db: f64, _rng: &mut StdRng) -> ChannelRealization {
        ChannelRealization {
            taps: vec![Complex64::ONE],
            noise_var: 1.0 / db_to_linear(snr_db),
        }
    }

    fn realize_attempt_into(
        &self,
        snr_db: f64,
        _block_phase: f64,
        _attempt: usize,
        _rng: &mut StdRng,
        out: &mut ChannelRealization,
    ) {
        out.taps.clear();
        out.taps.push(Complex64::ONE);
        out.noise_var = 1.0 / db_to_linear(snr_db);
    }

    fn name(&self) -> &str {
        "AWGN"
    }
}

/// ITU power-delay profiles (delays in ns, powers in dB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ItuProfile {
    /// ITU Pedestrian A — mild dispersion.
    #[default]
    PedestrianA,
    /// ITU Vehicular A — strong dispersion, the demanding test case.
    VehicularA,
}

impl ItuProfile {
    /// `(delay_ns, power_db)` pairs of the profile.
    pub fn taps(self) -> &'static [(f64, f64)] {
        match self {
            ItuProfile::PedestrianA => &[(0.0, 0.0), (110.0, -9.7), (190.0, -19.2), (410.0, -22.8)],
            ItuProfile::VehicularA => &[
                (0.0, 0.0),
                (310.0, -1.0),
                (710.0, -9.0),
                (1090.0, -10.0),
                (1730.0, -15.0),
                (2510.0, -20.0),
            ],
        }
    }
}

impl std::fmt::Display for ItuProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItuProfile::PedestrianA => f.write_str("ITU Pedestrian A"),
            ItuProfile::VehicularA => f.write_str("ITU Vehicular A"),
        }
    }
}

/// Rayleigh block-fading tapped-delay-line channel.
///
/// Each realization draws independent complex-Gaussian tap gains with the
/// profile's power weighting, binned to the symbol period, and normalizes
/// the *average* profile energy to 1 so SNR is preserved in the mean
/// (individual realizations fade up and down, as they should).
///
/// The binned power profile is computed once at construction and cached,
/// so drawing a realization performs no per-call profile work (and, via
/// [`ChannelModel::realize_attempt_into`], no allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathChannel {
    profile: ItuProfile,
    /// Symbol period in nanoseconds (HSDPA chip: 260.4 ns; SF16 symbol:
    /// 4166 ns).
    symbol_period_ns: f64,
    /// Cached binned average power profile (unit total energy).
    bins: Vec<f64>,
}

impl MultipathChannel {
    /// Creates the channel for an ITU profile at the given symbol period.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive.
    pub fn new(profile: ItuProfile, symbol_period_ns: f64) -> Self {
        assert!(
            symbol_period_ns.is_finite() && symbol_period_ns > 0.0,
            "symbol period must be positive"
        );
        let bins = bin_profile(profile, symbol_period_ns);
        Self {
            profile,
            symbol_period_ns,
            bins,
        }
    }

    /// Chip-spaced Vehicular A at the UMTS chip rate (3.84 Mcps) — the
    /// dispersive configuration used for equalizer stress tests.
    pub fn vehicular_a_chip_rate() -> Self {
        Self::new(ItuProfile::VehicularA, 260.416_7)
    }

    /// Pedestrian A at the SF16 symbol rate — mild, near-flat fading.
    pub fn pedestrian_a_symbol_rate() -> Self {
        Self::new(ItuProfile::PedestrianA, 16.0 * 260.416_7)
    }

    /// The binned average power profile (unit total energy).
    pub fn power_profile(&self) -> Vec<f64> {
        self.bins.clone()
    }
}

/// Bins an ITU profile to the symbol period and normalizes total energy
/// to 1 (the construction-time half of [`MultipathChannel`]).
fn bin_profile(profile: ItuProfile, symbol_period_ns: f64) -> Vec<f64> {
    let taps = profile.taps();
    let max_delay = taps.last().map(|&(d, _)| d).unwrap_or(0.0);
    let n_bins = (max_delay / symbol_period_ns).floor() as usize + 1;
    let mut bins = vec![0.0f64; n_bins];
    for &(delay, power_db) in taps {
        let bin = (delay / symbol_period_ns).round() as usize;
        bins[bin.min(n_bins - 1)] += db_to_linear(power_db);
    }
    let total: f64 = bins.iter().sum();
    for b in bins.iter_mut() {
        *b /= total;
    }
    bins
}

impl ChannelModel for MultipathChannel {
    fn realize(&self, snr_db: f64, rng: &mut StdRng) -> ChannelRealization {
        let taps: Vec<Complex64> = self
            .bins
            .iter()
            .map(|&p| complex_gaussian(rng, p))
            .collect();
        ChannelRealization {
            taps,
            noise_var: 1.0 / db_to_linear(snr_db),
        }
    }

    fn realize_attempt_into(
        &self,
        snr_db: f64,
        _block_phase: f64,
        _attempt: usize,
        rng: &mut StdRng,
        out: &mut ChannelRealization,
    ) {
        out.taps.clear();
        out.taps
            .extend(self.bins.iter().map(|&p| complex_gaussian(rng, p)));
        out.noise_var = 1.0 / db_to_linear(snr_db);
    }

    fn name(&self) -> &str {
        match self.profile {
            ItuProfile::PedestrianA => "Rayleigh PedA",
            ItuProfile::VehicularA => "Rayleigh VehA",
        }
    }
}

/// A fixed, deterministic ISI channel — reproducible equalizer tests.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticIsiChannel {
    /// Fixed taps (should have roughly unit energy).
    pub taps: Vec<Complex64>,
}

impl StaticIsiChannel {
    /// The classic Proakis-B-like mild ISI test channel.
    pub fn mild() -> Self {
        Self {
            taps: vec![
                Complex64::new(0.9, 0.0),
                Complex64::new(0.38, 0.12),
                Complex64::new(-0.15, 0.08),
            ],
        }
    }
}

impl ChannelModel for StaticIsiChannel {
    // alloc: cold(allocating trait path; hot-path callers use realize_attempt_into)
    fn realize(&self, snr_db: f64, _rng: &mut StdRng) -> ChannelRealization {
        ChannelRealization {
            taps: self.taps.clone(),
            noise_var: 1.0 / db_to_linear(snr_db),
        }
    }

    fn name(&self) -> &str {
        "static ISI"
    }
}

/// Convenience: pass unit-energy symbols through a freshly realized
/// channel (used in examples and tests).
pub fn transmit(
    model: &dyn ChannelModel,
    symbols: &[Complex64],
    snr_db: f64,
    seed: u64,
) -> (ChannelRealization, Vec<Complex64>) {
    let mut rng = seeded(seed);
    let real = model.realize(snr_db, &mut rng);
    let rx = real.apply(symbols, &mut rng);
    (real, rx)
}

/// Measures the empirical SNR of `rx` versus the noiseless reference.
pub fn empirical_snr_db(rx: &[Complex64], clean: &[Complex64]) -> f64 {
    let sig: f64 = clean.iter().map(|s| s.norm_sqr()).sum();
    let noise: f64 = rx
        .iter()
        .zip(clean)
        .map(|(&y, &s)| (y - s).norm_sqr())
        .sum();
    dsp::stats::linear_to_db(sig / noise)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awgn_preserves_signal_plus_noise() {
        let mut rng = seeded(1);
        let model = AwgnChannel;
        let real = model.realize(10.0, &mut rng);
        assert_eq!(real.taps.len(), 1);
        let n = 20_000;
        let symbols = vec![Complex64::ONE; n];
        let rx = real.apply(&symbols, &mut rng);
        let clean = symbols.clone();
        let snr = empirical_snr_db(&rx, &clean);
        assert!((snr - 10.0).abs() < 0.3, "measured {snr} dB");
    }

    #[test]
    fn multipath_profile_normalized() {
        for ch in [
            MultipathChannel::vehicular_a_chip_rate(),
            MultipathChannel::pedestrian_a_symbol_rate(),
        ] {
            let p = ch.power_profile();
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn veha_chip_rate_is_dispersive() {
        let ch = MultipathChannel::vehicular_a_chip_rate();
        let p = ch.power_profile();
        assert!(
            p.len() >= 9,
            "VehA at chip rate spans ~10 chips, got {}",
            p.len()
        );
        let significant = p.iter().filter(|&&x| x > 0.01).count();
        assert!(significant >= 4, "expected several significant taps");
    }

    #[test]
    fn peda_symbol_rate_is_nearly_flat() {
        let ch = MultipathChannel::pedestrian_a_symbol_rate();
        let p = ch.power_profile();
        assert_eq!(p.len(), 1, "PedA at SF16 symbol rate collapses to one tap");
    }

    #[test]
    fn fading_mean_energy_is_unity() {
        let ch = MultipathChannel::vehicular_a_chip_rate();
        let mut rng = seeded(3);
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|_| ch.realize(10.0, &mut rng).energy())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean tap energy {mean}");
    }

    #[test]
    fn realizations_are_independent() {
        let ch = MultipathChannel::vehicular_a_chip_rate();
        let mut rng = seeded(4);
        let a = ch.realize(10.0, &mut rng);
        let b = ch.realize(10.0, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn apply_into_matches_apply() {
        // Same RNG state in, same received samples out — for both the
        // flat fast path and the dispersive convolution path.
        for ch in [
            MultipathChannel::pedestrian_a_symbol_rate(),
            MultipathChannel::vehicular_a_chip_rate(),
        ] {
            let mut rng = seeded(77);
            let real = ch.realize(12.0, &mut rng);
            let tx = dsp::rng::complex_gaussian_vec(&mut rng, 64, 1.0);
            let mut rng_a = seeded(5);
            let mut rng_b = seeded(5);
            let a = real.apply(&tx, &mut rng_a);
            let mut b = Vec::new();
            real.apply_into(&tx, &mut rng_b, &mut b);
            assert_eq!(a, b, "{}", ch.name());
        }
    }

    #[test]
    fn static_channel_is_deterministic() {
        let ch = StaticIsiChannel::mild();
        let mut r1 = seeded(5);
        let mut r2 = seeded(99);
        assert_eq!(ch.realize(8.0, &mut r1).taps, ch.realize(8.0, &mut r2).taps);
    }

    #[test]
    fn transmit_reproducible() {
        let model = MultipathChannel::vehicular_a_chip_rate();
        let symbols = dsp::rng::complex_gaussian_vec(&mut seeded(7), 64, 1.0);
        let (r1, y1) = transmit(&model, &symbols, 12.0, 42);
        let (r2, y2) = transmit(&model, &symbols, 12.0, 42);
        assert_eq!(r1, r2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn noise_var_tracks_snr() {
        let mut rng = seeded(8);
        let low = AwgnChannel.realize(0.0, &mut rng).noise_var;
        let high = AwgnChannel.realize(20.0, &mut rng).noise_var;
        assert!((low / high - 100.0).abs() < 1e-9);
    }
}
