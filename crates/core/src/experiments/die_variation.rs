//! Extension study — die-to-die variation of the throughput impact.
//!
//! The paper simulates "the worst-case behavior of dies with exactly
//! `N_f` failing cells" using random fault-location maps, implicitly
//! assuming the map's *location* matters little once `N_f` is fixed.
//! This study quantifies that: it draws many independent dies with the
//! same defect count and reports the spread of per-die throughput. A
//! tight spread validates the paper's single-map methodology; a wide one
//! would mean binning by count alone is insufficient.

use dsp::stats::{mean, variance};

use crate::campaign::CampaignPoint;
use crate::config::SystemConfig;
use crate::montecarlo::StorageConfig;
use crate::simulator::LinkSimulator;

use super::ExperimentBudget;

/// Result of the die-variation study.
#[derive(Debug, Clone, PartialEq)]
pub struct DieVariationResult {
    /// Evaluation SNR (dB).
    pub snr_db: f64,
    /// Defect fraction shared by all dies.
    pub defect_fraction: f64,
    /// Per-die normalized throughput.
    pub per_die: Vec<f64>,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Extremes.
    pub min: f64,
    /// Extremes.
    pub max: f64,
}

/// Simulates `n_dies` independent dies with the same defect fraction.
pub fn run(
    cfg: &SystemConfig,
    budget: ExperimentBudget,
    snr_db: f64,
    defect_fraction: f64,
    n_dies: usize,
) -> DieVariationResult {
    assert!(n_dies >= 2, "need at least two dies for a spread");
    let sim = LinkSimulator::new(*cfg);
    let storage = StorageConfig::unprotected(defect_fraction, cfg.llr_bits);
    // One engine batch, one point per die: the die index perturbs the
    // seed, drawing a fresh fault map (and fresh channel noise) per die,
    // and all dies simulate concurrently.
    let points: Vec<CampaignPoint> = (0..n_dies)
        .map(|die| {
            CampaignPoint::new(
                storage.clone(),
                snr_db,
                budget.packets_per_point,
                budget.seed.wrapping_add(0x10_0000 + die as u64),
            )
        })
        .collect();
    // A spread study needs equal per-die sample counts: adaptive early
    // stopping would mix die-to-die variation with unequal estimation
    // noise, so only the store/resume part of the campaign is used.
    let per_die: Vec<f64> = budget
        .equal_samples()
        .runner("die-variation")
        .run(&sim, &points)
        .iter()
        .map(|s| s.normalized_throughput())
        .collect();
    let m = mean(&per_die);
    let sd = variance(&per_die).sqrt();
    DieVariationResult {
        snr_db,
        defect_fraction,
        mean: m,
        std_dev: sd,
        min: per_die.iter().cloned().fold(f64::INFINITY, f64::min),
        max: per_die.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        per_die,
    }
}

impl DieVariationResult {
    /// Formats the study summary.
    pub fn table(&self) -> String {
        format!(
            "dies: {}   Nf: {:.1}%   SNR: {:.1} dB\n\
             throughput mean {:.4}  std {:.4}  min {:.4}  max {:.4}\n\
             coefficient of variation: {:.1}%\n",
            self.per_die.len(),
            self.defect_fraction * 100.0,
            self.snr_db,
            self.mean,
            self.std_dev,
            self.min,
            self.max,
            100.0 * self.std_dev / self.mean.max(1e-12)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_finite_and_dies_differ() {
        let cfg = SystemConfig::fast_test();
        let res = run(&cfg, ExperimentBudget::smoke(), 14.0, 0.10, 4);
        assert_eq!(res.per_die.len(), 4);
        assert!(res.min <= res.mean && res.mean <= res.max);
        assert!(res.std_dev >= 0.0);
        assert!(res.table().contains("dies: 4"));
    }

    #[test]
    #[should_panic(expected = "two dies")]
    fn single_die_rejected() {
        let cfg = SystemConfig::fast_test();
        let _ = run(&cfg, ExperimentBudget::smoke(), 14.0, 0.1, 1);
    }
}
