//! Fig. 6 — throughput (a) and average transmissions (b) versus SNR under
//! various LLR-storage defect rates.
//!
//! The headline experiment: the unprotected 6T LLR memory is injected
//! with `N_f ∈ {0, 0.1 %, 1 %, 5 %, 10 %}` flip faults. Expected shape:
//! curves up to 0.1 % coincide with the defect-free system; beyond that,
//! throughput degrades and the retransmission count rises, yet even 10 %
//! defects keep the 18 dB point above the 0.53 requirement.

use crate::config::SystemConfig;
use crate::montecarlo::StorageConfig;
use crate::report::{render_series_table, Series};
use crate::simulator::LinkSimulator;

use super::{snr_grid, ExperimentBudget};

/// Defect fractions swept (of the LLR array cells).
pub const DEFECT_FRACTIONS: [f64; 5] = [0.0, 0.001, 0.01, 0.05, 0.10];

/// Result of the Fig. 6 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// SNR grid (dB).
    pub snr_db: Vec<f64>,
    /// One row per defect fraction.
    pub curves: Vec<DefectCurve>,
}

/// Throughput/retransmission data for one defect rate.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectCurve {
    /// Fraction of faulty cells.
    pub defect_fraction: f64,
    /// Normalized throughput per SNR point.
    pub throughput: Vec<f64>,
    /// Average transmissions per packet per SNR point.
    pub avg_transmissions: Vec<f64>,
}

/// Runs the experiment.
pub fn run(cfg: &SystemConfig, budget: ExperimentBudget) -> Fig6Result {
    run_with_fractions(cfg, budget, &DEFECT_FRACTIONS)
}

/// The storage backend of each swept defect fraction: a fault-free
/// quantized buffer for 0, an unprotected 6T array otherwise. Shared by
/// the experiment and the campaign benchmark so both always measure the
/// same grid.
pub fn storages(fractions: &[f64], llr_bits: u8) -> Vec<StorageConfig> {
    fractions
        .iter()
        .map(|&f| {
            if f == 0.0 {
                StorageConfig::Quantized
            } else {
                StorageConfig::unprotected(f, llr_bits)
            }
        })
        .collect()
}

/// Runs with custom defect fractions (used by tests and ablations).
pub fn run_with_fractions(
    cfg: &SystemConfig,
    budget: ExperimentBudget,
    fractions: &[f64],
) -> Fig6Result {
    let sim = LinkSimulator::new(*cfg);
    let snrs = snr_grid();
    let storages = storages(fractions, cfg.llr_bits);
    // One call for the whole (defect × SNR) matrix: every row is one die
    // swept over SNR, and all points shard across the workers. Under a
    // campaign budget, easy high-SNR points stop early and re-runs
    // resume from the result store.
    let grid = budget.runner("fig6").run_grid(
        &sim,
        &storages,
        &snrs,
        budget.packets_per_point,
        budget.seed,
    );
    let curves = fractions
        .iter()
        .zip(&grid.stats)
        .map(|(&f, row)| DefectCurve {
            defect_fraction: f,
            throughput: row.iter().map(|s| s.normalized_throughput()).collect(),
            avg_transmissions: row.iter().map(|s| s.avg_transmissions()).collect(),
        })
        .collect();
    Fig6Result {
        snr_db: snrs,
        curves,
    }
}

impl Fig6Result {
    /// Throughput series (Fig. 6a).
    pub fn throughput_series(&self) -> Vec<Series> {
        self.curves
            .iter()
            .map(|c| {
                Series::new(
                    format!("Nf={:.1}%", c.defect_fraction * 100.0),
                    self.snr_db.clone(),
                    c.throughput.clone(),
                )
            })
            .collect()
    }

    /// Average-transmission series (Fig. 6b).
    pub fn avg_tx_series(&self) -> Vec<Series> {
        self.curves
            .iter()
            .map(|c| {
                Series::new(
                    format!("Nf={:.1}%", c.defect_fraction * 100.0),
                    self.snr_db.clone(),
                    c.avg_transmissions.clone(),
                )
            })
            .collect()
    }

    /// Formats Fig. 6a as a table.
    pub fn table_throughput(&self) -> String {
        render_series_table("SNR[dB]", &self.throughput_series())
    }

    /// Formats Fig. 6b as a table.
    pub fn table_avg_tx(&self) -> String {
        render_series_table("SNR[dB]", &self.avg_tx_series())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shapes_and_ordering() {
        let cfg = SystemConfig::fast_test();
        let res = run_with_fractions(&cfg, ExperimentBudget::smoke(), &[0.0, 0.10]);
        assert_eq!(res.curves.len(), 2);
        assert_eq!(res.curves[0].throughput.len(), res.snr_db.len());
        // At the top SNR the clean system must beat (or tie) 10% defects.
        let last = res.snr_db.len() - 1;
        assert!(
            res.curves[0].throughput[last] >= res.curves[1].throughput[last] - 1e-9,
            "defects must not improve throughput"
        );
        assert!(res.table_throughput().contains("Nf=10.0%"));
        assert!(res.table_avg_tx().contains("SNR"));
    }
}
