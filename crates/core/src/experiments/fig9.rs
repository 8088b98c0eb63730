//! Fig. 9 — joint choice of LLR bit-width and defect tolerance.
//!
//! Sweeps the LLR quantization width (10/11/12 bits) with an unprotected
//! array at 10 % defects. Wider words mean lower quantization noise but a
//! larger array with proportionally more faulty cells per stored LLR, so
//! — counter to defect-free intuition — 10-bit quantization wins under
//! high defect rates. Expected shape: at high SNR the 10-bit curve sits
//! at or above the 11/12-bit curves.

use crate::config::SystemConfig;
use crate::montecarlo::StorageConfig;
use crate::report::{render_series_table, Series};
use crate::simulator::LinkSimulator;

use super::{snr_grid, ExperimentBudget};

/// Quantization widths swept.
pub const BIT_WIDTHS: [u8; 3] = [10, 11, 12];

/// The defect fraction of the study.
pub const DEFECT_FRACTION: f64 = 0.10;

/// Result of the Fig. 9 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// SNR grid (dB).
    pub snr_db: Vec<f64>,
    /// One throughput curve per bit width (order of [`BIT_WIDTHS`]).
    pub throughput: Vec<Vec<f64>>,
    /// Storage cells per configuration (grows with width).
    pub storage_cells: Vec<u64>,
}

/// Runs the experiment.
pub fn run(cfg: &SystemConfig, budget: ExperimentBudget) -> Fig9Result {
    let snrs = snr_grid();
    let mut throughput = Vec::new();
    let mut storage_cells = Vec::new();
    // Each bit width changes the link configuration, so each sweep needs
    // its own simulator; the runner still shards every sweep's points
    // (and one campaign manifest covers all three widths).
    let runner = budget.runner("fig9");
    for (i, &bits) in BIT_WIDTHS.iter().enumerate() {
        let mut wcfg = *cfg;
        wcfg.llr_bits = bits;
        storage_cells.push(wcfg.storage_cells());
        let sim = LinkSimulator::new(wcfg);
        let storage = StorageConfig::unprotected(DEFECT_FRACTION, bits);
        let stats = runner.run_sweep(
            &sim,
            &storage,
            &snrs,
            budget.packets_per_point,
            budget.seed.wrapping_add(17 * i as u64),
        );
        throughput.push(stats.iter().map(|s| s.normalized_throughput()).collect());
    }
    Fig9Result {
        snr_db: snrs,
        throughput,
        storage_cells,
    }
}

impl Fig9Result {
    /// Formats the result as a table.
    pub fn table(&self) -> String {
        let series: Vec<Series> = BIT_WIDTHS
            .iter()
            .zip(&self.throughput)
            .map(|(&b, ys)| Series::new(format!("{b}-bit"), self.snr_db.clone(), ys.clone()))
            .collect();
        render_series_table("SNR[dB]", &series)
    }

    /// Mean throughput of one width over the top half of the SNR grid —
    /// the region where the paper's crossover shows.
    pub fn high_snr_mean(&self, width_index: usize) -> f64 {
        let ys = &self.throughput[width_index];
        let half = ys.len() / 2;
        ys[half..].iter().sum::<f64>() / (ys.len() - half) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shapes() {
        let cfg = SystemConfig::fast_test();
        let res = run(&cfg, ExperimentBudget::smoke());
        assert_eq!(res.throughput.len(), 3);
        // Storage grows with width.
        assert!(res.storage_cells[0] < res.storage_cells[2]);
        assert!(res.table().contains("12-bit"));
        let _ = res.high_snr_mean(0);
    }
}
