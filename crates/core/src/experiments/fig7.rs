//! Fig. 7 — throughput after protecting the MSBs of every LLR word.
//!
//! The paper's proposal: implement the top `k` bits of each stored LLR in
//! robust 8T cells (fault-free in this worst-case analysis) and tolerate
//! `N_f` defects in the remaining 6T bits. Panels: (a) `N_f = 1 %`,
//! (b) `N_f = 10 %` of the 6T cells. Expected shape: protecting 3–4 MSBs
//! recovers almost the whole defect-free curve even at 10 % defects.

use dsp::rng::derive_seed;

use crate::config::SystemConfig;
use crate::montecarlo::StorageConfig;
use crate::report::{render_series_table, Series};
use crate::simulator::LinkSimulator;

use super::{snr_grid, ExperimentBudget};

/// Protected-MSB counts swept.
pub const PROTECTED_BITS: [u8; 5] = [0, 2, 3, 4, 6];

/// One panel of Fig. 7 (one defect rate).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Panel {
    /// Defect fraction in the unprotected cells.
    pub defect_fraction: f64,
    /// SNR grid (dB).
    pub snr_db: Vec<f64>,
    /// Throughput per protected-bit count (same order as
    /// [`PROTECTED_BITS`]).
    pub throughput: Vec<Vec<f64>>,
    /// Defect-free reference curve.
    pub reference: Vec<f64>,
}

/// Result: panels (a) and (b).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Panel (a): 1 % defects.
    pub panel_a: Fig7Panel,
    /// Panel (b): 10 % defects.
    pub panel_b: Fig7Panel,
}

/// Runs both panels (one shared campaign manifest when adaptive).
pub fn run(cfg: &SystemConfig, budget: ExperimentBudget) -> Fig7Result {
    let runner = budget.runner("fig7");
    Fig7Result {
        panel_a: run_panel_with(&runner, cfg, budget, 0.01),
        panel_b: run_panel_with(&runner, cfg, budget, 0.10),
    }
}

/// Runs one panel at the given 6T-cell defect fraction.
pub fn run_panel(cfg: &SystemConfig, budget: ExperimentBudget, defect_fraction: f64) -> Fig7Panel {
    run_panel_with(&budget.runner("fig7"), cfg, budget, defect_fraction)
}

/// Runs one panel on an existing runner.
fn run_panel_with(
    runner: &super::Runner,
    cfg: &SystemConfig,
    budget: ExperimentBudget,
    defect_fraction: f64,
) -> Fig7Panel {
    let sim = LinkSimulator::new(*cfg);
    let snrs = snr_grid();
    // Rows: one per protected-bit count, defect-free reference last. The
    // whole panel is a single engine grid so its points shard together.
    let mut storages: Vec<StorageConfig> = PROTECTED_BITS
        .iter()
        .map(|&protected| StorageConfig::msb_protected(protected, defect_fraction, cfg.llr_bits))
        .collect();
    storages.push(StorageConfig::Quantized);
    let master = derive_seed(budget.seed, (defect_fraction * 1e4) as u64);
    let grid = runner.run_grid(&sim, &storages, &snrs, budget.packets_per_point, master);
    let mut rows: Vec<Vec<f64>> = grid
        .stats
        .iter()
        .map(|row| row.iter().map(|s| s.normalized_throughput()).collect())
        .collect();
    let reference = rows.pop().expect("reference row present");
    Fig7Panel {
        defect_fraction,
        snr_db: snrs,
        throughput: rows,
        reference,
    }
}

impl Fig7Panel {
    /// Formats the panel as a table.
    pub fn table(&self) -> String {
        let mut series: Vec<Series> = PROTECTED_BITS
            .iter()
            .zip(&self.throughput)
            .map(|(&p, ys)| Series::new(format!("{p} MSB"), self.snr_db.clone(), ys.clone()))
            .collect();
        series.push(Series::new(
            "defect-free",
            self.snr_db.clone(),
            self.reference.clone(),
        ));
        render_series_table("SNR[dB]", &series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_panel() {
        let cfg = SystemConfig::fast_test();
        let panel = run_panel(&cfg, ExperimentBudget::smoke(), 0.10);
        assert_eq!(panel.throughput.len(), PROTECTED_BITS.len());
        assert_eq!(panel.reference.len(), panel.snr_db.len());
        assert!(panel.table().contains("4 MSB"));
        // The most protected configuration must not lose to the least at
        // the top SNR point (Monte-Carlo noise aside, protection helps).
        let last = panel.snr_db.len() - 1;
        let most = panel.throughput[PROTECTED_BITS.len() - 1][last];
        let least = panel.throughput[0][last];
        assert!(
            most >= least - 0.35,
            "most-protected {most} vs unprotected {least}"
        );
    }
}
