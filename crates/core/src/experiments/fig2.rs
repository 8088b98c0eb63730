//! Fig. 2 — decoding-failure probability (BLER) over HARQ transmissions.
//!
//! Reproduces the paper's motivation figure: BLER after each incremental
//! transmission for a high (29 dB), medium (11 dB) and low (3 dB) SNR
//! regime, on the defect-free system. Expected shape: ≈95 % first-try
//! decoding at 29 dB; a considerable fraction at 11 dB; virtually all
//! packets retransmitted at 3 dB, with HARQ combining steadily lowering the
//! failure probability.

use dsp::stats::wilson_interval;

use crate::campaign::controller::WILSON_Z;
use crate::campaign::CampaignPoint;
use crate::config::SystemConfig;
use crate::montecarlo::StorageConfig;
use crate::report::{render_series_table, Series};
use crate::simulator::LinkSimulator;

use super::ExperimentBudget;

/// The paper's three SNR regimes (dB).
pub const SNR_REGIMES: [f64; 3] = [3.0, 11.0, 29.0];

/// Result of the Fig. 2 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// One BLER-vs-transmission curve per SNR regime.
    pub bler: Vec<BlerCurve>,
}

/// BLER after each transmission at one SNR.
#[derive(Debug, Clone, PartialEq)]
pub struct BlerCurve {
    /// Operating SNR in dB.
    pub snr_db: f64,
    /// `bler[t]` = failure probability after transmission `t+1`.
    pub bler: Vec<f64>,
    /// 95 % Wilson interval per transmission — the achieved precision of
    /// the (possibly adaptive) packet budget.
    pub ci: Vec<(f64, f64)>,
}

/// Runs the experiment.
pub fn run(cfg: &SystemConfig, budget: ExperimentBudget) -> Fig2Result {
    let sim = LinkSimulator::new(*cfg);
    let points: Vec<CampaignPoint> = SNR_REGIMES
        .iter()
        .enumerate()
        .map(|(i, &snr_db)| {
            CampaignPoint::new(
                StorageConfig::Quantized,
                snr_db,
                budget.packets_per_point,
                budget.seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let bler = budget
        .runner("fig2")
        .run(&sim, &points)
        .iter()
        .zip(&SNR_REGIMES)
        .map(|(stats, &snr)| BlerCurve {
            snr_db: snr,
            bler: (1..=cfg.max_transmissions)
                .map(|t| stats.bler_after(t))
                .collect(),
            ci: (1..=cfg.max_transmissions)
                .map(|t| wilson_interval(stats.failures_at[t - 1], stats.packets, WILSON_Z))
                .collect(),
        })
        .collect();
    Fig2Result { bler }
}

impl Fig2Result {
    /// Formats the result as the Fig. 2 table.
    pub fn table(&self) -> String {
        let max_tx = self.bler.first().map(|c| c.bler.len()).unwrap_or(0);
        let x: Vec<f64> = (1..=max_tx).map(|t| t as f64).collect();
        let series: Vec<Series> = self
            .bler
            .iter()
            .map(|c| {
                Series::new(format!("SNR={:.0}dB", c.snr_db), x.clone(), c.bler.clone())
                    .with_ci(c.ci.clone())
            })
            .collect();
        render_series_table("tx#", &series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shapes() {
        let cfg = SystemConfig::fast_test();
        let res = run(&cfg, ExperimentBudget::smoke());
        assert_eq!(res.bler.len(), 3);
        for curve in &res.bler {
            assert_eq!(curve.bler.len(), cfg.max_transmissions);
            // BLER must be non-increasing over transmissions.
            for w in curve.bler.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
        assert!(res.table().contains("SNR=29dB"));
    }
}
