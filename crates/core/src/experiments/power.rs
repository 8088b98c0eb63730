//! Section 6.3 — power reduction through defect tolerance.
//!
//! Combines the failure, yield and power models with link simulation:
//!
//! 1. Conventional design: plain 6T array at its reliable supply (1.0 V).
//! 2. Resilience-limited voltage scaling: 6T at 0.8 V, accepting ~0.1 %
//!    defects (Fig. 5/6 operating point).
//! 3. The proposed hybrid: 4 MSBs in 8T, 0.6 V, tolerating 1–10 % defects
//!    in the 6T bits — the paper quotes ~30 % HARQ-block power savings
//!    and 2.4 vs 3.5 average transmissions at 9 dB compared to the
//!    unprotected array at the same defect rate.

use silicon::area_power::PowerModel;
use silicon::cell::{BitCellKind, CellFailureModel};
use silicon::ProtectionPlan;

use crate::campaign::CampaignPoint;
use crate::config::SystemConfig;
use crate::montecarlo::StorageConfig;
use crate::report::render_table;
use crate::simulator::LinkSimulator;

use super::ExperimentBudget;

/// One operating point of the power study.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerRow {
    /// Scheme label.
    pub scheme: String,
    /// Supply voltage (V).
    pub vdd: f64,
    /// 6T-cell failure probability at this voltage.
    pub p_cell_6t: f64,
    /// Expected defect fraction of the array under its plan.
    pub defect_fraction: f64,
    /// Relative array power (6T at 1.0 V = 1.0).
    pub relative_power: f64,
    /// Power saving versus the conventional design.
    pub saving: f64,
    /// Normalized throughput at the evaluation SNR.
    pub throughput: f64,
    /// Average transmissions at the evaluation SNR.
    pub avg_transmissions: f64,
}

/// Result of the power study.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerResult {
    /// Evaluation SNR (dB).
    pub snr_db: f64,
    /// Operating points.
    pub rows: Vec<PowerRow>,
}

/// Runs the study at the given evaluation SNR (the paper discusses 9 dB).
pub fn run(cfg: &SystemConfig, budget: ExperimentBudget, snr_db: f64) -> PowerResult {
    let sim = LinkSimulator::new(*cfg);
    let model = CellFailureModel::dac12();
    let pm = PowerModel::dac12();
    let plain = ProtectionPlan::uniform(cfg.llr_bits, BitCellKind::Sram6T);
    let hybrid = ProtectionPlan::msb_protected(cfg.llr_bits, 4);
    let p_ref = pm.cell_power(plain.relative_area(), 1.0) * cfg.llr_bits as f64;

    // (label, plan, vdd, storage)
    let points: Vec<(String, &ProtectionPlan, f64, StorageConfig)> = vec![
        (
            "6T @ 1.0V (conventional)".into(),
            &plain,
            1.0,
            StorageConfig::Quantized,
        ),
        (
            "6T @ 0.8V (tolerate 0.1%)".into(),
            &plain,
            0.8,
            StorageConfig::unprotected(0.001, cfg.llr_bits),
        ),
        (
            "6T @ 0.6V (unprotected 10%)".into(),
            &plain,
            0.6,
            StorageConfig::unprotected(0.10, cfg.llr_bits),
        ),
        (
            "hybrid 4MSB/8T @ 0.6V (10% in 6T)".into(),
            &hybrid,
            0.6,
            StorageConfig::msb_protected(4, 0.10, cfg.llr_bits),
        ),
    ];

    let specs: Vec<CampaignPoint> = points
        .iter()
        .enumerate()
        .map(|(i, (_, _, _, storage))| {
            CampaignPoint::new(
                storage.clone(),
                snr_db,
                budget.packets_per_point,
                budget.seed.wrapping_add(555 * i as u64),
            )
        })
        .collect();
    let stats = budget.runner("power").run(&sim, &specs);

    let rows = points
        .into_iter()
        .zip(stats)
        .map(|((scheme, plan, vdd, _), point_stats)| {
            let power = pm.cell_power(plan.relative_area(), vdd) * cfg.llr_bits as f64;
            PowerRow {
                scheme,
                vdd,
                p_cell_6t: model.p_cell(BitCellKind::Sram6T, vdd),
                defect_fraction: plan.expected_defect_fraction(&model, vdd),
                relative_power: power / p_ref,
                saving: 1.0 - power / p_ref,
                throughput: point_stats.normalized_throughput(),
                avg_transmissions: point_stats.avg_transmissions(),
            }
        })
        .collect();

    PowerResult { snr_db, rows }
}

impl PowerResult {
    /// Formats the study as a table.
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    format!("{:.2}", r.vdd),
                    format!("{:.1e}", r.p_cell_6t),
                    format!("{:.3}", r.relative_power),
                    format!("{:.1}%", r.saving * 100.0),
                    format!("{:.3}", r.throughput),
                    format!("{:.2}", r.avg_transmissions),
                ]
            })
            .collect();
        render_table(
            &[
                "scheme".into(),
                "Vdd".into(),
                "Pcell(6T)".into(),
                "rel power".into(),
                "saving".into(),
                "throughput".into(),
                "avg tx".into(),
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_power_ordering() {
        let cfg = SystemConfig::fast_test();
        let res = run(&cfg, ExperimentBudget::smoke(), 10.0);
        assert_eq!(res.rows.len(), 4);
        // Power strictly drops with voltage; the hybrid at 0.6 V still
        // saves ≥ 30 % versus 6T at 1.0 V despite its larger area.
        assert!(res.rows[1].relative_power < res.rows[0].relative_power);
        let hybrid = &res.rows[3];
        assert!(hybrid.saving > 0.30, "hybrid saving {}", hybrid.saving);
        // The hybrid needs no more transmissions than the unprotected
        // array at the same supply (usually strictly fewer).
        assert!(
            hybrid.avg_transmissions <= res.rows[2].avg_transmissions + 1e-9,
            "hybrid {} vs unprotected {}",
            hybrid.avg_transmissions,
            res.rows[2].avg_transmissions
        );
        assert!(res.table().contains("hybrid"));
    }
}
