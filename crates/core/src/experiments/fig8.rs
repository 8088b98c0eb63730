//! Fig. 8 — protection efficiency: throughput gain per unit area.
//!
//! At the worst-case SNR (where unprotected storage loses the most
//! throughput) and 10 % defects, sweeps the number of 8T-protected MSBs
//! and computes `throughput(k)/throughput(defect-free)` against the area
//! overhead of the hybrid array. Also rates the ECC alternative (SECDED
//! over the full word, ≥35 % overhead). Expected shape: gain saturates at
//! 3–4 protected bits — protecting more buys area, not throughput — and
//! hybrid protection dominates ECC on the gain/area metric.

use silicon::area_power::protection_efficiency;
use silicon::ecc::Secded;
use silicon::fault_map::FaultKind;
use silicon::ProtectionPlan;

use crate::campaign::CampaignPoint;
use crate::config::SystemConfig;
use crate::montecarlo::{DefectSpec, StorageConfig};
use crate::report::render_table;
use crate::simulator::LinkSimulator;

use super::ExperimentBudget;

/// The defect rate of the study (10 % as in the paper).
pub const DEFECT_FRACTION: f64 = 0.10;

/// One row of the efficiency table.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyRow {
    /// Scheme label.
    pub scheme: String,
    /// Number of protected MSBs (0 for none, `None` for ECC).
    pub protected_bits: Option<u8>,
    /// Area overhead versus the plain 6T array.
    pub area_overhead: f64,
    /// Normalized throughput at the evaluation SNR.
    pub throughput: f64,
    /// Throughput ratio to the defect-free system.
    pub gain: f64,
    /// `gain / (1 + overhead)` — the ranking metric.
    pub efficiency: f64,
}

/// Result of the Fig. 8 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// Evaluation SNR (dB).
    pub snr_db: f64,
    /// Rows in protection order, ECC last.
    pub rows: Vec<EfficiencyRow>,
}

/// Runs the experiment at the given evaluation SNR (the paper uses the
/// point of worst unprotected throughput penalty; 9 dB sits mid-waterfall
/// for the scaled link).
pub fn run(cfg: &SystemConfig, budget: ExperimentBudget, snr_db: f64) -> Fig8Result {
    let sim = LinkSimulator::new(*cfg);
    let ecc = Secded::new(cfg.llr_bits);

    // One engine batch: reference point, every protection level, ECC.
    let n = budget.packets_per_point;
    let mut points = vec![CampaignPoint::new(
        StorageConfig::Quantized,
        snr_db,
        n,
        budget.seed,
    )];
    for (i, protected) in (0..=cfg.llr_bits).enumerate() {
        points.push(CampaignPoint::new(
            StorageConfig::msb_protected(protected, DEFECT_FRACTION, cfg.llr_bits),
            snr_db,
            n,
            budget.seed.wrapping_add(31 * i as u64),
        ));
    }
    points.push(CampaignPoint::new(
        StorageConfig::Ecc {
            defects: DefectSpec::Fraction(DEFECT_FRACTION),
            fault_kind: FaultKind::Flip,
        },
        snr_db,
        n,
        budget.seed.wrapping_add(4242),
    ));

    // `best_protection` ranks the arms against each other, so every arm
    // gets the same sample count (no adaptive early stop) — otherwise
    // the argmax would ride on unequal CI widths.
    let stats = budget.equal_samples().runner("fig8").run(&sim, &points);
    let reference = stats[0].normalized_throughput().max(1e-9);

    let mut rows = Vec::new();
    for (i, protected) in (0..=cfg.llr_bits).enumerate() {
        let plan = ProtectionPlan::msb_protected(cfg.llr_bits, protected);
        let thr = stats[1 + i].normalized_throughput();
        let overhead = plan.area_overhead_vs_6t();
        let gain = thr / reference;
        rows.push(EfficiencyRow {
            scheme: format!("{protected}x8T MSB"),
            protected_bits: Some(protected),
            area_overhead: overhead,
            throughput: thr,
            gain,
            efficiency: protection_efficiency(gain, overhead),
        });
    }

    // ECC baseline: SECDED over the full word on 6T cells with the same
    // per-cell defect fraction (more cells → more faults).
    let thr = stats
        .last()
        .expect("ECC point present")
        .normalized_throughput();
    let overhead = ecc.storage_overhead();
    let gain = thr / reference;
    rows.push(EfficiencyRow {
        scheme: format!("SECDED({},{})", ecc.codeword_bits(), ecc.data_bits()),
        protected_bits: None,
        area_overhead: overhead,
        throughput: thr,
        gain,
        efficiency: protection_efficiency(gain, overhead),
    });

    Fig8Result { snr_db, rows }
}

impl Fig8Result {
    /// The protected-bit count with the best efficiency (ECC excluded).
    pub fn best_protection(&self) -> u8 {
        self.rows
            .iter()
            .filter_map(|r| r.protected_bits.map(|p| (p, r.efficiency)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(p, _)| p)
            .unwrap_or(0)
    }

    /// Formats the efficiency table.
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    format!("{:.1}%", r.area_overhead * 100.0),
                    format!("{:.4}", r.throughput),
                    format!("{:.3}", r.gain),
                    format!("{:.3}", r.efficiency),
                ]
            })
            .collect();
        render_table(
            &[
                "scheme".into(),
                "area ovh".into(),
                "throughput".into(),
                "gain".into(),
                "gain/area".into(),
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rows_and_overheads() {
        let cfg = SystemConfig::fast_test();
        let res = run(&cfg, ExperimentBudget::smoke(), 10.0);
        assert_eq!(res.rows.len(), cfg.llr_bits as usize + 2);
        // Area overhead grows with protection; ECC is the most expensive
        // storage-wise.
        let ovh4 = res.rows[4].area_overhead;
        assert!((ovh4 - 0.12).abs() < 1e-9);
        let ecc = res.rows.last().unwrap();
        assert!(ecc.area_overhead >= 0.35);
        assert!(res.table().contains("SECDED"));
        let _ = res.best_protection();
    }
}
