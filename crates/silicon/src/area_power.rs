//! Relative area and power models (Fig. 8 and Section 6.3).
//!
//! Absolute silicon numbers are technology-library data we cannot obtain;
//! the paper's arguments only use *relative* quantities, which this module
//! models explicitly:
//!
//! * array area — sum of per-cell relative areas from the protection plan
//!   (plus ECC column overhead when configured);
//! * dynamic power — `P ∝ C·V²` with capacitance proportional to area;
//! * leakage power — proportional to area and supply voltage;
//! * the iso-area power-saving comparison of Section 6.3 (hybrid array at
//!   0.6 V vs conventional 6T at its minimum reliable supply).

use crate::ecc::Secded;
use crate::hybrid::ProtectionPlan;

/// Relative area of an LLR storage array of `words` words under `plan`,
/// in units of one 6T bit cell.
pub fn array_area(words: u32, plan: &ProtectionPlan) -> f64 {
    words as f64 * plan.bits() as f64 * plan.relative_area()
}

/// Relative area of an ECC-protected array storing `words` words of
/// `data_bits` payload with SECDED check bits, all in 6T cells.
pub fn ecc_array_area(words: u32, data_bits: u8) -> f64 {
    let code = Secded::new(data_bits);
    words as f64 * code.codeword_bits() as f64
}

/// Simple memory power model: dynamic switching plus leakage.
///
/// All quantities are relative; [`PowerModel::dac12`] normalizes so that a
/// plain 6T array at 1.0 V has power 1.0 per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Nominal supply voltage (volts).
    pub v_nominal: f64,
    /// Fraction of nominal-supply power that is dynamic (`∝ V²`).
    pub dynamic_fraction: f64,
    /// Fraction of nominal-supply power that is leakage (`∝ V`).
    pub leakage_fraction: f64,
}

impl PowerModel {
    /// 65 nm-class defaults: 70 % dynamic, 30 % leakage at nominal supply.
    pub fn dac12() -> Self {
        Self {
            v_nominal: 1.0,
            dynamic_fraction: 0.7,
            leakage_fraction: 0.3,
        }
    }

    /// Relative power of one cell of relative area `area` at supply `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn cell_power(&self, area: f64, vdd: f64) -> f64 {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "supply voltage must be positive"
        );
        let vr = vdd / self.v_nominal;
        area * (self.dynamic_fraction * vr * vr + self.leakage_fraction * vr)
    }

    /// Relative power of a whole array under `plan` at supply `vdd`.
    pub fn array_power(&self, words: u32, plan: &ProtectionPlan, vdd: f64) -> f64 {
        words as f64 * plan.bits() as f64 * self.cell_power(plan.relative_area(), vdd)
    }

    /// Fractional power saving of configuration `(plan_b, v_b)` versus the
    /// reference `(plan_a, v_a)` for the same word count.
    ///
    /// Positive values mean `b` consumes less.
    pub fn power_saving(
        &self,
        plan_a: &ProtectionPlan,
        v_a: f64,
        plan_b: &ProtectionPlan,
        v_b: f64,
    ) -> f64 {
        let pa = self.cell_power(plan_a.relative_area(), v_a) * plan_a.bits() as f64;
        let pb = self.cell_power(plan_b.relative_area(), v_b) * plan_b.bits() as f64;
        1.0 - pb / pa
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::dac12()
    }
}

/// The protection-efficiency metric of Fig. 8:
/// `(throughput with protection / defect-free throughput) / (1 + area overhead)`.
///
/// The paper plots throughput gain against area overhead and identifies
/// the knee; this scalar ranks protection plans by gain per unit area.
pub fn protection_efficiency(throughput_ratio: f64, area_overhead: f64) -> f64 {
    assert!(area_overhead >= 0.0, "area overhead cannot be negative");
    throughput_ratio / (1.0 + area_overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::BitCellKind;
    use proptest::prelude::*;

    #[test]
    fn area_of_plain_array() {
        let plan = ProtectionPlan::uniform(10, BitCellKind::Sram6T);
        assert!((array_area(1000, &plan) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_area_matches_plan_overhead() {
        let plan = ProtectionPlan::msb_protected(10, 4);
        let a = array_area(100, &plan);
        assert!((a / 1000.0 - 1.12).abs() < 1e-9);
    }

    #[test]
    fn ecc_area_is_35_to_50_percent_larger() {
        // SECDED on 10 bits stores 15 bits: +50 %. The paper quotes 35 %
        // for bare Hamming (4 check bits); both are far above the hybrid's
        // 12-13 %.
        let base = 10.0 * 100.0;
        let ecc = ecc_array_area(100, 10);
        let overhead = ecc / base - 1.0;
        assert!(overhead >= 0.35, "overhead {overhead}");
    }

    #[test]
    fn nominal_power_is_unity() {
        let pm = PowerModel::dac12();
        assert!((pm.cell_power(1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_drops_superlinearly_with_vdd() {
        let pm = PowerModel::dac12();
        let p06 = pm.cell_power(1.0, 0.6);
        // Pure V² would give 0.36; leakage makes it a bit higher.
        assert!(p06 > 0.36 && p06 < 0.6, "p(0.6) = {p06}");
    }

    #[test]
    fn paper_section63_saving_about_30_percent() {
        // Hybrid (4 MSBs in 8T) at 0.6 V vs plain 6T at its 0.8 V
        // resilience-limited supply: the paper quotes ~30 % block power
        // saving. Our model should land in the same band.
        let pm = PowerModel::dac12();
        let plain = ProtectionPlan::uniform(10, BitCellKind::Sram6T);
        let hybrid = ProtectionPlan::msb_protected(10, 4);
        let saving = pm.power_saving(&plain, 0.8, &hybrid, 0.6);
        assert!(saving > 0.20 && saving < 0.45, "saving {saving}");
    }

    #[test]
    fn voltage_scaling_beats_protection_overhead() {
        // Even the full-8T array at 0.6 V beats plain 6T at 1.0 V.
        let pm = PowerModel::dac12();
        let plain = ProtectionPlan::uniform(10, BitCellKind::Sram6T);
        let all8t = ProtectionPlan::uniform(10, BitCellKind::Sram8T);
        assert!(pm.power_saving(&plain, 1.0, &all8t, 0.6) > 0.3);
    }

    #[test]
    fn efficiency_prefers_cheap_protection() {
        // Same throughput recovery, less area → higher efficiency.
        let e4 = protection_efficiency(0.98, 0.12);
        let e10 = protection_efficiency(1.0, 0.30);
        assert!(e4 > e10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_vdd_rejected() {
        let _ = PowerModel::dac12().cell_power(1.0, -0.1);
    }

    proptest! {
        #[test]
        fn power_monotone_in_vdd(v in 0.3f64..1.2, dv in 0.01f64..0.3, area in 0.5f64..2.0) {
            let pm = PowerModel::dac12();
            prop_assert!(pm.cell_power(area, v) < pm.cell_power(area, v + dv));
        }

        #[test]
        fn saving_antisymmetric_sign(v in 0.5f64..0.9) {
            let pm = PowerModel::dac12();
            let plan = ProtectionPlan::uniform(10, BitCellKind::Sram6T);
            let s = pm.power_saving(&plan, 1.0, &plan, v);
            prop_assert!(s > 0.0, "scaling down must save power");
        }
    }
}
