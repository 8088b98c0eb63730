//! Physical underpinning of the failure curves: Vth-mismatch Monte-Carlo.
//!
//! The paper's Fig. 3 comes from transistor-level Monte-Carlo simulation
//! of random dopant fluctuation (RDF). This module provides the textbook
//! statistical abstraction of that experiment: each cell's static noise
//! margin shrinks linearly with supply voltage and is perturbed by a
//! Gaussian Vth mismatch (Pelgrom scaling), failing when the margin goes
//! negative. It reproduces the same `P_cell(Vdd)` *family* as the
//! calibrated curves in [`crate::cell`] from physical parameters instead
//! of anchors — and a consistency test ties the two together.

use rand::Rng;

use dsp::rng::seeded;
use dsp::stats::q_function;

/// Statistical cell-stability model: the cell fails when its noise
/// margin `m(Vdd) = margin_slope · (Vdd − v_min)` falls below the local
/// Vth mismatch draw `ΔVth ~ N(0, sigma_vth²)`.
///
/// `P_fail(Vdd) = Q(m(Vdd) / sigma_vth)` in closed form; the Monte-Carlo
/// estimator exists to mirror the paper's methodology (and to validate
/// the closed form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VthMismatchModel {
    /// Vth mismatch standard deviation (volts). Pelgrom: `A_vt/√(WL)`;
    /// ~30-50 mV for minimum-size 65 nm devices.
    pub sigma_vth: f64,
    /// Supply voltage at which the nominal margin reaches zero (volts).
    pub v_min: f64,
    /// Margin gained per volt of supply (dimensionless voltage gain).
    pub margin_slope: f64,
}

impl VthMismatchModel {
    /// A minimum-size 6T cell in a 65 nm-class process.
    pub fn cell_65nm_6t() -> Self {
        Self {
            sigma_vth: 0.042,
            v_min: 0.34,
            margin_slope: 0.38,
        }
    }

    /// A 15 % upsized 6T cell: mismatch shrinks with `√(WL)`.
    pub fn cell_65nm_6t_upsized() -> Self {
        Self {
            sigma_vth: 0.042 / 1.15f64.sqrt(),
            ..Self::cell_65nm_6t()
        }
    }

    /// An 8T cell: the decoupled read port removes the read-disturb
    /// failure mode, effectively enlarging the margin.
    pub fn cell_65nm_8t() -> Self {
        Self {
            v_min: 0.34 - 0.2,
            ..Self::cell_65nm_6t()
        }
    }

    /// Closed-form failure probability at supply `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn p_fail(&self, vdd: f64) -> f64 {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "supply voltage must be positive"
        );
        let margin = self.margin_slope * (vdd - self.v_min);
        q_function(margin / self.sigma_vth)
    }

    /// Monte-Carlo estimate over `trials` mismatch draws (the paper's
    /// circuit-simulation methodology, abstracted).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero or `vdd` invalid.
    pub fn p_fail_monte_carlo(&self, vdd: f64, trials: u32, seed: u64) -> f64 {
        assert!(trials > 0, "need at least one trial");
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "supply voltage must be positive"
        );
        let margin = self.margin_slope * (vdd - self.v_min);
        let mut rng = seeded(seed);
        let mut fails = 0u32;
        for _ in 0..trials {
            let dvth = self.sigma_vth * dsp::rng::standard_normal(&mut rng);
            if dvth > margin {
                fails += 1;
            }
        }
        let _ = rng.gen::<u32>();
        fails as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{BitCellKind, CellFailureModel};

    #[test]
    fn monte_carlo_matches_closed_form() {
        let m = VthMismatchModel::cell_65nm_6t();
        // Pick a voltage where P is large enough to estimate with 200k
        // trials.
        let vdd = 0.55;
        let exact = m.p_fail(vdd);
        let mc = m.p_fail_monte_carlo(vdd, 200_000, 1);
        assert!(exact > 1e-3, "need a measurable rate, got {exact}");
        assert!(
            (mc - exact).abs() / exact < 0.15,
            "MC {mc} vs closed form {exact}"
        );
    }

    #[test]
    fn robust_cells_fail_less() {
        for vdd in [0.5, 0.6, 0.7, 0.8] {
            let p6 = VthMismatchModel::cell_65nm_6t().p_fail(vdd);
            let pu = VthMismatchModel::cell_65nm_6t_upsized().p_fail(vdd);
            let p8 = VthMismatchModel::cell_65nm_8t().p_fail(vdd);
            assert!(p8 < pu && pu < p6, "ordering violated at {vdd} V");
        }
    }

    #[test]
    fn physical_model_tracks_calibrated_curve() {
        // The Gaussian-tail model and the calibrated log-linear curve
        // should agree on the *order of magnitude* in the operating band
        // the paper sweeps (they differ in functional form far in the
        // tail, as a Q-function is not exactly log-linear).
        let phys = VthMismatchModel::cell_65nm_6t();
        let cal = CellFailureModel::dac12();
        for vdd in [0.6, 0.7, 0.8] {
            let a = phys.p_fail(vdd).log10();
            let b = cal.p_cell(BitCellKind::Sram6T, vdd).log10();
            assert!(
                (a - b).abs() < 2.0,
                "models diverge at {vdd} V: 1e{a:.1} vs 1e{b:.1}"
            );
        }
    }

    #[test]
    fn explosive_voltage_sensitivity() {
        // The RDF hallmark the paper quotes: orders of magnitude per
        // 100 mV in the sub-threshold-margin region.
        let m = VthMismatchModel::cell_65nm_6t();
        let ratio = m.p_fail(0.6) / m.p_fail(0.8);
        assert!(ratio > 1e2, "per-200mV growth {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_vdd_rejected() {
        let _ = VthMismatchModel::cell_65nm_6t().p_fail(-1.0);
    }
}
