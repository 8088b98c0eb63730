//! SRAM bit-cell failure models (the paper's Fig. 3).
//!
//! The paper obtains per-cell failure probabilities from Monte-Carlo SPICE
//! simulation of a 65 nm slow-fast corner. We cannot run SPICE, so this
//! module reproduces the *curves* with the analytic behaviour the paper
//! states explicitly:
//!
//! * RDF-induced (parametric) failures grow by "a billion times" for every
//!   500 mV of supply reduction — i.e. 18 decades per volt on a log scale.
//! * Soft errors grow only 3× per 500 mV.
//! * A medium-sized 6T cell is dependable at the 1.0 V nominal supply,
//!   usable down to 0.8 V when ~0.1 % faulty cells are tolerated, and
//!   fails at ~1–10 % rates near 0.6 V.
//! * A 15 % upsized 6T cell shifts the curve by roughly 60 mV; an 8T cell
//!   by roughly 200 mV (it remains dependable at 0.8 V and tolerable at
//!   0.6 V).
//!
//! Those anchors define the default [`CellFailureModel::dac12`] model; all
//! downstream experiments only consume the scalar `P_cell(Vdd)`, so the
//! substitution preserves the paper's code path exactly.

/// SRAM bit-cell implementation choices studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BitCellKind {
    /// Medium-sized 6-transistor cell (area- and energy-efficient baseline).
    #[default]
    Sram6T,
    /// 6T cell with 15 % transistor upsizing.
    Sram6TUpsized,
    /// 8-transistor cell with a decoupled read port (robust option).
    Sram8T,
}

impl BitCellKind {
    /// All cell kinds, in increasing robustness order.
    pub const ALL: [BitCellKind; 3] = [
        BitCellKind::Sram6T,
        BitCellKind::Sram6TUpsized,
        BitCellKind::Sram8T,
    ];

    /// Relative cell area versus the 6T baseline.
    ///
    /// The 8T figure (~1.3×) reproduces the paper's arithmetic: protecting
    /// 4 of 10 LLR bits with 8T cells costs `(4·1.3 + 6·1.0)/10 − 1 ≈ 12–13 %`
    /// array area, the "~13 % overhead" of Fig. 8.
    pub fn relative_area(self) -> f64 {
        match self {
            BitCellKind::Sram6T => 1.0,
            BitCellKind::Sram6TUpsized => 1.15,
            BitCellKind::Sram8T => 1.30,
        }
    }

    /// Voltage shift of the failure curve relative to 6T (volts).
    ///
    /// A positive shift means the cell behaves like a 6T cell at a supply
    /// that much higher.
    pub fn voltage_margin(self) -> f64 {
        match self {
            BitCellKind::Sram6T => 0.0,
            BitCellKind::Sram6TUpsized => 0.06,
            BitCellKind::Sram8T => 0.20,
        }
    }
}

impl std::fmt::Display for BitCellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BitCellKind::Sram6T => "6T",
            BitCellKind::Sram6TUpsized => "6T+15%",
            BitCellKind::Sram8T => "8T",
        };
        f.write_str(s)
    }
}

/// Analytic `P_cell(Vdd)` model calibrated to the paper's anchors.
///
/// `log10 P = log10 P_nom + slope · (V_nom − V − margin(kind))`, clamped to
/// `[floor, ceil]`.
///
/// # Example
///
/// ```
/// use silicon::cell::{BitCellKind, CellFailureModel};
///
/// let m = CellFailureModel::dac12();
/// // 6T cells fail ~9 orders of magnitude more often at 0.5 V than at 1.0 V.
/// let ratio = m.p_cell(BitCellKind::Sram6T, 0.5) / m.p_cell(BitCellKind::Sram6T, 1.0);
/// assert!(ratio > 1e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFailureModel {
    /// Nominal supply voltage (volts).
    pub v_nominal: f64,
    /// `log10` of the 6T failure probability at nominal supply.
    pub log10_p_nominal: f64,
    /// RDF failure slope in decades per volt (paper: ~18 — "a billion times
    /// per 500 mV").
    pub decades_per_volt: f64,
    /// Lower clamp on the returned probability.
    pub floor: f64,
    /// Upper clamp on the returned probability.
    pub ceil: f64,
}

impl CellFailureModel {
    /// The default model calibrated to the paper's quoted anchors
    /// (65 nm, slow-fast corner).
    pub fn dac12() -> Self {
        Self {
            v_nominal: 1.0,
            log10_p_nominal: -8.0,
            decades_per_volt: 18.0,
            floor: 1e-15,
            ceil: 0.5,
        }
    }

    /// RDF-induced (persistent, parametric) failure probability of one
    /// bit cell of the given kind at supply `vdd` (volts).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn p_cell(&self, kind: BitCellKind, vdd: f64) -> f64 {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "supply voltage must be positive"
        );
        let effective_v = vdd + kind.voltage_margin();
        let log10p = self.log10_p_nominal + self.decades_per_volt * (self.v_nominal - effective_v);
        10f64.powf(log10p).clamp(self.floor, self.ceil)
    }

    /// Supply voltage at which the given cell kind reaches failure
    /// probability `p_target` (inverse of [`CellFailureModel::p_cell`],
    /// ignoring clamps).
    ///
    /// # Panics
    ///
    /// Panics if `p_target` is not in `(0, 1)`.
    pub fn vdd_for_p(&self, kind: BitCellKind, p_target: f64) -> f64 {
        assert!(
            p_target > 0.0 && p_target < 1.0,
            "target probability must be in (0, 1)"
        );
        let log10p = p_target.log10();
        self.v_nominal
            - (log10p - self.log10_p_nominal) / self.decades_per_volt
            - kind.voltage_margin()
    }
}

impl Default for CellFailureModel {
    fn default() -> Self {
        Self::dac12()
    }
}

/// Non-persistent soft-error model (radiation upsets).
///
/// Rates rise only 3× per 500 mV of supply reduction (paper, Section 3),
/// in contrast to the explosive RDF curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftErrorModel {
    /// Nominal supply voltage (volts).
    pub v_nominal: f64,
    /// Per-cell, per-read upset probability at nominal supply.
    pub p_nominal: f64,
}

impl SoftErrorModel {
    /// A 65 nm-class default: negligible next to RDF failures at low Vdd.
    pub fn dac12() -> Self {
        Self {
            v_nominal: 1.0,
            p_nominal: 1e-12,
        }
    }

    /// Per-cell upset probability at supply `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn p_upset(&self, vdd: f64) -> f64 {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "supply voltage must be positive"
        );
        self.p_nominal * 3f64.powf((self.v_nominal - vdd) / 0.5)
    }
}

impl Default for SoftErrorModel {
    fn default() -> Self {
        Self::dac12()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nominal_anchor() {
        let m = CellFailureModel::dac12();
        let p = m.p_cell(BitCellKind::Sram6T, 1.0);
        assert!((p.log10() + 8.0).abs() < 1e-9);
    }

    #[test]
    fn billion_times_per_half_volt() {
        let m = CellFailureModel::dac12();
        let hi = m.p_cell(BitCellKind::Sram6T, 0.6);
        let lo = m.p_cell(BitCellKind::Sram6T, 1.1);
        // 0.5 V apart within unclamped region → 1e9 ratio.
        let ratio = m.p_cell(BitCellKind::Sram6T, 0.7) / m.p_cell(BitCellKind::Sram6T, 1.2);
        assert!((ratio.log10() - 9.0).abs() < 0.5, "ratio {ratio}");
        assert!(hi > lo);
    }

    #[test]
    fn paper_anchor_08v_tolerable() {
        // At 0.8 V a 6T array sees ~1e-4-ish failure rates: tolerable with
        // 0.1 % accepted defects (paper Section 5).
        let m = CellFailureModel::dac12();
        let p = m.p_cell(BitCellKind::Sram6T, 0.8);
        assert!(p > 1e-6 && p < 1e-3, "p(0.8V) = {p}");
    }

    #[test]
    fn paper_anchor_06v_severe() {
        let m = CellFailureModel::dac12();
        let p = m.p_cell(BitCellKind::Sram6T, 0.6);
        assert!(
            p > 0.01,
            "6T at 0.6 V must be in the 1-10%+ regime, got {p}"
        );
    }

    #[test]
    fn eight_t_is_more_robust_everywhere() {
        let m = CellFailureModel::dac12();
        for v in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            let p6 = m.p_cell(BitCellKind::Sram6T, v);
            let pu = m.p_cell(BitCellKind::Sram6TUpsized, v);
            let p8 = m.p_cell(BitCellKind::Sram8T, v);
            assert!(p8 <= pu && pu <= p6, "ordering violated at {v} V");
        }
    }

    #[test]
    fn eight_t_at_06v_like_6t_at_08v() {
        let m = CellFailureModel::dac12();
        let p8 = m.p_cell(BitCellKind::Sram8T, 0.6);
        let p6 = m.p_cell(BitCellKind::Sram6T, 0.8);
        assert!((p8.log10() - p6.log10()).abs() < 0.1);
    }

    #[test]
    fn vdd_for_p_inverts_p_cell() {
        let m = CellFailureModel::dac12();
        for kind in BitCellKind::ALL {
            let v = m.vdd_for_p(kind, 1e-4);
            let p = m.p_cell(kind, v);
            assert!((p.log10() + 4.0).abs() < 1e-6, "{kind}: {p}");
        }
    }

    #[test]
    fn probabilities_clamped() {
        let m = CellFailureModel::dac12();
        assert!(m.p_cell(BitCellKind::Sram8T, 1.5) >= m.floor);
        assert!(m.p_cell(BitCellKind::Sram6T, 0.2) <= m.ceil);
    }

    #[test]
    fn soft_errors_grow_slowly() {
        let s = SoftErrorModel::dac12();
        let ratio = s.p_upset(0.5) / s.p_upset(1.0);
        assert!((ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn soft_errors_negligible_vs_rdf_at_low_v() {
        let m = CellFailureModel::dac12();
        let s = SoftErrorModel::dac12();
        assert!(s.p_upset(0.6) < 1e-6 * m.p_cell(BitCellKind::Sram6T, 0.6));
    }

    #[test]
    fn display_names() {
        assert_eq!(BitCellKind::Sram6T.to_string(), "6T");
        assert_eq!(BitCellKind::Sram8T.to_string(), "8T");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_vdd() {
        let _ = CellFailureModel::dac12().p_cell(BitCellKind::Sram6T, 0.0);
    }

    proptest! {
        #[test]
        fn p_cell_monotone_in_vdd(v in 0.4f64..1.2, dv in 0.01f64..0.3) {
            let m = CellFailureModel::dac12();
            for kind in BitCellKind::ALL {
                prop_assert!(m.p_cell(kind, v) >= m.p_cell(kind, v + dv));
            }
        }

        #[test]
        fn p_cell_in_unit_interval(v in 0.2f64..1.5) {
            let m = CellFailureModel::dac12();
            for kind in BitCellKind::ALL {
                let p = m.p_cell(kind, v);
                prop_assert!(p > 0.0 && p <= 0.5);
            }
        }
    }
}
