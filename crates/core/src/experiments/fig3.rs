//! Fig. 3 — memory failure probability versus supply voltage (65 nm).
//!
//! Pure model evaluation: `P_cell(Vdd)` for medium 6T, 15 %-upsized 6T
//! and 8T cells, plus the soft-error curve for contrast. Expected shape:
//! the RDF curves fall ~18 decades per volt with the 8T curve shifted
//! ≈200 mV left; the soft-error curve is nearly flat.

use silicon::cell::{BitCellKind, CellFailureModel, SoftErrorModel};

use crate::report::{render_series_table, Series};

/// Result of the Fig. 3 evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// Supply-voltage grid (V).
    pub vdd: Vec<f64>,
    /// `log10 P_cell` per cell kind, same order as [`BitCellKind::ALL`].
    pub log10_p: Vec<Vec<f64>>,
    /// `log10` soft-error probability.
    pub log10_soft: Vec<f64>,
}

/// Runs the evaluation over `0.5 V ..= 1.1 V`.
pub fn run() -> Fig3Result {
    let model = CellFailureModel::dac12();
    let soft = SoftErrorModel::dac12();
    let vdd: Vec<f64> = (0..=24).map(|i| 0.5 + i as f64 * 0.025).collect();
    let log10_p = BitCellKind::ALL
        .iter()
        .map(|&kind| vdd.iter().map(|&v| model.p_cell(kind, v).log10()).collect())
        .collect();
    let log10_soft = vdd.iter().map(|&v| soft.p_upset(v).log10()).collect();
    Fig3Result {
        vdd,
        log10_p,
        log10_soft,
    }
}

impl Fig3Result {
    /// Formats the curves as a table of `log10 P`.
    pub fn table(&self) -> String {
        let mut series: Vec<Series> = BitCellKind::ALL
            .iter()
            .zip(&self.log10_p)
            .map(|(kind, ys)| Series::new(kind.to_string(), self.vdd.clone(), ys.clone()))
            .collect();
        series.push(Series::new(
            "soft-error",
            self.vdd.clone(),
            self.log10_soft.clone(),
        ));
        render_series_table("Vdd[V]", &series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_have_paper_shape() {
        let res = run();
        let n = res.vdd.len();
        // RDF curves strictly decreasing with voltage (where unclamped).
        let six_t = &res.log10_p[0];
        assert!(six_t[0] > six_t[n - 1]);
        // 8T below 6T everywhere.
        for i in 0..n {
            assert!(res.log10_p[2][i] <= res.log10_p[0][i] + 1e-12);
        }
        // Soft errors nearly flat: < 1 decade over the whole range.
        let soft_span = res.log10_soft[0] - res.log10_soft[n - 1];
        assert!(soft_span.abs() < 1.0, "soft span {soft_span}");
        // RDF span is tens of decades (modulo clamping).
        let rdf_span = six_t[0] - six_t[n - 1];
        assert!(rdf_span > 5.0, "rdf span {rdf_span}");
        assert!(res.table().contains("6T"));
    }
}
