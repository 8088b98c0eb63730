//! Fig. 5 — yield versus accepted faulty cells (200 Kb array).
//!
//! Evaluates Eq. (2): `Y(N_f)` for several cell-failure probabilities.
//! Expected shape: each curve is a sharp sigmoid around `M·P_cell`;
//! accepting ~0.1 % defects meets a 95 % yield target at `P_cell = 1e-4`,
//! and higher `P_cell` (lower supply voltage) needs proportionally more
//! accepted defects.

use silicon::yield_model::{min_accepted_faults, yield_accepting};

use crate::report::{render_table, Series};

/// Default array size: 200 Kb, as in the paper's Fig. 5.
pub const ARRAY_CELLS: u64 = 200 * 1024;

/// Cell-failure probabilities swept (each corresponds to a supply
/// voltage through Fig. 3).
pub const P_CELLS: [f64; 4] = [1e-5, 1e-4, 1e-3, 1e-2];

/// Result of the Fig. 5 evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Accepted-fault counts (x axis).
    pub n_f: Vec<u64>,
    /// One yield curve per `P_cell`.
    pub curves: Vec<YieldCurve>,
    /// Minimum `N_f` meeting the 95 % target per `P_cell`.
    pub nf_for_95: Vec<Option<u64>>,
}

/// One yield curve.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldCurve {
    /// The per-cell failure probability.
    pub p_cell: f64,
    /// Yield at each accepted-fault count.
    pub yields: Vec<f64>,
}

/// Runs the evaluation for the standard array.
pub fn run() -> Fig5Result {
    run_for(ARRAY_CELLS)
}

/// Runs the evaluation for an arbitrary array size.
pub fn run_for(cells: u64) -> Fig5Result {
    // Log-spaced N_f axis from 1 cell to 10 % of the array.
    let mut n_f: Vec<u64> = Vec::new();
    let mut v = 1u64;
    while v <= cells / 10 {
        n_f.push(v);
        v = (v as f64 * 1.6).ceil() as u64;
    }
    let curves: Vec<YieldCurve> = P_CELLS
        .iter()
        .map(|&p| YieldCurve {
            p_cell: p,
            yields: n_f
                .iter()
                .map(|&nf| yield_accepting(cells, p, nf))
                .collect(),
        })
        .collect();
    let nf_for_95 = P_CELLS
        .iter()
        .map(|&p| min_accepted_faults(cells, p, 0.95))
        .collect();
    Fig5Result {
        n_f,
        curves,
        nf_for_95,
    }
}

impl Fig5Result {
    /// Formats the curves as a table plus the 95 %-target summary.
    pub fn table(&self) -> String {
        let x: Vec<f64> = self.n_f.iter().map(|&n| n as f64).collect();
        let series: Vec<Series> = self
            .curves
            .iter()
            .map(|c| {
                Series::new(
                    format!("Pcell={:.0e}", c.p_cell),
                    x.clone(),
                    c.yields.clone(),
                )
            })
            .collect();
        let mut out = crate::report::render_series_table("Nf", &series);
        out.push('\n');
        let rows: Vec<Vec<String>> = self
            .curves
            .iter()
            .zip(&self.nf_for_95)
            .map(|(c, nf)| {
                vec![
                    format!("{:.0e}", c.p_cell),
                    nf.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
                    nf.map(|n| format!("{:.4}%", 100.0 * n as f64 / ARRAY_CELLS as f64))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["Pcell".into(), "Nf@95%".into(), "defect %".into()],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_point() {
        let res = run();
        // Pcell = 1e-4: accepting 0.1% of the array meets 95%.
        let idx = P_CELLS.iter().position(|&p| p == 1e-4).unwrap();
        let nf95 = res.nf_for_95[idx].unwrap();
        assert!(
            (nf95 as f64) < ARRAY_CELLS as f64 * 0.001,
            "0.1% acceptance must suffice at Pcell=1e-4, needs {nf95}"
        );
        // And the curves are monotone in Nf.
        for c in &res.curves {
            for w in c.yields.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn higher_pcell_needs_more_acceptance() {
        let res = run();
        let mut prev = 0u64;
        for nf in res.nf_for_95.iter().flatten() {
            assert!(*nf >= prev);
            prev = *nf;
        }
        assert!(res.table().contains("Pcell"));
    }
}
