//! Per-bit protection plans for hybrid 6T/8T arrays (Section 6.1).
//!
//! The paper's key proposal: implement the few most-significant bits of
//! each stored LLR word with robust (8T) cells and keep cheap 6T cells for
//! the rest. A [`ProtectionPlan`] assigns a [`BitCellKind`] to every bit
//! position of the word and derives fault statistics, fault maps and area
//! figures from that assignment.

use crate::cell::{BitCellKind, CellFailureModel};
use crate::fault_map::{FaultKind, FaultMap};
use dsp::rng::{derive_seed, seeded};
use rand::Rng;

/// Assignment of a bit-cell implementation to every bit of a stored word.
///
/// Bit positions are LSB-first (`cells[0]` is bit 0); the MSB of a `W`-bit
/// word is position `W-1`.
///
/// # Example
///
/// ```
/// use silicon::ProtectionPlan;
/// use silicon::cell::BitCellKind;
///
/// // The paper's sweet spot: 4 MSBs in 8T, 6 LSBs in 6T, ~12-13 % area.
/// let plan = ProtectionPlan::msb_protected(10, 4);
/// assert_eq!(plan.protected_bits(), 4);
/// let ovh = plan.area_overhead_vs_6t();
/// assert!(ovh > 0.10 && ovh < 0.14);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionPlan {
    cells: Vec<BitCellKind>,
}

impl ProtectionPlan {
    /// A uniform array: every bit uses the same cell kind.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn uniform(bits: u8, kind: BitCellKind) -> Self {
        assert!(bits > 0, "word width must be positive");
        Self {
            cells: vec![kind; bits as usize],
        }
    }

    /// The paper's preferential scheme: the `protected` most-significant
    /// bits use 8T cells, the rest 6T.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `protected > bits`.
    pub fn msb_protected(bits: u8, protected: u8) -> Self {
        assert!(bits > 0, "word width must be positive");
        assert!(
            protected <= bits,
            "cannot protect more bits than the word has"
        );
        let mut cells = vec![BitCellKind::Sram6T; bits as usize];
        for b in (bits - protected)..bits {
            cells[b as usize] = BitCellKind::Sram8T;
        }
        Self { cells }
    }

    /// A custom per-bit assignment (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    pub fn custom(cells: Vec<BitCellKind>) -> Self {
        assert!(!cells.is_empty(), "word width must be positive");
        Self { cells }
    }

    /// Word width in bits.
    pub fn bits(&self) -> u8 {
        self.cells.len() as u8
    }

    /// Cell kind of bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn cell(&self, bit: u8) -> BitCellKind {
        self.cells[bit as usize]
    }

    /// Number of bits implemented with 8T cells.
    pub fn protected_bits(&self) -> u8 {
        self.cells
            .iter()
            .filter(|&&c| c == BitCellKind::Sram8T)
            .count() as u8
    }

    /// Contiguous range of 6T ("unprotected") bit positions, if the plan is
    /// an MSB-protection plan; `None` for arbitrary mixes.
    pub fn unprotected_range(&self) -> Option<std::ops::Range<u8>> {
        let first_8t = self
            .cells
            .iter()
            .position(|&c| c == BitCellKind::Sram8T)
            .unwrap_or(self.cells.len());
        if self.cells[..first_8t]
            .iter()
            .all(|&c| c == BitCellKind::Sram6T)
            && self.cells[first_8t..]
                .iter()
                .all(|&c| c == BitCellKind::Sram8T)
        {
            Some(0..first_8t as u8)
        } else {
            None
        }
    }

    /// Mean relative cell area of the word versus an all-6T word.
    pub fn relative_area(&self) -> f64 {
        self.cells.iter().map(|c| c.relative_area()).sum::<f64>() / self.cells.len() as f64
    }

    /// Area overhead versus an all-6T array (`relative_area − 1`).
    pub fn area_overhead_vs_6t(&self) -> f64 {
        self.relative_area() - 1.0
    }

    /// Expected fraction of faulty cells in a word at supply `vdd`.
    pub fn expected_defect_fraction(&self, model: &CellFailureModel, vdd: f64) -> f64 {
        self.cells
            .iter()
            .map(|&c| model.p_cell(c, vdd))
            .sum::<f64>()
            / self.cells.len() as f64
    }

    /// Draws a manufacturing fault map for an array of `words` words at
    /// supply `vdd`: each cell fails independently with its kind's
    /// `P_cell(vdd)`.
    pub fn fault_map_at_vdd(
        &self,
        words: u32,
        model: &CellFailureModel,
        vdd: f64,
        kind: FaultKind,
        seed: u64,
    ) -> FaultMap {
        let per_bit_p: Vec<f64> = self.cells.iter().map(|&c| model.p_cell(c, vdd)).collect();
        let mut rng = seeded(seed);
        let mut map = FaultMap::defect_free(words, self.bits());
        // Build via the Bernoulli path bit class by bit class to keep the
        // sorted-by-(word,bit) invariant FaultMap::corrupt relies on.
        let mut faults = Vec::new();
        for word in 0..words {
            for (bit, &p) in per_bit_p.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    faults.push(crate::fault_map::Fault {
                        word,
                        bit: bit as u8,
                        kind,
                    });
                }
            }
        }
        map.set_faults(faults);
        map
    }

    /// Draws the paper's Fig. 7 worst-case map: exactly `n_faults` faults
    /// uniformly over the **unprotected (6T) bits only**, with the
    /// protected MSB columns fault-free.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not an MSB-protection plan, if every bit is
    /// protected while `n_faults > 0`, or if `n_faults` exceeds the number
    /// of unprotected cells.
    pub fn fault_map_exact_unprotected(
        &self,
        words: u32,
        n_faults: usize,
        kind: FaultKind,
        seed: u64,
    ) -> FaultMap {
        let range = self
            .unprotected_range()
            .expect("fault_map_exact_unprotected requires an MSB-protection plan");
        if range.is_empty() {
            assert_eq!(
                n_faults, 0,
                "fully protected plan cannot host {n_faults} faults"
            );
            return FaultMap::defect_free(words, self.bits());
        }
        FaultMap::random_in_bits(
            words,
            self.bits(),
            range,
            n_faults,
            kind,
            derive_seed(seed, 0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_plans() {
        let p6 = ProtectionPlan::uniform(10, BitCellKind::Sram6T);
        assert_eq!(p6.protected_bits(), 0);
        assert!((p6.relative_area() - 1.0).abs() < 1e-12);
        let p8 = ProtectionPlan::uniform(10, BitCellKind::Sram8T);
        assert_eq!(p8.protected_bits(), 10);
        assert!((p8.area_overhead_vs_6t() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn paper_sweet_spot_area() {
        // 4 of 10 bits in 8T → (4·1.3 + 6)/10 = 1.12 → 12 % overhead,
        // matching the "~13 %" the paper quotes for Fig. 8.
        let plan = ProtectionPlan::msb_protected(10, 4);
        assert!((plan.area_overhead_vs_6t() - 0.12).abs() < 1e-9);
    }

    #[test]
    fn msb_positions_are_protected() {
        let plan = ProtectionPlan::msb_protected(10, 3);
        for bit in 0..7 {
            assert_eq!(plan.cell(bit), BitCellKind::Sram6T);
        }
        for bit in 7..10 {
            assert_eq!(plan.cell(bit), BitCellKind::Sram8T);
        }
        assert_eq!(plan.unprotected_range(), Some(0..7));
    }

    #[test]
    fn custom_mixed_plan_has_no_unprotected_range() {
        let plan = ProtectionPlan::custom(vec![
            BitCellKind::Sram8T,
            BitCellKind::Sram6T,
            BitCellKind::Sram8T,
        ]);
        assert_eq!(plan.unprotected_range(), None);
    }

    #[test]
    fn expected_defects_drop_with_protection() {
        let model = CellFailureModel::dac12();
        let none = ProtectionPlan::msb_protected(10, 0);
        let four = ProtectionPlan::msb_protected(10, 4);
        let all = ProtectionPlan::msb_protected(10, 10);
        let v = 0.65;
        let d0 = none.expected_defect_fraction(&model, v);
        let d4 = four.expected_defect_fraction(&model, v);
        let d10 = all.expected_defect_fraction(&model, v);
        assert!(d0 > d4 && d4 > d10);
        // With 4 of 10 bits protected, ~60 % of the faults remain.
        assert!((d4 / d0 - 0.6).abs() < 0.05);
    }

    #[test]
    fn exact_unprotected_map_spares_msbs() {
        let plan = ProtectionPlan::msb_protected(10, 4);
        let map = plan.fault_map_exact_unprotected(500, 300, FaultKind::Flip, 11);
        assert_eq!(map.fault_count(), 300);
        assert_eq!(map.faults_in_bits(6..10), 0, "protected bits must be clean");
    }

    #[test]
    fn fully_protected_plan_is_defect_free() {
        let plan = ProtectionPlan::msb_protected(10, 10);
        let map = plan.fault_map_exact_unprotected(100, 0, FaultKind::Flip, 0);
        assert_eq!(map.fault_count(), 0);
    }

    #[test]
    fn vdd_fault_map_statistics() {
        let model = CellFailureModel::dac12();
        let plan = ProtectionPlan::msb_protected(10, 4);
        let vdd = 0.62; // 6T in the percent regime, 8T still clean
        let map = plan.fault_map_at_vdd(3000, &model, vdd, FaultKind::Flip, 21);
        let p6 = model.p_cell(BitCellKind::Sram6T, vdd);
        let unprot = map.faults_in_bits(0..6) as f64 / (3000.0 * 6.0);
        assert!(
            (unprot - p6).abs() < 0.25 * p6 + 1e-3,
            "unprotected rate {unprot} vs {p6}"
        );
        let prot = map.faults_in_bits(6..10);
        assert!(
            (prot as f64) < 0.01 * map.fault_count() as f64 + 3.0,
            "8T bits should be nearly fault-free, got {prot}"
        );
    }

    #[test]
    #[should_panic(expected = "MSB-protection plan")]
    fn exact_unprotected_requires_msb_plan() {
        let plan = ProtectionPlan::custom(vec![BitCellKind::Sram8T, BitCellKind::Sram6T]);
        let _ = plan.fault_map_exact_unprotected(10, 1, FaultKind::Flip, 0);
    }

    proptest! {
        #[test]
        fn area_monotone_in_protection(k in 0u8..=10) {
            let a = ProtectionPlan::msb_protected(10, k).relative_area();
            let b = ProtectionPlan::msb_protected(10, k.saturating_add(1).min(10)).relative_area();
            prop_assert!(b >= a - 1e-12);
        }

        #[test]
        fn unprotected_range_complements_protected(k in 0u8..=10) {
            let plan = ProtectionPlan::msb_protected(10, k);
            let r = plan.unprotected_range().unwrap();
            prop_assert_eq!(r.end, 10 - k);
            prop_assert_eq!(plan.protected_bits(), k);
        }
    }
}
