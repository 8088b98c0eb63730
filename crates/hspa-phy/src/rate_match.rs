//! HARQ rate matching with redundancy versions (TS 25.212 §4.2.7/§4.5.4).
//!
//! Rate matching adapts the `3K + 12`-bit turbo codeword to the number of
//! physical-channel bits of one transmission, by puncturing (too few
//! channel bits) or repetition (too many). HSDPA's incremental-redundancy
//! HARQ varies the puncturing pattern across retransmissions through the
//! redundancy version (RV), so combined retransmissions fill in bits
//! punctured earlier.
//!
//! The implementation uses the 3GPP `e`-algorithm (`e_ini`/`e_plus`/
//! `e_minus` error accumulation) per stream. Systematic bits are
//! transmitted in full for self-decodable RVs (`s = 1`) and punctured
//! first for non-self-decodable ones (`s = 0`); parity streams share the
//! remaining budget evenly. The whole mapping is exposed as an index map,
//! which makes the receiver's LLR de-rate-matching (accumulation) exact.

use std::sync::OnceLock;

/// A redundancy version: `s` selects systematic priority, `r` rotates the
/// puncturing phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RedundancyVersion {
    /// `true` → self-decodable (systematic bits prioritized).
    pub s: bool,
    /// Puncturing-phase index `0..r_max`.
    pub r: u8,
}

impl RedundancyVersion {
    /// Number of distinct puncturing phases used by the default cycle.
    pub const R_MAX: u8 = 4;

    /// The default HSDPA RV cycle for incremental redundancy:
    /// first transmission self-decodable, later ones rotating phases.
    pub fn ir_cycle(attempt: usize) -> Self {
        let table = [
            RedundancyVersion { s: true, r: 0 },
            RedundancyVersion { s: false, r: 1 },
            RedundancyVersion { s: true, r: 2 },
            RedundancyVersion { s: false, r: 3 },
        ];
        table[attempt % table.len()]
    }

    /// Chase combining: every transmission uses the identical RV.
    pub fn chase() -> Self {
        RedundancyVersion { s: true, r: 0 }
    }
}

impl Default for RedundancyVersion {
    fn default() -> Self {
        Self::chase()
    }
}

/// Rate matcher for one codeword length / channel-bit budget.
///
/// # Example
///
/// ```
/// use hspa_phy::rate_match::{RateMatcher, RedundancyVersion};
///
/// // K = 100: codeword 312 bits, channel budget 240 → puncturing.
/// let rm = RateMatcher::new(100, 240);
/// let map = rm.index_map(RedundancyVersion::chase());
/// assert_eq!(map.len(), 240);
/// assert!(map.iter().all(|&i| i < 312));
/// ```
#[derive(Debug, Clone)]
pub struct RateMatcher {
    k: usize,
    coded_len: usize,
    target_len: usize,
    /// Lazily-built index maps, one slot per `(r, s)` redundancy version.
    /// Rate matching and LLR accumulation run once per transmission of
    /// every simulated packet, so rebuilding the map each call dominated
    /// the hot path; the cache makes those calls allocation-free.
    cache: [OnceLock<Vec<usize>>; RateMatcher::CACHE_SLOTS],
}

impl PartialEq for RateMatcher {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived state; identity is the configuration.
        self.k == other.k
            && self.coded_len == other.coded_len
            && self.target_len == other.target_len
    }
}

impl Eq for RateMatcher {}

impl RateMatcher {
    /// Creates a rate matcher for information length `k` (codeword
    /// `3k + 12`) and `target_len` physical-channel bits.
    ///
    /// # Panics
    ///
    /// Panics if `target_len` is smaller than the systematic stream
    /// (`k + 6` bits — the code would no longer be self-decodable even in
    /// principle) or zero.
    pub fn new(k: usize, target_len: usize) -> Self {
        let coded_len = 3 * k + 12;
        assert!(
            target_len >= k + 6,
            "target {target_len} below systematic stream length {}",
            k + 6
        );
        Self {
            k,
            coded_len,
            target_len,
            cache: Default::default(),
        }
    }

    const CACHE_SLOTS: usize = 2 * RedundancyVersion::R_MAX as usize;

    /// The cached index map for `rv`, built on first use.
    fn cached_map(&self, rv: RedundancyVersion) -> &[usize] {
        let slot = (rv.r as usize % RedundancyVersion::R_MAX as usize) * 2 + rv.s as usize;
        self.cache[slot].get_or_init(|| self.index_map(rv))
    }

    /// Information block length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Mother codeword length `3k + 12`.
    pub fn coded_len(&self) -> usize {
        self.coded_len
    }

    /// Channel bits per transmission.
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Effective code rate of one transmission.
    pub fn rate(&self) -> f64 {
        self.k as f64 / self.target_len as f64
    }

    /// The transmission index map for redundancy version `rv`:
    /// `output[j] = codeword[map[j]]`. Repetition repeats indices;
    /// puncturing omits them.
    // alloc: cold(cache fill behind OnceLock; runs once per redundancy version, then reused)
    pub fn index_map(&self, rv: RedundancyVersion) -> Vec<usize> {
        // Stream boundaries in the TurboCode::encode layout:
        // sys = [0, k) ∪ tail1 systematic positions, but tails are stored
        // at the end; treat streams as index lists.
        let k = self.k;
        let sys: Vec<usize> = (0..k)
            .chain([3 * k, 3 * k + 2, 3 * k + 4]) // tail1 x bits
            .chain([3 * k + 6, 3 * k + 8, 3 * k + 10]) // tail2 x' bits
            .collect();
        let p1: Vec<usize> = (k..2 * k)
            .chain([3 * k + 1, 3 * k + 3, 3 * k + 5]) // tail1 z bits
            .collect();
        let p2: Vec<usize> = (2 * k..3 * k)
            .chain([3 * k + 7, 3 * k + 9, 3 * k + 11]) // tail2 z' bits
            .collect();

        let n_sys = sys.len();
        let n_p = p1.len() + p2.len();
        let target = self.target_len;

        if target >= self.coded_len {
            // Repetition: send everything once, then repeat cyclically
            // starting at an RV-dependent offset.
            let mut out: Vec<usize> = sys.iter().chain(&p1).chain(&p2).copied().collect();
            let extra = target - self.coded_len;
            let offset = (rv.r as usize * self.coded_len) / RedundancyVersion::R_MAX as usize;
            for j in 0..extra {
                out.push((offset + j) % self.coded_len);
            }
            return out;
        }

        // Puncturing.
        let (keep_sys, keep_par) = if rv.s {
            // Self-decodable: keep all systematic bits.
            let keep_par = target - n_sys;
            (n_sys, keep_par)
        } else {
            // Non-self-decodable: favour parity; puncture systematic down
            // to make room, but never below half (keeps iterative decoding
            // alive when combined with an s=1 transmission).
            let want_par = n_p.min(target);
            let keep_sys = target
                .saturating_sub(want_par)
                .max(target.saturating_sub(n_p).max(n_sys / 2.min(n_sys)));
            (keep_sys.min(n_sys), target - keep_sys.min(n_sys))
        };

        let keep_p1 = keep_par / 2 + keep_par % 2;
        let keep_p2 = keep_par / 2;

        let mut out = Vec::with_capacity(target);
        out.extend(select_kept(&sys, keep_sys, rv.r, 0));
        out.extend(select_kept(&p1, keep_p1.min(p1.len()), rv.r, 1));
        out.extend(select_kept(&p2, keep_p2.min(p2.len()), rv.r, 2));
        // Rounding interplay can leave a tiny shortfall; pad from parity.
        let mut wrap = 0usize;
        while out.len() < target {
            out.push(p1[wrap % p1.len()]);
            wrap += 1;
        }
        out.truncate(target);
        out
    }

    /// Applies rate matching to encoder output bits.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len() != coded_len()`.
    pub fn rate_match(&self, coded: &[u8], rv: RedundancyVersion) -> Vec<u8> {
        let mut out = Vec::new();
        self.rate_match_into(coded, rv, &mut out);
        out
    }

    /// Allocation-free variant of [`RateMatcher::rate_match`]: clears
    /// `out` and fills it with the transmission bits, reusing its
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len() != coded_len()`.
    pub fn rate_match_into(&self, coded: &[u8], rv: RedundancyVersion, out: &mut Vec<u8>) {
        assert_eq!(coded.len(), self.coded_len, "codeword length mismatch");
        out.clear();
        out.extend(self.cached_map(rv).iter().map(|&i| coded[i]));
    }

    /// De-rate-matching: accumulates received LLRs into a codeword-sized
    /// buffer (punctured positions stay at their prior value; repeated
    /// positions accumulate).
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != target_len()` or
    /// `buffer.len() != coded_len()`.
    pub fn accumulate(&self, llrs: &[f64], rv: RedundancyVersion, buffer: &mut [f64]) {
        assert_eq!(llrs.len(), self.target_len, "received length mismatch");
        assert_eq!(buffer.len(), self.coded_len, "buffer length mismatch");
        for (j, &idx) in self.cached_map(rv).iter().enumerate() {
            buffer[idx] += llrs[j];
        }
    }
}

/// Keeps `keep` of the `stream` positions using the 3GPP `e`-algorithm:
/// puncture `X - keep` bits with error accumulation, with the initial
/// error offset rotated by the RV phase `r` so different RVs puncture
/// different positions.
fn select_kept(stream: &[usize], keep: usize, r: u8, salt: u64) -> Vec<usize> {
    let x = stream.len();
    if keep >= x {
        return stream.to_vec();
    }
    let to_remove = x - keep;
    let e_plus = x as i64;
    let e_minus = to_remove as i64;
    // RV-dependent initial error per 25.212 §4.5.4.3 flavour:
    // e_ini = ((X - (r·e_plus)/r_max) - 1) mod e_plus + 1, salted per
    // stream so the three streams do not puncture in lockstep.
    let rmax = RedundancyVersion::R_MAX as i64;
    let phase = (r as i64 + salt as i64) % rmax;
    let e_ini = ((x as i64 - (phase * e_plus) / rmax - 1).rem_euclid(e_plus)) + 1;
    let mut e = e_ini;
    let mut out = Vec::with_capacity(keep);
    for &pos in stream {
        e -= e_minus;
        if e <= 0 {
            e += e_plus; // puncture this bit
        } else {
            out.push(pos);
        }
    }
    // The e-algorithm removes exactly `to_remove` bits when
    // e_minus·X ≡ 0 handling is exact; guard against off-by-one drift.
    debug_assert!(out.len() == keep || out.len() == keep + 1 || out.len() + 1 == keep);
    out.truncate(keep);
    while out.len() < keep {
        out.push(*stream.last().expect("non-empty stream"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turbo::TurboCode;
    use dsp::rng::{random_bits, seeded};
    use proptest::prelude::*;

    #[test]
    fn identity_when_target_equals_codeword() {
        let rm = RateMatcher::new(100, 312);
        let map = rm.index_map(RedundancyVersion::chase());
        let mut sorted = map.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..312).collect::<Vec<_>>());
    }

    #[test]
    fn puncturing_map_is_distinct_and_in_range() {
        let rm = RateMatcher::new(100, 200);
        for r in 0..4u8 {
            for s in [true, false] {
                let map = rm.index_map(RedundancyVersion { s, r });
                assert_eq!(map.len(), 200, "s={s} r={r}");
                assert!(map.iter().all(|&i| i < 312));
                let mut sorted = map.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 200, "punctured map must not repeat bits");
            }
        }
    }

    #[test]
    fn self_decodable_keeps_all_systematic() {
        let k = 100;
        let rm = RateMatcher::new(k, 160);
        let map = rm.index_map(RedundancyVersion { s: true, r: 0 });
        for i in 0..k {
            assert!(map.contains(&i), "systematic bit {i} punctured");
        }
    }

    #[test]
    fn rv_phases_differ() {
        let rm = RateMatcher::new(100, 200);
        let m0 = rm.index_map(RedundancyVersion { s: true, r: 0 });
        let m2 = rm.index_map(RedundancyVersion { s: true, r: 2 });
        assert_ne!(m0, m2, "different RVs must puncture differently");
    }

    #[test]
    fn repetition_covers_everything() {
        let rm = RateMatcher::new(100, 400);
        let map = rm.index_map(RedundancyVersion::chase());
        assert_eq!(map.len(), 400);
        let mut seen = vec![false; 312];
        for &i in &map {
            seen[i] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "repetition must cover the codeword"
        );
    }

    #[test]
    fn accumulate_inverts_rate_match_noiseless() {
        let k = 100;
        let code = TurboCode::new(k).unwrap();
        let rm = RateMatcher::new(k, 220);
        let mut rng = seeded(3);
        let bits = random_bits(&mut rng, k);
        let coded = code.encode(&bits);
        let rv = RedundancyVersion::chase();
        let tx = rm.rate_match(&coded, rv);
        let llrs: Vec<f64> = tx
            .iter()
            .map(|&b| if b == 0 { 4.0 } else { -4.0 })
            .collect();
        let mut buf = vec![0.0; rm.coded_len()];
        rm.accumulate(&llrs, rv, &mut buf);
        // Every transmitted position carries the right sign; punctured are 0.
        for (i, &v) in buf.iter().enumerate() {
            if v != 0.0 {
                let expect = if coded[i] == 0 { 4.0 } else { -4.0 };
                assert_eq!(v, expect, "position {i}");
            }
        }
        let out = code.decode(&buf, 6);
        assert_eq!(out.bits, bits, "punctured codeword must still decode");
    }

    #[test]
    fn ir_combining_fills_punctures() {
        let k = 100;
        let rm = RateMatcher::new(k, 180);
        let mut covered = vec![false; rm.coded_len()];
        for attempt in 0..4 {
            let rv = RedundancyVersion::ir_cycle(attempt);
            for idx in rm.index_map(rv) {
                covered[idx] = true;
            }
        }
        let cov = covered.iter().filter(|&&c| c).count();
        assert!(
            cov as f64 > 0.95 * rm.coded_len() as f64,
            "4 IR transmissions cover only {cov}/{}",
            rm.coded_len()
        );
    }

    #[test]
    fn ir_cycle_alternates_s() {
        assert!(RedundancyVersion::ir_cycle(0).s);
        assert!(!RedundancyVersion::ir_cycle(1).s);
        assert_eq!(
            RedundancyVersion::ir_cycle(4),
            RedundancyVersion::ir_cycle(0)
        );
    }

    #[test]
    #[should_panic(expected = "below systematic")]
    fn overly_aggressive_target_rejected() {
        let _ = RateMatcher::new(100, 90);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(30))]
        #[test]
        fn map_length_always_exact(k in 40usize..400, frac in 0.55f64..2.0,
                                   r in 0u8..4, s in proptest::bool::ANY) {
            let coded = 3 * k + 12;
            let target = ((coded as f64 * frac) as usize).max(k + 6);
            let rm = RateMatcher::new(k, target);
            let map = rm.index_map(RedundancyVersion { s, r });
            prop_assert_eq!(map.len(), target);
            prop_assert!(map.iter().all(|&i| i < coded));
        }
    }
}
