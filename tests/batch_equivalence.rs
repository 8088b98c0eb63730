//! Property tests: batched lockstep decoding is bit-identical, lane for
//! lane, to N independent scalar decodes — hard decisions, the raw
//! `f64` bit patterns of every posterior LLR, and the per-lane
//! iteration counts all must match exactly, for random block lengths,
//! random noise, random injected fault patterns and every batch width
//! from a lone lane upwards.
//!
//! This is the contract that lets the engine turn batching on by
//! default: a batched campaign must be indistinguishable from an
//! unbatched one at the level of individual bits, not just statistics.

use proptest::prelude::*;

use hspa_phy::turbo::{DecodeResult, MaxLogMapDecoder, TurboBatchScratch, TurboCode, TurboScratch};

/// BPSK/AWGN LLRs with a crude injected fault pattern: a slice of the
/// positions (chosen by `fault_seed`) gets its LLR sign flipped and
/// another slice gets saturated — the kinds of corruption a faulty LLR
/// memory produces, applied identically to the scalar and batched runs.
fn corrupted_llrs(
    coded: &[u8],
    snr_db: f64,
    seed: u64,
    fault_seed: u64,
    fault_pct: u8,
) -> Vec<f64> {
    let mut rng = dsp::rng::seeded(seed);
    let esn0 = dsp::stats::db_to_linear(snr_db);
    let sigma2 = 1.0 / (2.0 * esn0);
    let mut llrs: Vec<f64> = coded
        .iter()
        .map(|&b| {
            let x = 1.0 - 2.0 * b as f64;
            let y = x + sigma2.sqrt() * dsp::rng::standard_normal(&mut rng);
            2.0 * y / sigma2
        })
        .collect();
    let mut frng = dsp::rng::seeded(fault_seed);
    for l in llrs.iter_mut() {
        let roll = dsp::rng::standard_normal(&mut frng).abs();
        if roll < fault_pct as f64 / 200.0 {
            *l = -*l;
        } else if roll > 2.5 {
            *l = 31.75_f64.copysign(*l);
        }
    }
    llrs
}

/// One lane's scalar reference decode (the exact path the unbatched
/// engine runs), plus the inputs so the batch can replay it.
struct Lane {
    llrs: Vec<f64>,
    reference: DecodeResult,
}

fn build_lanes(
    code: &TurboCode,
    lanes: usize,
    snr_db: f64,
    seed: u64,
    fault_pct: u8,
    iterations: usize,
) -> Vec<Lane> {
    let mut scratch = TurboScratch::new();
    (0..lanes)
        .map(|lane| {
            let lseed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane as u64;
            let mut rng = dsp::rng::seeded(lseed);
            let bits = dsp::rng::random_bits(&mut rng, code.k());
            let coded = code.encode(&bits);
            let llrs = corrupted_llrs(&coded, snr_db, lseed ^ 0x5eed, lseed ^ 0xfa17, fault_pct);
            let mut reference = DecodeResult::new();
            code.decode_into(&llrs, iterations, &mut scratch, &mut reference);
            Lane { llrs, reference }
        })
        .collect()
}

/// Asserts lane `i` of `batch` equals its scalar reference bit for bit.
fn assert_lane_identical(
    batch: &TurboBatchScratch,
    i: usize,
    lane: &Lane,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batch.bits(i), &lane.reference.bits[..], "bits, lane {}", i);
    prop_assert_eq!(
        batch.iterations_run(i),
        lane.reference.iterations_run,
        "iteration count, lane {}",
        i
    );
    let batch_bits: Vec<u64> = batch.llrs(i).iter().map(|l| l.to_bits()).collect();
    let ref_bits: Vec<u64> = lane.reference.llrs.iter().map(|l| l.to_bits()).collect();
    prop_assert_eq!(batch_bits, ref_bits, "LLR f64 bit patterns, lane {}", i);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched == N independent scalar `decode_into` calls.
    #[test]
    fn batched_exact_equals_scalar_lanes(
        k in 40usize..400,
        lanes in 1usize..12,
        snr_x10 in -40i32..35,
        seed in 0u64..u64::MAX,
        fault_pct in 0u8..25,
        iterations in 1usize..8,
    ) {
        let code = TurboCode::new(k).expect("valid k");
        let lane_data = build_lanes(&code, lanes, snr_x10 as f64 / 10.0, seed, fault_pct, iterations);
        let mut batch = TurboBatchScratch::new();
        batch.begin_batch(code.coded_len());
        for lane in &lane_data {
            batch.push_lane(&lane.llrs);
        }
        code.decode_batch(iterations, &mut batch);
        for (i, lane) in lane_data.iter().enumerate() {
            assert_lane_identical(&batch, i, lane)?;
        }
    }
}

/// Scalar decoder sanity: `decode` and `decode_into` agree under the
/// same fault-injected inputs the proptests use (guards the reference
/// side of the equivalence, not just the batched side).
#[test]
fn reference_scalar_paths_agree_under_faults() {
    let code = TurboCode::new(120).expect("valid k");
    let decoder = MaxLogMapDecoder::new(code.k(), code.interleaver());
    let mut scratch = TurboScratch::new();
    let mut out = DecodeResult::new();
    for seed in 0..6u64 {
        let mut rng = dsp::rng::seeded(seed);
        let bits = dsp::rng::random_bits(&mut rng, code.k());
        let coded = code.encode(&bits);
        let llrs = corrupted_llrs(&coded, -1.0, seed ^ 0x5eed, seed ^ 0xfa17, 15);
        decoder.decode_into(&llrs, 8, &mut scratch, &mut out);
        assert_eq!(out, code.decode(&llrs, 8), "seed {seed}");
    }
}
