//! Regenerates Fig. 2 — decoding-failure probability over HARQ
//! transmissions at three SNR regimes (defect-free system).

use bench::{banner, budget_from_args};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::fig2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = budget_from_args(&args);
    let cfg = SystemConfig::paper_64qam();
    println!("{}", banner("Fig. 2", "BLER vs HARQ transmission", budget));
    let res = fig2::run(&cfg, budget);
    println!("{}", res.table());
    println!("expected shape: ~95% first-try decoding at 29 dB; partial at 11 dB;");
    println!("virtually all packets retransmitted at 3 dB with BLER falling per combine.\n");
    bench::finish(&args, &budget, &["fig2"]);
}
