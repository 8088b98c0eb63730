//! Extension study: transient soft errors vs persistent defects (§3).

use bench::{banner, budget_from_args};
use resilience_core::config::SystemConfig;
use resilience_core::experiments::soft_errors;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = budget_from_args(&args);
    let cfg = SystemConfig::paper_64qam();
    println!(
        "{}",
        banner("§3 ext", "soft-error (transient upset) sensitivity", budget)
    );
    let res = soft_errors::run(&cfg, budget, 18.0);
    println!("{}", res.table());
    println!("expected shape: throughput unaffected until ~1e-4 upsets/bit/read,");
    println!("orders of magnitude above the model's prediction - persistent RDF");
    println!("defects, not soft errors, are the binding constraint (paper §3).\n");
    bench::finish(&args, &budget, &["soft-errors"]);
}
