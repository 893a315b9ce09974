//! Beyond the paper: graceful degradation under fault *churn*.
//!
//! The paper evaluates FTGCR against faults frozen before injection
//! starts. This binary measures the regime the fault model actually
//! motivates — components failing (and auto-repairing) *while packets are
//! in flight*, with routing knowledge converging at the paper's claim-4
//! exchange bound. It writes two CSVs:
//!
//! - `churn_degradation.csv` — one row per fault-arrival rate: delivery
//!   ratio, drop breakdown, re-route volume, detour cost, latency, and
//!   stale-knowledge exposure;
//! - `churn_windows.csv` — the per-window delivery time series of the
//!   highest-churn run, showing dips at fault events and recovery after
//!   reconvergence.

use gcube_analysis::tables::{num, Table};
use gcube_bench::{churn_rates, churn_sweep, churn_table, results_dir};

fn main() {
    let points = churn_sweep();
    let rates = churn_rates();
    let table = churn_table(&points);
    println!("Degradation under churn (GC(9,2), FTGCR, transient faults, paper-delay knowledge)\n");
    print!("{}", table.render());
    let path = results_dir().join("churn_degradation.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());

    // Time series of the most hostile run: the shape of each dip-and-recover.
    let worst = points.last().expect("sweep is non-empty");
    let mut windows = Table::new(["start", "end", "injected", "delivered", "dropped", "ratio"]);
    for w in &worst.report.windows {
        windows.row([
            w.start.to_string(),
            w.end.to_string(),
            w.injected.to_string(),
            w.delivered.to_string(),
            w.dropped.to_string(),
            num(w.delivery_ratio(), 4),
        ]);
    }
    println!(
        "\nDelivery windows at churn rate {} ({} fault events)\n",
        rates.last().unwrap(),
        worst.report.metrics.fault_events
    );
    print!("{}", windows.render());
    let path = results_dir().join("churn_windows.csv");
    windows.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
