//! Figure 7 — the influence of one faulty node on average latency:
//! `GC(n, 2)`, `n ∈ [5, 13]`, FTGCR, no-fault vs one faulty node.

use gcube_bench::{fault_impact_sweep, fig7_table, results_dir};

fn main() {
    let (healthy, faulty) = fault_impact_sweep();
    let table = fig7_table(&healthy, &faulty);
    println!("Figure 7 — fault influence on average latency (GC(n,2), FTGCR)\n");
    print!("{}", table.render());
    let path = results_dir().join("fig7_fault_latency.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
