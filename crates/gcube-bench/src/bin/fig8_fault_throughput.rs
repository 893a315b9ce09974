//! Figure 8 — the influence of one faulty node on throughput:
//! `GC(n, 2)`, `n ∈ [5, 13]`, FTGCR, no-fault vs one faulty node.

use gcube_bench::{fault_impact_sweep, fig8_table, results_dir};

fn main() {
    let (healthy, faulty) = fault_impact_sweep();
    let table = fig8_table(&healthy, &faulty);
    println!("Figure 8 — fault influence on throughput (GC(n,2), FTGCR)\n");
    print!("{}", table.render());
    let path = results_dir().join("fig8_fault_throughput.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
