//! Figure 5 — average latency versus dimension in fault-free `GC(n, M)`,
//! `n ∈ [6, 14]`, `M ∈ {1, 2, 4}`, FFGCR routing.

use gcube_bench::{fault_free_sweep, fig5_table, results_dir};

fn main() {
    let table = fig5_table(&fault_free_sweep());
    println!("Figure 5 — average latency vs dimension (fault-free, FFGCR)\n");
    print!("{}", table.render());
    let path = results_dir().join("fig5_latency.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
