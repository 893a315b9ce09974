//! Figure 6 — `log2` throughput versus dimension in fault-free `GC(n, M)`,
//! same sweep as Figure 5.

use gcube_bench::{fault_free_sweep, fig6_table, results_dir};

fn main() {
    let table = fig6_table(&fault_free_sweep());
    println!("Figure 6 — log2 throughput vs dimension (fault-free, FFGCR)\n");
    print!("{}", table.render());
    let path = results_dir().join("fig6_throughput.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
