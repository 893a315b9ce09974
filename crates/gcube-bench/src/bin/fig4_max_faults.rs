//! Figure 4 — `log2 T(GC(α, n))` versus dimension, `α ∈ {1, 2, 3, 4}`.

use gcube_bench::{fig4_table, results_dir};

fn main() {
    let max_n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    let table = fig4_table(max_n.min(30));
    println!("Figure 4 — log2 T(GC(α,n)) vs n (tolerable faulty links)\n");
    print!("{}", table.render());
    let path = results_dir().join("fig4_max_faults.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
