//! Figure 2 — diameter of the Gaussian Tree `T_m` versus `m`.

use gcube_bench::{fig2_table, results_dir};

fn main() {
    let max_m: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let table = fig2_table(max_m.min(20));
    println!("Figure 2 — D(T_m) vs m (exact, double BFS)\n");
    print!("{}", table.render());
    let path = results_dir().join("fig2_tree_diameter.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());
}
