//! Figure 1 — the topologies of the Gaussian Graphs `G_2`, `G_3`, `G_4`.
//!
//! Prints each graph's edge list (grouped by spanning dimension) and
//! verifies the tree property (Theorem 2) on the fly.

use gcube_bench::{fig1_table, results_dir};
use gcube_topology::{GaussianTree, NoFaults, NodeId, Topology};

fn main() {
    for m in 2..=4u32 {
        let t = GaussianTree::new(m).expect("small m");
        println!("G_{m}: {} nodes, {} edges", t.num_nodes(), t.num_links());
        assert!(gcube_topology::search::is_connected(&t, &NoFaults));
        assert_eq!(
            t.num_links(),
            t.num_nodes() - 1,
            "Theorem 2: G_{m} is a tree"
        );
        for dim in 0..m {
            let edges: Vec<String> = t
                .links()
                .into_iter()
                .filter(|l| l.dim == dim)
                .map(|l| {
                    let (a, b) = l.endpoints();
                    format!("({} - {})", a.to_binary(m), b.to_binary(m))
                })
                .collect();
            println!("  dim {dim} ({} edges): {}", edges.len(), edges.join(" "));
        }
        // Show each node's degree for the drawing.
        let degs: Vec<String> = (0..t.num_nodes())
            .map(|v| format!("{}:{}", v, t.degree(NodeId(v))))
            .collect();
        println!("  degrees: {}\n", degs.join(" "));
    }
    let path = results_dir().join("fig1_gaussian_graphs.csv");
    fig1_table().write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
}
