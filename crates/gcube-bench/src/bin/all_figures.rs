//! Regenerate every paper figure in one run, writing `results/*.csv` and a
//! combined summary to stdout. `GCUBE_QUICK=1` shrinks the simulations for
//! smoke runs.

use gcube_analysis::structure;
use gcube_analysis::tables::{num, Table};
use gcube_bench::{
    churn_sweep, churn_table, fault_free_sweep, fault_impact_sweep, fig1_table, fig2_table,
    fig4_table, fig5_table, fig6_table, fig7_table, fig8_table, results_dir, theorem3_budget_sweep,
};

fn main() {
    let dir = results_dir();
    println!("== Gaussian Cube reproduction: all figures ==");
    println!("results dir: {}\n", dir.display());

    // Figure 1: Gaussian graph edge lists.
    let fig1 = fig1_table();
    fig1.write_csv(&dir.join("fig1_gaussian_graphs.csv"))
        .unwrap();
    println!("[fig1] G_2..G_4 edge lists: {} edges total", fig1.len());

    // Figure 2: tree diameters.
    fig2_table(16)
        .write_csv(&dir.join("fig2_tree_diameter.csv"))
        .unwrap();
    println!("[fig2] D(T_m) for m in 1..=16");

    // Figure 4: tolerable faults.
    fig4_table(24)
        .write_csv(&dir.join("fig4_max_faults.csv"))
        .unwrap();
    println!("[fig4] log2 T(GC(α,n)) for α in 1..=4, n ≤ 24");

    // Structure table (supporting §1 density discussion).
    let mut st = Table::new([
        "n", "M", "nodes", "links", "min_deg", "max_deg", "mean_deg", "avail",
    ]);
    for r in structure::density_sweep(&[6, 8, 10, 12], &[1, 2, 4, 8]) {
        st.row([
            r.n.to_string(),
            r.modulus.to_string(),
            r.nodes.to_string(),
            r.links.to_string(),
            r.min_degree.to_string(),
            r.max_degree.to_string(),
            num(r.mean_degree, 2),
            r.availability.to_string(),
        ]);
    }
    st.write_csv(&dir.join("structure_density.csv")).unwrap();
    println!("[structure] density sweep written");

    // Figures 5 & 6: fault-free latency / throughput sweep.
    println!("[fig5/6] running fault-free sweep (n=6..14, M=1,2,4)…");
    let points = fault_free_sweep();
    let fig5 = fig5_table(&points);
    fig5.write_csv(&dir.join("fig5_latency.csv")).unwrap();
    fig6_table(&points)
        .write_csv(&dir.join("fig6_throughput.csv"))
        .unwrap();
    print!("{}", fig5.render());

    // Figures 7 & 8: fault impact sweep.
    println!("[fig7/8] running fault-impact sweep (GC(n,2), n=5..13)…");
    let (healthy, faulty) = fault_impact_sweep();
    let fig7 = fig7_table(&healthy, &faulty);
    let fig8 = fig8_table(&healthy, &faulty);
    fig7.write_csv(&dir.join("fig7_fault_latency.csv")).unwrap();
    fig8.write_csv(&dir.join("fig8_fault_throughput.csv"))
        .unwrap();
    print!("{}", fig7.render());
    print!("{}", fig8.render());

    // Beyond the paper: degradation under dynamic fault churn.
    println!("[churn] running degradation-under-churn sweep (GC(9,2))…");
    let ct = churn_table(&churn_sweep());
    ct.write_csv(&dir.join("churn_degradation.csv")).unwrap();
    print!("{}", ct.render());

    // Beyond the paper: observed tolerated faults vs the Theorem 3 budget.
    // A-category link faults only — spread placement respects the
    // per-subcube allowance (precondition holds all the way to T(GC)),
    // clustered placement overloads one subcube with far fewer faults.
    println!("[thm3] checking observed tolerance against the Theorem 3 budget (GC(8,2))…");
    let check = theorem3_budget_sweep();
    let mut bt = Table::new([
        "placement",
        "faults",
        "T_paper",
        "health",
        "precondition",
        "delivery_ratio",
        "route_failures",
        "ttl_drops",
        "rerouted_packets",
    ]);
    for p in &check.points {
        let b = &p.point.report.budget;
        let m = p.point.report.metrics;
        bt.row([
            p.placement.to_string(),
            p.faults.to_string(),
            check.t_paper.to_string(),
            b.state.as_str().to_string(),
            b.precondition_paper.to_string(),
            num(m.delivery_ratio(), 4),
            (m.dropped_stranded + m.dropped_unrecoverable).to_string(),
            m.ttl_expired.to_string(),
            m.rerouted_packets.to_string(),
        ]);
        // The monitor's classification is exactly the precondition check.
        assert_eq!(
            b.state == gcube_routing::faults::HealthState::BoundExceeded,
            !b.precondition_paper
        );
    }
    bt.write_csv(&dir.join("thm3_budget.csv")).unwrap();
    print!("{}", bt.render());

    println!("\nall figures written to {}", dir.display());
}
