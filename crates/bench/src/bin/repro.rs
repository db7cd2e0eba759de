//! Regenerates every figure of the QASOM evaluation as printed tables.
//!
//! ```text
//! cargo run --release -p qasom-bench --bin repro            # everything
//! cargo run --release -p qasom-bench --bin repro -- vi5 vi12  # a subset
//! ```
//!
//! A figure that fails prints `error: <title>: <cause>` on stderr; the
//! remaining figures still run and the binary exits non-zero.

use std::process::ExitCode;

use qasom_bench as bench;
use qasom_qos::QosModel;

/// One regenerated figure: the command-line key that selects it (`vi5`
/// selects both `vi5a` and `vi5b`), the printed title and x-axis label,
/// and the function producing it.
type FigureRow = (
    &'static str,
    &'static str,
    &'static str,
    fn(&QosModel) -> bench::FigureResult,
);

const FIGURES: &[FigureRow] = &[
    (
        "vi5",
        "Fig. VI.5a — selection time vs services/activity (5 activities, 4 constraints)",
        "services",
        bench::fig_vi5a,
    ),
    (
        "vi5",
        "Fig. VI.5b — selection time vs #QoS constraints (100 services/activity)",
        "constraints",
        bench::fig_vi5b,
    ),
    (
        "vi6",
        "Fig. VI.6a — optimality vs services/activity (vs exhaustive optimum)",
        "services",
        bench::fig_vi6a,
    ),
    (
        "vi6",
        "Fig. VI.6b — optimality vs #QoS constraints",
        "constraints",
        bench::fig_vi6b,
    ),
    (
        "vi7",
        "Fig. VI.7 — selection time per aggregation approach (choice+loop tasks)",
        "services",
        bench::fig_vi7,
    ),
    (
        "vi8",
        "Fig. VI.8 — optimality per aggregation approach",
        "services",
        bench::fig_vi8,
    ),
    (
        "vi9",
        "Fig. VI.9 — generated QoS follows N(m, σ)",
        "property",
        bench::fig_vi9,
    ),
    (
        "vi10",
        "Fig. VI.10 — selection time with constraints at m vs m+σ",
        "services",
        bench::fig_vi10,
    ),
    (
        "vi11",
        "Fig. VI.11 — optimality with constraints at m vs m+σ",
        "services",
        bench::fig_vi11,
    ),
    (
        "vi12",
        "Fig. VI.12 — distributed QASSA: simulated phase times vs provider nodes",
        "providers",
        bench::fig_vi12,
    ),
    (
        "vi13",
        "Fig. VI.13 — abstract BPEL → behavioural graph transformation time",
        "activities",
        |_| bench::fig_vi13(),
    ),
    (
        "v_adapt",
        "Ch. V — behavioural adaptation (order-embedding resume mapping) time",
        "activities",
        |_| bench::fig_v_adapt(),
    ),
    (
        "loss",
        "Extra — fault tolerance under message loss: retries vs no retries (8 providers, 10 seeds)",
        "loss prob",
        bench::fig_loss,
    ),
    (
        "activities",
        "Extra — selection time vs number of activities (100 services each)",
        "activities",
        bench::fig_activities,
    ),
    (
        "discovery",
        "Discovery — indexed vs linear full scan (32 × 4 taxonomy, category-level request)",
        "services",
        bench::fig_discovery,
    ),
    (
        "scale",
        "Scalability — QASSA at large pools (serial vs parallel local phase)",
        "services",
        bench::scalability,
    ),
    (
        "ablate",
        "Ablation — K-means band count k",
        "k",
        bench::ablate_kmeans_k,
    ),
    (
        "ablate",
        "Ablation — global phase repair budget (feasible-rate, tight constraints)",
        "services",
        bench::ablate_global_strategy,
    ),
    (
        "ablate",
        "Ablation — proactive vs reactive monitoring (lead on a drifting service)",
        "drift slope",
        bench::ablate_monitoring,
    ),
    (
        "ablate",
        "Ablation — semantic vs syntactic discovery recall",
        "providers",
        bench::ablate_semantics,
    ),
];

fn main() -> ExitCode {
    let keys: Vec<String> = std::env::args().skip(1).collect();
    let want = |key: &str| keys.is_empty() || keys.iter().any(|a| a == key || a == "all");
    let model = QosModel::standard();
    let mut failed = false;

    println!("QASOM evaluation reproduction — simulated substrate");
    println!("(shapes are comparable to the original figures; absolute values are machine-local)");

    for &(key, title, x_name, figure) in FIGURES {
        if want(key) {
            match figure(&model) {
                Ok(series) => bench::print_figure(title, x_name, &series),
                Err(e) => {
                    eprintln!("error: {title}: {e}");
                    failed = true;
                }
            }
        }
    }
    // The selector comparison prints its own table and has no series.
    if want("compare") {
        println!("\n== Selector comparison (5 activities × 100 services, 10 seeds) ==");
        if let Err(e) = bench::compare_selectors(&model) {
            eprintln!("error: selector comparison: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
