//! Regenerates every figure of the QASOM evaluation as printed tables.
//!
//! ```text
//! cargo run --release -p qasom-bench --bin repro            # everything
//! cargo run --release -p qasom-bench --bin repro -- vi5 vi12  # a subset
//! ```
//!
//! The keys are those of `qasom_bench::FIGURES`; an unknown one exits
//! non-zero before anything runs, naming the valid keys. A figure that
//! fails prints `error: <title>: <cause>` on stderr; the remaining
//! figures still run and the binary exits non-zero.

use std::process::ExitCode;

use qasom_bench as bench;
use qasom_qos::QosModel;

fn main() -> ExitCode {
    let keys: Vec<String> = std::env::args().skip(1).collect();
    let figures = match bench::select_figures(&keys) {
        Ok(figures) => figures,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = QosModel::standard();
    let mut failed = false;

    println!("QASOM evaluation reproduction — simulated substrate");
    println!("(shapes are comparable to the original figures; absolute values are machine-local)");

    for figure in figures {
        match (figure.run)(&model) {
            Ok(series) => bench::print_figure(figure.title, figure.x_label, &series),
            Err(e) => {
                eprintln!("error: {}: {e}", figure.title);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
