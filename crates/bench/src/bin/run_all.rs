//! Run every figure/table binary in sequence with shared flags — the
//! one-command regeneration of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p tufast-bench --bin run_all -- --scale -3
//! ```

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "fig04_htm_abort",
        "fig05_degree_dist",
        "table2_datasets",
        "fig06_contention_heatmap",
        "fig07_scheduler_contention",
        "fig11_single_node",
        "fig12_distributed",
        "fig13_throughput_rm",
        "fig14_throughput_rw",
        "fig15_mode_breakdown",
        "fig16_param_sensitivity",
        "fig17_adaptive_period",
        "fig18_drivers",
        "fig20_reads",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let mut failed = Vec::new();
    for bin in bins {
        println!("\n############ {bin} ############");
        let status = Command::new(exe_dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            eprintln!("!! {bin} exited with {status}");
            failed.push(bin);
        }
    }
    if failed.is_empty() {
        println!("\nAll experiments completed.");
    } else {
        eprintln!("\nFailed experiments: {failed:?}");
        std::process::exit(1);
    }
}
