//! Auto-tuning SPADE's flexibility knobs — the `SPADE Opt` methodology.
//!
//! ```text
//! cargo run --release --example autotune
//! ```
//!
//! SPADE's tile ISA exposes three knobs: tile row/column panel sizes,
//! rMatrix cache bypassing, and scheduling barriers (§4.2–4.3). The best
//! setting depends on the input's sparsity structure (§7.C). This example
//! searches a Table 3-shaped space for two structurally opposite graphs
//! and shows how the winning plans differ.

use spade::core::{ExecutionPlan, PlanSearchSpace, RMatrixPolicy, SpadeSystem, SystemConfig};
use spade::matrix::analysis::MatrixStats;
use spade::matrix::generators::{Benchmark, Scale};
use spade::matrix::DenseMatrix;

fn describe(plan: &ExecutionPlan, ncols: usize) -> String {
    format!(
        "RP={:<5} CP={:<7} rMatrix={:<13} barriers={}",
        plan.tiling.row_panel_size,
        if plan.tiling.col_panel_size >= ncols {
            "all".to_string()
        } else {
            plan.tiling.col_panel_size.to_string()
        },
        format!("{:?}", plan.r_policy),
        plan.barriers.is_enabled()
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 32;
    let system_config = SystemConfig::scaled(56);

    for bench in [Benchmark::Kro, Benchmark::Roa] {
        let a = bench.generate(Scale::Tiny);
        let stats = MatrixStats::compute(&a);
        println!(
            "\n=== {} ({}; RU={}) — {} rows, {} nnz ===",
            bench.short_name(),
            bench.domain(),
            stats.classify_ru(),
            a.num_rows(),
            a.nnz()
        );
        let b = DenseMatrix::from_fn(a.num_cols(), k, |r, c| ((r + c) % 9) as f32 * 0.2);

        // A compact search space scaled to this example's matrix sizes.
        let space = PlanSearchSpace {
            row_panels: vec![4, 16, 64],
            col_panels: vec![256, 2_048, usize::MAX],
            r_policies: vec![RMatrixPolicy::Cache, RMatrixPolicy::BypassVictim],
            barrier_col_panel: 2_048,
        };

        let mut results: Vec<(ExecutionPlan, u64)> = Vec::new();
        for plan in space.enumerate(a.num_cols()) {
            let mut sys = SpadeSystem::new(system_config.clone());
            let run = sys.run_spmm(&a, &b, &plan)?;
            results.push((plan, run.report.cycles));
        }
        results.sort_by_key(|&(_, cycles)| cycles);

        let (best, best_cycles) = &results[0];
        let (worst, worst_cycles) = &results[results.len() - 1];
        println!("tried {} plans", results.len());
        println!(
            "  best : {}  ({} cycles)",
            describe(best, a.num_cols()),
            best_cycles
        );
        println!(
            "  worst: {}  ({} cycles, {:.2}x slower)",
            describe(worst, a.num_cols()),
            worst_cycles,
            *worst_cycles as f64 / *best_cycles as f64
        );
        for (plan, cycles) in results.iter().take(3) {
            println!(
                "  top  : {}  ({:.2}x of best)",
                describe(plan, a.num_cols()),
                *cycles as f64 / *best_cycles as f64
            );
        }
    }
    println!("\nThe winning knobs differ per structure — the paper's case for a");
    println!("programmable (rather than fixed-function) SpMM/SDDMM accelerator.");
    Ok(())
}
