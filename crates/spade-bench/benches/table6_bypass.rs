//! Table 6: percentage change in execution time from bypassing the caches
//! for the rMatrix (staging in the BBF victim cache), applied on top of
//! each benchmark's best tile/barrier setting. Positive numbers are
//! slowdowns.
//!
//! Paper reading: beneficial for most benchmarks (up to −32.9 %, ORK SpMM
//! K=128), but harmful when the reused rMatrix working set overflows the
//! victim cache (+169.2 %, KRO SpMM K=32 with its large row panel).
//!
//! Two fan-outs through the parallel experiment engine: the cache-only
//! search grid for every (combo, graph), then the bypass re-run of each
//! winner.

use std::collections::HashMap;
use std::sync::Arc;

use spade_bench::parallel::{self, Job};
use spade_bench::{bench_pes, bench_scale, fast_mode, machines, suite::Workload, table};
use spade_core::{ExecutionPlan, Primitive, RMatrixPolicy};
use spade_matrix::generators::Benchmark;

fn main() {
    let pes = bench_pes();
    let scale = bench_scale();
    let cfg = Arc::new(machines::spade_system(pes));
    let combos: &[(Primitive, usize)] = if fast_mode() {
        &[(Primitive::Spmm, 32)]
    } else if spade_bench::full_search() {
        &[
            (Primitive::Spmm, 32),
            (Primitive::Sddmm, 32),
            (Primitive::Spmm, 128),
            (Primitive::Sddmm, 128),
        ]
    } else {
        &[(Primitive::Spmm, 32), (Primitive::Sddmm, 32)]
    };

    table::banner(
        "Table 6: % change in execution time from rMatrix cache bypass",
        "Applied on top of the best tile/barrier setting. Positive = slowdown.",
    );

    // Stage 1: best setting with caching (search restricted to the Cache
    // policy), across every combo × graph as one job list.
    let mut workloads: HashMap<(Benchmark, usize), Arc<Workload>> = HashMap::new();
    let mut search_jobs = Vec::new();
    let mut search_plans = Vec::new(); // (workload, kernel, plans) per cell
    for &(kernel, k) in combos {
        for &b in &Benchmark::ALL {
            let w = workloads
                .entry((b, k))
                .or_insert_with(|| Arc::new(Workload::prepare(b, scale, k)))
                .clone();
            let mut space = machines::quick_search_space(k);
            space.r_policies = vec![RMatrixPolicy::Cache];
            if w.a.num_rows() < 4_096 {
                space = space.with_row_panel(2);
            }
            let plans = space.enumerate(w.a.num_cols());
            for &plan in &plans {
                search_jobs.push(Job::new(&w, &cfg, kernel, plan));
            }
            search_plans.push((w, kernel, plans));
        }
    }
    let search_reports = parallel::run_and_summarize(&search_jobs);

    // Pick each cell's winner; stage 2 re-runs it with the rMatrix
    // bypassed into the victim cache.
    let mut bypass_jobs = Vec::new();
    let mut cached_ns = Vec::new();
    let mut cursor = 0;
    for (w, kernel, plans) in &search_plans {
        let cell = &search_reports[cursor..cursor + plans.len()];
        cursor += plans.len();
        let mut best: Option<(ExecutionPlan, f64)> = None;
        for (plan, r) in plans.iter().zip(cell) {
            if best.as_ref().is_none_or(|(_, t)| r.time_ns < *t) {
                best = Some((*plan, r.time_ns));
            }
        }
        let (best_plan, ns) = best.expect("search space is non-empty");
        let bypass_plan = ExecutionPlan {
            r_policy: RMatrixPolicy::BypassVictim,
            ..best_plan
        };
        bypass_jobs.push(Job::new(w, &cfg, *kernel, bypass_plan));
        cached_ns.push(ns);
    }
    let bypass_reports = parallel::run_and_summarize(&bypass_jobs);

    let mut rows = Vec::new();
    let mut cell = 0;
    for &(kernel, k) in combos {
        let mut row = vec![format!("{kernel}{k}")];
        for _ in Benchmark::ALL {
            let change = (bypass_reports[cell].time_ns - cached_ns[cell]) / cached_ns[cell] * 100.0;
            cell += 1;
            row.push(format!("{change:+.1}"));
        }
        rows.push(row);
    }
    let mut header = vec!["Algorithm & K"];
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.short_name()).collect();
    header.extend(names.iter());
    table::print_table(&header, &rows);
    println!("\nPaper shape: mostly negative (bypass helps); large positive outliers when");
    println!("the rMatrix working set overflows the victim cache (KRO SpMM K=32).");
}
