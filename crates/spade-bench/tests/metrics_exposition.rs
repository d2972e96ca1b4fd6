//! Golden-file pin of the Prometheus text exposition.
//!
//! Dashboards and scrape configs are written against metric names, label
//! sets and the exposition grammar — renames or format drift break them
//! silently. This test renders the daemon's full instrument set, driven
//! through a fixed update sequence, and compares against the committed
//! file byte for byte.
//!
//! Regenerate after an intentional change with:
//! `SPADE_UPDATE_GOLDEN=1 cargo test -p spade-bench --test metrics_exposition`

use spade_bench::cache::CacheStats;
use spade_bench::metrics::ServiceMetrics;

/// Every instrument touched at least once, with values chosen to land in
/// first, middle and overflow histogram buckets.
fn exposition() -> String {
    let m = ServiceMetrics::new();
    m.count_request("ping", true);
    m.count_request("run", true);
    m.count_request("run", true);
    m.count_request("run", false);
    m.count_request("query", true);
    m.count_request("trace", true);
    m.count_request("batch", true);
    m.count_request("advise", true);
    m.count_advise("model", 120); // interior bucket
    m.count_advise("heuristic", 40); // first bucket
    m.count_advise("exhaustive", 30_000); // overflow
    m.count_batch_job("ok");
    m.count_batch_job("ok");
    m.count_batch_job("cached");
    m.count_batch_job("rejected");
    m.count_batch_job("error");
    m.rejected_overload.add(2);
    m.bad_frames.inc();
    m.deadline_kills.inc();
    m.connections.add(5);
    m.queue_depth.set(1);
    m.in_flight.set(2);
    m.observe_cache(&CacheStats {
        hits: 3,
        misses: 2,
        stores: 2,
        quarantined: 1,
    });
    m.queue_wait_us.observe(50); // first bucket
    m.queue_wait_us.observe(700); // interior bucket
    m.exec_us.observe(30_000);
    m.exec_us.observe(70_000_000); // overflow
    m.sim_cycles.observe(250_000);
    m.workload_prepares.add(3);
    m.snapshot().to_prometheus()
}

#[test]
fn prometheus_exposition_matches_golden() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/metrics.prom"
    );
    let text = exposition();
    if std::env::var("SPADE_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(golden_path, &text).expect("update golden exposition");
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden exposition file missing");
    assert!(
        text == golden,
        "Prometheus exposition drifted from the committed golden file \
         (regenerate with SPADE_UPDATE_GOLDEN=1 if intentional)\n--- got ---\n{text}"
    );
}
