//! Micro-benchmarks of the core data structures: cache lookups, VRF
//! tag-CAM allocation, tiling, and the gold kernels. These guard the
//! simulator's own performance (host seconds per simulated cycle).
//!
//! Plain timing harness (the workspace is dependency-free): each target
//! is warmed up, then timed over enough iterations to smooth noise, and
//! reported as ns/iter.

use std::time::Instant;

use spade_core::vrf::{AllocOutcome, Vrf};
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::{reference, DenseMatrix, TiledCoo, TilingConfig};
use spade_sim::{Cache, CacheConfig, DataClass};

/// Times `f` and prints ns/iter: a short warm-up, then batches until
/// ~200 ms of measurement have accumulated.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..100 {
        f();
    }
    let mut iters = 0u64;
    let mut batch = 100u64;
    let start = Instant::now();
    while start.elapsed().as_millis() < 200 {
        for _ in 0..batch {
            f();
        }
        iters += batch;
        batch = batch.saturating_mul(2).min(1 << 20);
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {ns:>12.1} ns/iter  ({iters} iters)");
}

fn bench_cache() {
    let mut cache = Cache::new(CacheConfig::new(32 * 1024, 8));
    let mut line = 0u64;
    bench("cache_access_32k_8way", || {
        line = (line
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493))
            % 65_536;
        std::hint::black_box(cache.access(line, line.is_multiple_of(4)));
    });
}

fn bench_vrf() {
    let mut vrf = Vrf::new(64);
    let mut line = 0u64;
    bench("vrf_lookup_or_alloc_64", || {
        line = (line + 17) % 256;
        match vrf.lookup_or_alloc(line, DataClass::CMatrix) {
            AllocOutcome::Allocated(id) => vrf.set_ready(id),
            AllocOutcome::Reused(_) => {}
            AllocOutcome::Stall => {
                vrf.drain_dirty();
            }
        }
    });
}

/// A 64-register file with every register resident and clean.
fn full_clean_vrf() -> Vrf {
    let mut vrf = Vrf::new(64);
    for line in 0..64 {
        let AllocOutcome::Allocated(id) = vrf.lookup_or_alloc(line, DataClass::CMatrix) else {
            unreachable!("an empty file allocates");
        };
        vrf.set_ready(id);
    }
    vrf
}

fn bench_vrf_evict() {
    // Every line is new, so every call misses the CAM and evicts the LRU
    // clean register.
    let mut vrf = full_clean_vrf();
    let mut line = 64u64;
    bench("vrf_lookup_or_alloc_64_evict", || {
        line += 1;
        match vrf.lookup_or_alloc(line, DataClass::CMatrix) {
            AllocOutcome::Allocated(id) => vrf.set_ready(id),
            other => unreachable!("a clean full file evicts, got {other:?}"),
        }
    });
}

fn bench_vrf_writeback() {
    // Half the registers dirty, with write completions spread over time,
    // so each pick filters the dirty set by `last_write_done <= now`.
    let mut vrf = full_clean_vrf();
    for id in (0..64).step_by(2) {
        vrf.record_write(id, id as u64 * 8);
    }
    let mut now = 0u64;
    bench("vrf_writeback_candidate_64", || {
        now = (now + 7) % 640;
        std::hint::black_box(vrf.writeback_candidate(std::hint::black_box(now)));
    });
}

fn bench_tiling() {
    let a = Benchmark::Kro.generate(Scale::Tiny);
    bench("tile_kro_tiny_16x1024", || {
        std::hint::black_box(TiledCoo::new(&a, TilingConfig::new(16, 1024).unwrap()).unwrap());
    });
}

fn bench_kernels() {
    let a = Benchmark::Del.generate(Scale::Tiny);
    let b = DenseMatrix::from_fn(a.num_cols(), 32, |r, cc| ((r + cc) % 7) as f32);
    bench("reference_spmm_del_tiny_k32", || {
        std::hint::black_box(reference::spmm(&a, &b));
    });
    let c_t = DenseMatrix::from_fn(a.num_cols(), 32, |r, cc| ((r * cc) % 5) as f32);
    bench("reference_sddmm_del_tiny_k32", || {
        std::hint::black_box(reference::sddmm(&a, &b, &c_t));
    });
}

fn main() {
    bench_cache();
    bench_vrf();
    bench_vrf_evict();
    bench_vrf_writeback();
    bench_tiling();
    bench_kernels();
}
