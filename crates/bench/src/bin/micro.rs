//! Ingestion microbenchmark: the watermark-guarded `update` vs the exact
//! clamp-and-flag tier.
//!
//! ```text
//! cargo run --release -p cs-bench --bin micro
//! ```
//!
//! Rows:
//!
//! * `scalar_update` — one [`CountSketch::update`] call per key: the
//!   write path `absorb`, the worker pool and the heap processors all
//!   use;
//! * `exact_tier_update` — [`CountSketch::update_exact`] per key: the
//!   always-clamping `i128` path every update used to take, kept as the
//!   overflow fallback. The gap to `scalar_update` is the price of the
//!   clamp + saturation bookkeeping that the headroom watermark removes.
//!
//! Timings come from the in-repo criterion shim: mean of
//! `CRITERION_SHIM_ITERS` (default 10) iterations, no outlier analysis —
//! on a noisy VM, prefer re-running and comparing medians.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use cs_core::{CountSketch, SketchParams};
use cs_stream::{Zipf, ZipfStreamKind};

const N: usize = 100_000;

fn bench_ingest(c: &mut Criterion) {
    let zipf = Zipf::new(10_000, 1.0);
    let stream = zipf.stream(N, 1, ZipfStreamKind::Sampled);
    let keys = stream.as_slice();
    let params = SketchParams::new(5, 1024);

    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function("scalar_update", |b| {
        b.iter(|| {
            let mut s = CountSketch::new(params, 7);
            for &k in keys {
                s.update(black_box(k), 1);
            }
            s
        })
    });

    group.bench_function("exact_tier_update", |b| {
        b.iter(|| {
            let mut s = CountSketch::new(params, 7);
            for &k in keys {
                s.update_exact(black_box(k), 1);
            }
            s
        })
    });

    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
