//! The paper's networking motivation (§1): identify large packet flows
//! ("elephants") in a router's packet stream, with the sketch sized by
//! Lemma 5 so the APPROXTOP guarantee holds, and sharded across worker
//! threads using sketch additivity.
//!
//! ```sh
//! cargo run --release --example network_flows
//! ```

use frequent_items::prelude::*;
use frequent_items::sketch::parallel::sketch_stream_pooled;
use frequent_items::stream::moments;

/// A 5-tuple flow id. Hashing it yields the sketch key.
#[derive(Hash, Clone, Copy)]
struct Flow {
    src: u32,
    dst: u32,
    src_port: u16,
    dst_port: u16,
    proto: u8,
}

fn flow(i: u64) -> Flow {
    // Deterministic synthetic flow table: flow i.
    Flow {
        src: (0x0A00_0000u32).wrapping_add((i as u32).wrapping_mul(2654435761)),
        dst: (0xC0A8_0000u32).wrapping_add((i as u32).wrapping_mul(40503)),
        src_port: (1024 + (i % 60000)) as u16,
        dst_port: if i.is_multiple_of(3) { 443 } else { 80 },
        proto: 6,
    }
}

fn main() {
    // Packet trace: flow sizes follow Zipf(1.1) (heavy-tailed, per the
    // paper's citation [3] of Crovella et al.).
    let m = 50_000; // distinct flows
    let n = 500_000; // packets
    let zipf = Zipf::new(m, 1.1);
    let ranks = zipf.stream(n, 0xF10, ZipfStreamKind::DeterministicRounded);
    // Re-key ranks through the Flow struct (as a router would hash the
    // 5-tuple).
    let packets: Stream = ranks
        .iter()
        .map(|rank| ItemKey::of(&flow(rank.raw())))
        .collect();
    let exact = ExactCounter::from_stream(&packets);

    // Size the sketch by Lemma 5 for APPROXTOP(S, k, eps).
    let (k, eps, delta) = (10usize, 0.25f64, 0.05f64);
    let nk = exact.nk(k);
    let res_f2 = moments::residual_f2(&exact, k) as f64;
    let params = SketchParams::for_approx_top(k, res_f2, nk, eps, n as u64, delta);
    println!(
        "Lemma 5 dimensioning: t = {}, b = {} ({} counters, {} KiB)",
        params.rows,
        params.buckets,
        params.total_counters(),
        params.total_counters() * 8 / 1024
    );

    // Find elephant flows in one pass.
    let mut proc = ApproxTopProcessor::new(params, k, 0xE1E);
    proc.observe_stream(&packets);
    let result = proc.result();

    println!("\ntop-{k} flows (dst-port 443/80 elephants):");
    for (i, &(key, est)) in result.items.iter().enumerate() {
        println!(
            "  #{:<2} flow {:016x}  est {:>7}  exact {:>7}",
            i + 1,
            key.raw(),
            est,
            exact.count(key)
        );
    }

    // Check the APPROXTOP guarantee: every reported flow carries at
    // least (1-eps) * n_k packets.
    let floor = ((1.0 - eps) * nk as f64) as u64;
    for &(key, _) in &result.items {
        assert!(exact.count(key) >= floor, "guarantee violated for {key:?}");
    }
    println!("\nAPPROXTOP guarantee holds: all reported flows ≥ (1-ε)·n_k = {floor} packets ✓");

    // Line-rate trick: shard packets across 4 "RX queues", sketch each
    // independently with the same seed, merge — bit-identical to the
    // sequential sketch (additivity, §3.2).
    let merged = sketch_stream_pooled(&packets, params, 0xE1E, 4);
    let mut sequential = CountSketch::new(params, 0xE1E);
    sequential.absorb(&packets, 1);
    assert_eq!(merged.counters(), sequential.counters());
    println!("4-way sharded sketch == sequential sketch (additivity) ✓");
}
