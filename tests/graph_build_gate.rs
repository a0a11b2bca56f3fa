//! Graph-construction gate: tier-1 `cargo test` runs only this umbrella
//! crate, so the two checks that guard the counting-sort builder and the
//! benchmark's topology are mirrored here from `crates/graph/tests/`
//! (`pins.rs`, `builder_differential.rs`), sharing their support module.

#[path = "../crates/graph/tests/support/mod.rs"]
mod support;

#[test]
fn benchmark_topology_is_pinned() {
    support::pin_benchmark_topology();
}

/// One 10 K-edge list with a hub, duplicates, self-loops and tied and
/// differing weights, against the reference under all 32 switch settings.
#[test]
fn builder_matches_reference_on_10k_edges() {
    let mut state = 0x7117u64;
    let mut next = |below: u64| {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        ((state >> 33) % below) as u32
    };
    let edges: Vec<(u32, u32, u32)> = (0..10_000)
        .map(|i| {
            let src = if i % 4 == 0 { 0 } else { next(300) };
            (src, next(300), next(3))
        })
        .collect();
    support::assert_matches_reference(320, &edges);
}
