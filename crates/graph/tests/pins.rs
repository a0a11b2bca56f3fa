//! Pinned structural hashes of the generators' and the builder's output.
//!
//! The gated benchmark's topology is `gen::rmat(13, 37, 0x7117)`; every
//! `job_s` it reports rests on that graph staying the same, bit for bit.
//! The values below were computed on the commit before the counting-sort
//! builder (PR 13) and must only change with a deliberate, announced
//! change of the generated graphs.

mod support;

use support::{pin_rmat, structural_hash};
use tufast_graph::gen;

#[test]
fn benchmark_topology_is_pinned() {
    support::pin_benchmark_topology();
}

#[test]
fn small_rmat_is_pinned() {
    pin_rmat(
        10,
        8,
        7,
        [
            0x899c_30cc_c266_862a,
            0xdc7d_ef58_7eae_aab1,
            0x0c8e_f97e_24dd_5a79,
        ],
    );
}

#[test]
fn barabasi_albert_is_pinned() {
    assert_eq!(
        structural_hash(&gen::barabasi_albert(500, 3, 11)),
        0x5371d8b66f31fc4f
    );
}

#[test]
fn erdos_renyi_is_pinned() {
    assert_eq!(
        structural_hash(&gen::erdos_renyi(1000, 10_000, 3)),
        0x239b4bf1fb379591
    );
}
