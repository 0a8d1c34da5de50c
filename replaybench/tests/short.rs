//! The benchmark's own test: every workload's output and determinism
//! checks pass at reduced size, and each check fails on a deliberately
//! corrupted input or result. Run with
//! `cargo test --release --manifest-path replaybench/Cargo.toml`.

#[test]
fn short_mode_passes_and_catches_every_corruption() {
    assert!(replaybench::short::run());
}
