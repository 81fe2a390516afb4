//! Cargo builds a package's binaries before running its integration
//! tests, so this test makes a plain `cargo test` at the workspace root
//! build `dlb-shard-worker` next to the other test binaries, where the
//! process backend's worker discovery finds it.

use std::path::Path;

#[test]
fn shard_worker_binary_is_built() {
    let bin = Path::new(env!("CARGO_BIN_EXE_dlb-shard-worker"));
    assert!(bin.is_file(), "{bin:?} is not a file");
}
