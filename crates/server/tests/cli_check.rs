//! The `asyncsynth check` command's JSON output, pinned byte for byte.
//!
//! Each `check_pins/<spec>.<backend>.json` file is the exact stdout of
//! `asyncsynth check examples/specs/<spec>.g --backend <backend> --json`.
//! The two engines number states differently, so their witness lists
//! differ (vme-read lists states `[3,10]` explicitly and `[5,11]` on
//! symbolic-set) while their reports agree. micropipeline-3 has 436
//! conflict pairs, more than the 256 the command lists, so it pins
//! `conflicts_truncated`.

use std::path::PathBuf;
use std::process::Command;

const SPECS: [&str; 4] = ["vme-read", "counter-2", "dispatch-2-out", "micropipeline-3"];
const BACKENDS: [&str; 2] = ["explicit", "symbolic-set"];

#[test]
fn check_json_output_is_pinned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for spec in SPECS {
        for backend in BACKENDS {
            let path = root.join(format!("../../examples/specs/{spec}.g"));
            let out = Command::new(env!("CARGO_BIN_EXE_asyncsynth"))
                .arg("check")
                .arg(&path)
                .args(["--backend", backend, "--json"])
                .output()
                .expect("the CLI runs");
            assert!(out.status.success(), "{spec} on {backend}: {out:?}");
            let pin = root.join(format!("tests/check_pins/{spec}.{backend}.json"));
            let expected = std::fs::read(&pin).unwrap_or_else(|e| panic!("{}: {e}", pin.display()));
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&expected),
                "{spec} on {backend}"
            );
        }
    }
}
