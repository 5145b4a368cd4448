//! The `experiments` command line: a run that cannot write its artifact
//! fails, and a flag that no longer exists is rejected.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("run experiments")
}

#[test]
fn unwritable_artifact_fails_the_run() {
    // `--out` names a regular file, so the artifact directory cannot be
    // created under it.
    let file = std::env::temp_dir().join(format!("submod-cli-test-{}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let out =
        experiments(&["theory", "--quick", "--scale", "0.05", "--out", file.to_str().unwrap()]);
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("cannot write {}", file.join("theory_theorem46.csv").display())),
        "stderr: {stderr}"
    );
}

#[test]
fn deleted_flag_is_rejected() {
    let out = experiments(&["theory", "--graph-store", "mem"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown option `--graph-store`"), "stderr: {stderr}");
}
