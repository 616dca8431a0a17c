//! Exit codes and diagnostics of the `dgc-serve` binary.

use std::process::Command;

/// A malformed `--jobs` file is a usage error (exit 2) reported as a job
/// file problem — not as a damaged journal header.
#[test]
fn malformed_job_file_names_the_job_file_not_the_journal() {
    let dir = std::env::temp_dir().join(format!("dgc-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.jsonl");
    std::fs::write(
        &jobs,
        "{\"op\":\"submit\",\"job\":\"a\",\"app\":\"xsbench\"}\nnot json\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dgc-serve"))
        .args(["run", "--quiet", "--journal"])
        .arg(dir.join("j.journal"))
        .arg("--jobs")
        .arg(&jobs)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(&format!("job file {}", jobs.display())),
        "{err}"
    );
    assert!(!err.contains("journal header"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
