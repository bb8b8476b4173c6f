//! The `aa-experiments` binary end to end: the command EXPERIMENTS.md
//! reports runs, exits 0 and writes every figure's CSV and JSON.

use std::path::PathBuf;
use std::process::Command;

const FIGURES: [&str; 7] = ["fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c"];

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aa-experiments"))
}

fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aa-experiments-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn all_writes_every_figure() {
    let out = out_dir("all");
    let run = experiments()
        .args(["all", "--trials", "2", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    for fig in FIGURES {
        for ext in ["csv", "json"] {
            let path = out.join(format!("{fig}.{ext}"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(!text.is_empty(), "{} is empty", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unwritable_out_dir_exits_1_and_names_the_path() {
    // A directory under a regular file cannot be created (ENOTDIR).
    let blocker = out_dir("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let out = blocker.join("sub");
    let run = experiments()
        .args(["fig1a", "--trials", "1", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(run.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&run.stdout).contains("fig1a"), "the table still prints");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains(&out.display().to_string()), "{stderr}");
}

#[test]
fn unknown_command_exits_1() {
    let out = out_dir("unknown");
    let run = experiments().args(["fig9z", "--out"]).arg(&out).output().unwrap();
    assert_eq!(run.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&run.stderr).contains("unknown command fig9z"));
    assert!(!out.exists(), "an unknown command wrote {}", out.display());
}
