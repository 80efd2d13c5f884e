//! The `figures` runner end to end: an unknown name is refused before any
//! figure runs, and a named figure prints exactly its `FIGURES.txt` section.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `figures` with `args` in a per-test scratch directory, so its
/// `out/` metrics stay out of the tree.
fn figures(test: &str, args: &[&str]) -> Output {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("gnoc-figures-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn figures");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn unknown_name_exits_2_and_lists_the_valid_names() {
    let out = figures("unknown", &["table1", "no_such_fig"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no figure may run before the check");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no_such_fig"), "{stderr}");
    assert!(stderr.contains("fig23"), "{stderr}");
}

#[test]
fn named_figure_prints_exactly_its_section() {
    let figures_txt = include_str!("../../../FIGURES.txt");
    let start = figures_txt.find("### table1\n").expect("table1 section");
    let end = figures_txt[start + 1..]
        .find("\n### ")
        .map_or(figures_txt.len(), |i| start + i + 2);
    let out = figures("table1", &["table1"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        &figures_txt[start..end]
    );
}
