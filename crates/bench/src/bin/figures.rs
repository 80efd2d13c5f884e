//! Runs the figure registry in process.
//!
//! Usage: `figures [name...]`
//!
//! With no names it runs every figure, otherwise the named ones in the order
//! given. Each prints `### <name>`, its output and one empty line, so the
//! stdout of a run with no names is `FIGURES.txt`; its metrics go to
//! `out/<name>.metrics.json`. An unknown name exits 2 before any figure
//! runs. A figure that panics, or whose metrics cannot be written, exits 1
//! and no later figure runs.

use gnoc_bench::{Figure, FIGURES};
use gnoc_core::TelemetryHandle;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut selected: Vec<(&str, Figure)> = Vec::new();
    for arg in std::env::args().skip(1) {
        match FIGURES.iter().find(|(name, _)| *name == arg) {
            Some(&figure) => selected.push(figure),
            None => {
                let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
                eprintln!("error: unknown figure '{arg}'");
                eprintln!("valid names: {}", names.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected = FIGURES.to_vec();
    }
    for (name, run) in selected {
        if let Err(message) = run_one(name, run) {
            let _ = std::io::stdout().flush();
            eprintln!("error: figure '{name}' failed: {message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Prints one figure's section and writes its metrics file.
fn run_one(name: &str, run: Figure) -> Result<(), String> {
    println!("### {name}");
    let telemetry = TelemetryHandle::enabled();
    panic::catch_unwind(AssertUnwindSafe(|| run(&telemetry))).map_err(|payload| {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or("non-string panic payload", |s| s)
                .to_string(),
        }
    })?;
    println!();

    let mut registry = telemetry.snapshot_registry().unwrap_or_default();
    registry.counter_add(&format!("span.figure.{name}.calls"), 1);
    let path = Path::new("out").join(format!("{name}.metrics.json"));
    std::fs::create_dir_all("out")
        .and_then(|()| std::fs::write(&path, registry.to_json_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
