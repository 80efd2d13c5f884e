//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the paper has a `cargo run -p gnoc-bench --bin
//! figNN` binary that prints the same rows/series the paper reports, next to
//! the paper's published values where the paper states them. EXPERIMENTS.md
//! collects the outputs.

#![warn(missing_docs)]

use gnoc_core::TelemetryHandle;
use std::path::PathBuf;
use std::time::Instant;

/// Telemetry for one figure binary, driven by an optional `--metrics <path>`
/// argument (`reproduce.sh` passes `--metrics out/<bin>.metrics.json` to
/// every run). Without the flag the handle is disabled and the whole struct
/// is inert. Dropping the guard at the end of `main` records the binary's
/// wall-clock span and writes the registry, so a figure binary only needs
/// one line — `let _metrics = FigureMetrics::from_args(...);` — plus, where
/// its experiment takes a telemetry handle, passing it `handle()`.
#[derive(Debug)]
pub struct FigureMetrics {
    handle: TelemetryHandle,
    bin: String,
    path: Option<PathBuf>,
    started: Instant,
}

impl FigureMetrics {
    /// Parses `--metrics <path>` out of the process arguments.
    pub fn from_args(bin: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let path = args
            .windows(2)
            .find(|w| w[0] == "--metrics")
            .map(|w| PathBuf::from(&w[1]));
        let handle = if path.is_some() {
            TelemetryHandle::enabled()
        } else {
            TelemetryHandle::disabled()
        };
        FigureMetrics {
            handle,
            bin: bin.to_string(),
            path,
            started: Instant::now(),
        }
    }

    /// The shared handle to thread into traced runs / `set_telemetry`.
    pub fn handle(&self) -> &TelemetryHandle {
        &self.handle
    }
}

impl Drop for FigureMetrics {
    fn drop(&mut self) {
        let Some(path) = &self.path else { return };
        let micros = (self.started.elapsed().as_secs_f64() * 1e6)
            .round()
            .max(0.0) as u64;
        let mut registry = self.handle.snapshot_registry().unwrap_or_default();
        registry.wall_record(&format!("span.figure.{}.us", self.bin), micros);
        registry.counter_add(&format!("span.figure.{}.calls", self.bin), 1);
        // The default export quarantines wall-clock spans so the metrics
        // files are bit-identical run-to-run; GNOC_WALL_METRICS=1 opts in.
        let json = if std::env::var_os("GNOC_WALL_METRICS").is_some() {
            registry.to_json_pretty_with_wall()
        } else {
            registry.to_json_pretty()
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("warning: cannot write metrics file {}: {e}", path.display());
        }
    }
}

/// Prints the standard experiment header.
pub fn header(id: &str, claim: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// Prints one paper-vs-measured comparison row.
pub fn compare(metric: &str, paper: &str, measured: String) {
    println!("{metric:<52} paper: {paper:<18} measured: {measured}");
}

/// Formats a float series compactly.
pub fn series(values: &[f64], precision: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.precision$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// An ASCII sparkline of a series scaled to its own maximum.
pub fn sparkline(values: &[f64]) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| RAMP[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_formats_with_precision() {
        assert_eq!(series(&[1.0, 2.5], 1), "1.0 2.5");
    }

    #[test]
    fn sparkline_spans_ramp() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn sparkline_handles_flat_series() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
    }
}
