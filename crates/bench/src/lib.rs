//! Every table and figure of the paper, plus the extension experiments, as
//! one registry of functions.
//!
//! Each entry of [`FIGURES`] prints the same rows/series the paper reports,
//! next to the paper's published values where the paper states them.
//! `cargo run --release -p gnoc-bench --bin figures [name...]` runs them in
//! process; its stdout with no names is `FIGURES.txt`, and EXPERIMENTS.md
//! collects the outputs.

#![warn(missing_docs)]

// The figure modules name the helpers below as `gnoc_bench::...`.
extern crate self as gnoc_bench;

mod figures;

pub use figures::{Figure, FIGURES};

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
