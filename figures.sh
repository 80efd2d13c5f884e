#!/usr/bin/env bash
# Regenerates every table/figure, the extension experiments and the SVG
# artifacts: builds the `figures` runner and writes its stdout to out-file.
#
# Usage: ./figures.sh [out-file]
#
# Per-figure metrics land in out/<name>.metrics.json. The output goes to a
# temporary file first, so a failed run never leaves a partial out-file.
set -euo pipefail

out="${1:-FIGURES.txt}"
cargo build --release -p gnoc-bench --bin figures
tmp="$out.partial"
trap 'rm -f "$tmp"' EXIT
target/release/figures > "$tmp"
mv "$tmp" "$out"
