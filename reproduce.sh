#!/usr/bin/env bash
# Regenerates every table/figure, the extension experiments and the SVG
# artifacts (figures.sh), then runs the full test suite.
#
# Usage: ./reproduce.sh [out-file]
set -euo pipefail

out="${1:-FIGURES.txt}"
./figures.sh "$out"
cargo test --workspace --release
echo "done — figures in $out, SVGs in out/"
