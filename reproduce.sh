#!/usr/bin/env bash
# Regenerates every table/figure, the extension experiments and the SVG
# artifacts (figures.sh), then runs the full test suite.
#
# Usage: ./reproduce.sh [-j N] [out-file]
#
# -j N runs up to N figure binaries concurrently; the assembled out-file is
# byte-identical for any N.
set -euo pipefail

jobs=1
while getopts "j:" opt; do
    case "$opt" in
        j) jobs="$OPTARG" ;;
        *) echo "usage: ./reproduce.sh [-j N] [out-file]" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
out="${1:-FIGURES.txt}"

./figures.sh -j "$jobs" "$out"
cargo test --workspace --release
echo "done — figures in $out, SVGs in out/"
