#!/usr/bin/env bash
# Regenerates every table/figure, the extension experiments and the SVG
# artifacts, assembling the text outputs into one file.
#
# Usage: ./figures.sh [-j N] [out-file]
#
# -j N runs up to N figure binaries concurrently. Every figure is a pure
# function of its seed, so the assembled out-file is byte-identical for any
# N; only the wall time changes. Per-figure stdout/stderr land in
# out/<bin>.txt and out/<bin>.log either way, so a failing run names its
# culprit instead of silently truncating the output file.
set -euo pipefail

jobs=1
while getopts "j:" opt; do
    case "$opt" in
        j) jobs="$OPTARG" ;;
        *) echo "usage: ./figures.sh [-j N] [out-file]" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
out="${1:-FIGURES.txt}"

bins=(table1 fig01 fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig09 fig10 \
      fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 \
      fig22 fig23 \
      ablation_queueing ablation_chain ablation_crossing ablation_scheduler \
      ablation_ports whatif_h100 locality_sched mp_recon covert_channel \
      noc_compare latency_load fault_robustness figures_svg)
cargo build --release -p gnoc-bench --bins
mkdir -p out

# Concurrent `cargo run` invocations serialize on the target-dir lock, so
# both modes invoke the prebuilt binaries directly.
run_one() {
    local b="$1"
    "target/release/$b" --metrics "out/$b.metrics.json" \
        > "out/$b.txt" 2> "out/$b.log"
}

if (( jobs <= 1 )); then
    for b in "${bins[@]}"; do
        echo "### $b"
        if ! run_one "$b"; then
            echo "error: figure binary '$b' failed — see out/$b.log" >&2
            exit 1
        fi
    done
else
    # Bounded fan-out: keep at most $jobs binaries in flight, reaping the
    # oldest first so a failure is reported promptly.
    pids=()
    names=()
    fail=""
    for b in "${bins[@]}"; do
        echo "### $b (queued, -j $jobs)"
        run_one "$b" &
        pids+=($!)
        names+=("$b")
        if (( ${#pids[@]} >= jobs )); then
            wait "${pids[0]}" || fail="${names[0]}"
            pids=("${pids[@]:1}")
            names=("${names[@]:1}")
            if [[ -n "$fail" ]]; then break; fi
        fi
    done
    for i in "${!pids[@]}"; do
        wait "${pids[$i]}" || fail="${fail:-${names[$i]}}"
    done
    if [[ -n "$fail" ]]; then
        echo "error: figure binary '$fail' failed — see out/$fail.log" >&2
        exit 1
    fi
fi

# Assemble the per-figure outputs in the fixed list order so the artifact
# is byte-stable regardless of -j.
: > "$out"
for b in "${bins[@]}"; do
    { echo "### $b"; cat "out/$b.txt"; echo; } >> "$out"
done
