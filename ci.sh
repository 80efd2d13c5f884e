#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build+test check.
# Usage: ./ci.sh
set -euo pipefail

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings
# gnoc-chaos forwards bug-hooks to gnoc-noc and gnoc-fabric, so this also
# lints the feature-gated bug injection code the workspace pass skips.
cargo clippy -p gnoc-chaos --features bug-hooks --all-targets -- -D warnings

echo "== one hash owner: splitmix64 and FNV-1a constants in one file =="
# gnoc-telemetry's hash module owns the splitmix64 stream and finaliser and
# the FNV-1a digest; every other crate, test and example imports them.
# perfbench/ is a separate workspace and is not scanned.
for constant in 'bf58_?476d_?1ce4_?e5b9' 'cbf2_?9ce4_?8422_?2325'; do
    owners="$(grep -rliE "$constant" crates tests examples || true)"
    if [ "$(printf '%s\n' "$owners" | grep -c .)" -ne 1 ]; then
        echo "constant /$constant/ must appear in exactly one file, found:"
        printf '%s\n' "$owners"
        exit 1
    fi
done

echo "== one home for the bandwidth arithmetic: MLP budgets read in two files =="
# calib.rs sets the in-flight byte budgets and FabricModel (fabric.rs) turns
# them into Little's-law rates; a second copy of that formula in microbench
# or a figure would drift from the solver's.
readers="$(grep -rlE '\b(flow|sm)_mlp_bytes\b' crates tests examples \
    | grep -vxE 'crates/engine/src/(calib|fabric)\.rs' || true)"
if [ -n "$readers" ]; then
    echo "flow_mlp_bytes/sm_mlp_bytes read outside calib.rs and fabric.rs:"
    printf '%s\n' "$readers"
    exit 1
fi

echo "== one run path per experiment: no _traced/_recorded/_shared variants =="
# Each experiment has one public run function that takes its telemetry
# handle, recorder flag or network organisation as arguments; a family of
# entry points that only thread one of those through must not grow back.
if grep -rnE 'pub fn run[a-z_]*_(traced|recorded|shared)\b' crates/*/src; then
    echo "run-function variants found above: pass the handle or flag instead"
    exit 1
fi

echo "== one grant path in every network: no arbiter candidate array or pick =="
# Mesh, Crossbar and both HierCrossbar stages grant from request masks
# through Arbiter::grant; a candidate list copied out of the queues only to
# be handed to an arbiter must not grow back in any network.
if grep -rnE 'candidates\[|\.pick\(' crates/noc/src; then
    echo "candidate array or pick found above: grant from the request mask instead"
    exit 1
fi

echo "== one buffer representation in the mesh: no per-slot packet deques =="
# Every buffered mesh packet lives in the one packet slab (crates/noc/src/
# slab.rs), linked into per-slot FIFOs; a deque per slot must not grow back
# beside it.
if grep -nF 'VecDeque<Packet>' crates/noc/src/mesh.rs; then
    echo "per-slot packet deque found above: queue packets in the mesh's packet slab"
    exit 1
fi

echo "== one charge path in the fabric: no per-cycle FabricHop charges =="
# FabricSim polls only the transfers with an event due and hands a waiting
# transfer's FabricHop cycles to the recorder in one charge_n when its hop
# closes (FabricSim::charge_through); a per-cycle charge call must not grow
# back.
if grep -nF '.charge(' crates/fabric/src/sim.rs; then
    echo "per-cycle recorder charge found above: charge through charge_through"
    exit 1
fi

echo "== one breaker-window monitor: no per-resource monitors or health configs =="
# gnoc-health's WindowMonitor drives mesh links, L2 slices and fabric links
# through one loop, with thresholds that are documented constants; the
# per-resource monitor types and their config structs must not grow back.
if grep -rnE 'LinkHealthMonitor|SliceHealthMonitor|FabricHealthMonitor|HealthConfig|BreakerConfig' \
    crates tests examples; then
    echo "per-resource monitor or health config found above: use WindowMonitor"
    exit 1
fi

echo "== one soak builder and one replay loop: no restated budgets, dies or event loops =="
# gnoc_core::soak owns the soak budget and die the CLI and the daemon run,
# and gnoc_trace::replay_into is the one loop over a trace's events; a
# restated budget, a die literal or a second event loop must not grow back.
if grep -rnE 'run_until_quiescent\(2_000_000\)|buffer_packets: 4' crates/cli/src crates/serve/src; then
    echo "restated soak budget or die literal found above: use gnoc_core::soak"
    exit 1
fi
if grep -rnF 'next_event()' crates tests examples | grep -v '^crates/trace/src/'; then
    echo "trace event loop found above: drive the trace through gnoc_trace::replay_into"
    exit 1
fi

echo "== one engine owner: the engine is per simulator, read once by the CLI =="
# Each simulator carries its gnoc_noc::Engine; the CLI resolves --engine and
# GNOC_ENGINE once and hands the value down. A process-wide engine switch,
# a library read of GNOC_ENGINE or the old global setter must not grow back.
if grep -rnE 'OnceLock<Atomic|static [A-Z_]*(ENGINE|EVENT)[A-Z_]*\b|"GNOC_ENGINE"' \
    crates tests examples | grep -v '^crates/cli/'; then
    echo "engine global or GNOC_ENGINE read found above: pass an Engine to the simulator"
    exit 1
fi
if grep -rnF 'set_event_skip_enabled' crates tests examples perfbench/src; then
    echo "process-wide engine setter found above: call set_engine on the simulator"
    exit 1
fi

echo "== one campaign driver: no second row loop or assembler =="
# CheckpointedCampaign::run is the one loop over a row-seeded campaign's
# rows and CheckpointedCampaign::finish the one assembler of its result; the
# per-mode loops and assemblers they replaced must not grow back.
if grep -rnE '\b(run_to_completion(_par)?|run_degraded|run_par|finish_par|finish_partial)\b *[(<]' \
    crates tests examples; then
    echo "second campaign loop or assembler found above: use run and finish"
    exit 1
fi

echo "== one lone-flow recurrence: the lane kernel beside the general fixed point =="
# FabricModel::run_lanes is the one copy of the lone-flow recurrence (a
# one-flow solve runs it on one lane, solve_each on up to LANES) and
# solve_general the fixed point over any flow set; a third copy of the
# damped iterations must not grow back beside them.
loops="$(grep -cF 'for iter in 0..FIXED_POINT_ITERS' crates/engine/src/fabric.rs || true)"
if [ "$loops" -gt 2 ]; then
    echo "crates/engine/src/fabric.rs holds $loops fixed-point loops, at most 2:"
    grep -nF 'for iter in 0..FIXED_POINT_ITERS' crates/engine/src/fabric.rs
    echo "run lone flows through FabricModel::run_lanes instead"
    exit 1
fi

echo "== one reduction and one correlation kernel: no bit-serial rem, no per-pair pearson =="
# BigUint::rem divides a limb per step (Algorithm D; the bit-serial loop is
# only the tests' rem_reference oracle), and both correlation matrices run
# the centred-row kernel; a bit-serial reduction or a pearson call per pair
# in correlation_matrix_par must not grow back.
if grep -rnF 'shr1_limbs' crates/sidechannel/src; then
    echo "bit-serial reduction found above: reduce a limb per step in BigUint::rem"
    exit 1
fi
if sed -n '/^pub fn correlation_matrix_par/,/^}/p' crates/analysis/src/pearson.rs \
    | grep -nE '\bpearson *\('; then
    echo "correlation_matrix_par calls pearson above: use the centred-row kernel"
    exit 1
fi

echo "== tier-1: cargo build --release && cargo test -q (GNOC_JOBS=2) =="
cargo build --release
# GNOC_JOBS=2 routes every env-resolved worker pool through the parallel
# path; all results are asserted bit-identical to serial, so this only
# widens coverage, never changes expectations.
GNOC_JOBS=2 cargo test -q

echo "== profile: trace determinism (same soak twice, --jobs 1 vs 2) =="
# The flight recorder timestamps in virtual cycles only, so the same soak
# must produce byte-identical traces across runs and worker counts. Any
# wall-clock or thread-id leak into the trace fails the gate here.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 1 mesh --profile "$tmp/prof_a.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 1 mesh --profile "$tmp/prof_b.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 mesh --profile "$tmp/prof_c.json" > /dev/null
cmp "$tmp/prof_a.json" "$tmp/prof_b.json"
cmp "$tmp/prof_a.json" "$tmp/prof_c.json"
cmp "$tmp/prof_a.json.trace.json" "$tmp/prof_b.json.trace.json"
cmp "$tmp/prof_a.json.trace.json" "$tmp/prof_c.json.trace.json"

echo "== engine parity: cycle-exact artifacts byte-identical to event =="
# The same soaks forced onto the cycle-exact core (--engine cycle) must
# reproduce the event engine's profile, trace, and chaos artifacts byte for
# byte — the engines differ in wall time only.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --engine cycle mesh --profile "$tmp/prof_cyc.json" > /dev/null
cmp "$tmp/prof_a.json" "$tmp/prof_cyc.json"
cmp "$tmp/prof_a.json.trace.json" "$tmp/prof_cyc.json.trace.json"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    chaos run --seeds 0..6 --report "$tmp/chaos_evt.json" > /dev/null
GNOC_ENGINE=cycle cargo run --release -q -p gnoc-cli --bin gnoc -- \
    chaos run --seeds 0..6 --report "$tmp/chaos_cyc.json" > /dev/null
cmp "$tmp/chaos_evt.json" "$tmp/chaos_cyc.json"
# A faulted 4-device fabric profile: the event engine skips quiet dies and
# empty routers, the cycle-exact one steps every die every cycle. The
# Chrome traces carry every hop's fabric_hop charge.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults gen --devices 4 --topology ring --width 5 --height 5 --flaky 3 \
    --stalls 1 --flaky-fabric-links 1 --dead-fabric-links 1 \
    --out "$tmp/fabric-plan.json" > /dev/null
for engine in cycle event; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- \
        --engine "$engine" --faults "$tmp/fabric-plan.json" profile --devices 4 \
        --width 5 --height 5 --transfers 300 \
        --report "$tmp/fabric-prof-$engine.json" \
        --perfetto "$tmp/fabric-prof-$engine.trace.json" > /dev/null
done
cmp "$tmp/fabric-prof-cycle.json" "$tmp/fabric-prof-event.json"
cmp "$tmp/fabric-prof-cycle.trace.json" "$tmp/fabric-prof-event.trace.json"
# The breaker monitors poll on window boundaries the event engine must not
# skip past: health with slice probing, the mesh self-heal warm-up and a
# self-healing 4-device ring print the same breaker logs on both cores.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults gen --seed 3 --dead-frac 0.05 --flaky 2 --flaky-prob 0.3 \
    --slices 32 --disable-slices 2 --out "$tmp/heal-plan.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults gen --seed 5 --devices 4 --topology ring --width 5 --height 5 \
    --dead-fabric-links 1 --flaky-fabric-links 1 --fabric-flaky-prob 0.3 \
    --out "$tmp/heal-fabric-plan.json" > /dev/null
for engine in cycle event; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- --engine "$engine" \
        health --faults "$tmp/heal-plan.json" --device v100 > "$tmp/heal-health-$engine.txt"
    cargo run --release -q -p gnoc-cli --bin gnoc -- --engine "$engine" \
        mesh --self-heal --faults "$tmp/heal-plan.json" > "$tmp/heal-mesh-$engine.txt"
    cargo run --release -q -p gnoc-cli --bin gnoc -- --engine "$engine" \
        fabric --devices 4 --topology ring --self-heal \
        --faults "$tmp/heal-fabric-plan.json" > "$tmp/heal-fabric-$engine.txt"
done
for run in health mesh fabric; do
    cmp "$tmp/heal-$run-cycle.txt" "$tmp/heal-$run-event.txt"
done

echo "== profile: bounded gnoc profile smoke on a chaos-style soak =="
# Same traffic recipe the chaos harness soaks with, bounded transfer count;
# exercises the report/trace/JSONL/SVG writers end to end.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    profile --transfers 500 --report "$tmp/smoke.json" \
    --perfetto "$tmp/smoke.trace.json" --jsonl "$tmp/smoke.jsonl" \
    --svg "$tmp/smoke.svg" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    chaos run --seeds 0..3 --profile "$tmp/chaos_prof.json" > /dev/null

echo "== fault suite smoke: plan round-trip + degraded campaign =="
cargo test -q -p gnoc-faults
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults gen --out "$tmp/plan.json" --seed 1 --dead-frac 0.02
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults check "$tmp/plan.json"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    campaign a100fs --seed 1 --lines 2 --samples 2 \
    --checkpoint "$tmp/campaign.json"

echo "== campaign: a degraded, budgeted run is byte-identical at --jobs 1 and 7 =="
# The driver batches rows per worker, so its stdout and the checkpoint it
# leaves must not depend on the worker count, quarantine and budget
# included.
for jobs in 1 7; do
    rm -f "$tmp/jobs-campaign.json"
    cargo run --release -q -p gnoc-cli --bin gnoc -- \
        --jobs "$jobs" campaign a100fs --seed 1 --lines 2 --samples 2 \
        --quarantine-sms 3,17 --deadline-rows 9 \
        --checkpoint "$tmp/jobs-campaign.json" > "$tmp/jobs-campaign-j$jobs.txt"
    cp "$tmp/jobs-campaign.json" "$tmp/jobs-campaign-j$jobs.json"
done
cmp "$tmp/jobs-campaign-j1.txt" "$tmp/jobs-campaign-j7.txt"
cmp "$tmp/jobs-campaign-j1.json" "$tmp/jobs-campaign-j7.json"

echo "== trace: record -> replay byte-identity across engines and job counts =="
# A faulted mesh soak is recorded once, then replayed under every worker
# count and both engine cores; each replay's canonical stats line must be
# byte-identical to the recording's (the footer digest seals the same
# bytes, so gnoc also self-checks — a divergence exits 1 before the cmp).
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace record mesh --seed 5 --transfers 800 --faults "$tmp/plan.json" \
    --out "$tmp/mesh.trc" --stats "$tmp/mesh-rec.json" > /dev/null
for jobs in 1 2 7; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- \
        --jobs "$jobs" trace replay "$tmp/mesh.trc" --faults "$tmp/plan.json" \
        --stats "$tmp/mesh-rep-j$jobs.json" > /dev/null
    cmp "$tmp/mesh-rec.json" "$tmp/mesh-rep-j$jobs.json"
done
for engine in cycle event; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- \
        --engine "$engine" trace replay "$tmp/mesh.trc" --faults "$tmp/plan.json" \
        --stats "$tmp/mesh-rep-$engine.json" > /dev/null
    cmp "$tmp/mesh-rec.json" "$tmp/mesh-rep-$engine.json"
done

echo "== trace: 4-device ring fabric and campaign record -> replay =="
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace record fabric --devices 4 --topology ring --seed 9 --transfers 400 \
    --out "$tmp/fabric.trc" --stats "$tmp/fabric-rec.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace replay "$tmp/fabric.trc" --stats "$tmp/fabric-rep.json" > /dev/null
cmp "$tmp/fabric-rec.json" "$tmp/fabric-rep.json"
for engine in cycle event; do
    cargo run --release -q -p gnoc-cli --bin gnoc -- \
        --engine "$engine" trace replay "$tmp/fabric.trc" \
        --stats "$tmp/fabric-rep-$engine.json" > /dev/null
    cmp "$tmp/fabric-rec.json" "$tmp/fabric-rep-$engine.json"
done
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace record campaign v100 --seed 2 --lines 2 --samples 2 \
    --out "$tmp/camp.trc" --stats "$tmp/camp-rec.json" > /dev/null
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace replay "$tmp/camp.trc" --stats "$tmp/camp-rep.json" > /dev/null
cmp "$tmp/camp-rec.json" "$tmp/camp-rep.json"

echo "== trace: record -> kill -> validate -> replay salvage, corrupt -> exit 1 =="
# A writer killed mid-stream leaves a truncated artifact. Simulated by
# cutting the recording short of its footer: validate must warn and call it
# salvageable (exit 0), replay must drive the complete prefix (exit 0).
size=$(wc -c < "$tmp/mesh.trc")
head -c "$((size - 500))" "$tmp/mesh.trc" > "$tmp/mesh-cut.trc"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace validate "$tmp/mesh-cut.trc" > "$tmp/cut.out" 2>&1
grep -q "truncated" "$tmp/cut.out"
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace replay "$tmp/mesh-cut.trc" --faults "$tmp/plan.json" > /dev/null
# A flipped byte is corruption, not truncation: exit 1, naming the chunk.
cp "$tmp/mesh.trc" "$tmp/mesh-bad.trc"
printf '\xff' | dd of="$tmp/mesh-bad.trc" bs=1 seek="$((size / 2))" \
    conv=notrunc 2> /dev/null
set +e
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    trace validate "$tmp/mesh-bad.trc" 2> "$tmp/corrupt.err"
corrupt_rc=$?
set -e
[ "$corrupt_rc" -eq 1 ]
grep -q "chunk" "$tmp/corrupt.err"

echo "== untrusted dimensions: oversized meshes exit 2, never abort =="
# Mesh sizes past MAX_NODES (64x64 routers) are refused before anything is
# sized by them; 70000x70000 once aborted on a 392 GB allocation.
set +e
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    fabric --devices 2 --width 70000 --height 70000 > /dev/null 2>&1
huge_fabric_rc=$?
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    chaos run --seeds 0..1 --width 70000 --height 70000 > /dev/null 2>&1
huge_chaos_rc=$?
# The router count is checked, not wrapped: 65536x65537 is not 65536 routers.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    faults gen --seed 1 --width 65536 --height 65537 \
    --out "$tmp/huge-plan.json" > /dev/null 2>&1
huge_faults_rc=$?
set -e
[ "$huge_fabric_rc" -eq 2 ]
[ "$huge_chaos_rc" -eq 2 ]
[ "$huge_faults_rc" -eq 2 ]

echo "== chaos: oracle-catches-bugs suite (bug-hooks) =="
cargo test -q -p gnoc-chaos --features bug-hooks

echo "== chaos: bounded soak with replay differential oracle =="
# A violation prints the oracle name plus the shrunk reproducer path and
# exits nonzero, failing the gate. --replay records each iteration's
# traffic and re-drives it through a fresh simulator: any recorded-vs-
# replayed stats divergence is a determinism bug and fires the oracle.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 chaos run --replay --seeds 0..12 --wall-ms 120000 \
    --state "$tmp/chaos-state.json" --repro-dir "$tmp/repros"

echo "== chaos: hidden-plan detection soak (fixed seeds, wall deadline) =="
# Plans are applied physically but hidden from routing; the detection
# oracle scores the health layer's detected-vs-ground-truth set. Any miss,
# false quarantine, or late detection prints the oracle name plus the
# shrunk reproducer path and exits nonzero, failing the gate.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 chaos run --detect --seeds 0..12 --wall-ms 120000 \
    --state "$tmp/chaos-detect-state.json" --repro-dir "$tmp/repros-detect"

echo "== fabric: bounded multi-GPU chaos soak (fixed seeds, wall deadline) =="
# Cross-device soaks over a 4-device ring compose the fabric with the
# per-die reliable mesh; a delivery/progress/differential/detection
# violation prints the oracle name plus the shrunk reproducer path and
# exits nonzero, failing the gate.
cargo run --release -q -p gnoc-cli --bin gnoc -- \
    --jobs 2 chaos run --seeds 0..12 --devices 4 --topology ring \
    --wall-ms 120000 --state "$tmp/chaos-fabric-state.json" \
    --repro-dir "$tmp/repros-fabric"

echo "== serve: daemon smoke (overload-safe queue, cache, crash recovery) =="
# A daemon under --row-delay-ms so the kill -9 below reliably lands mid-
# campaign; the campaign checkpoint and the fsynced journal must carry the
# job across the crash.
gnoc_bin="target/release/gnoc"
serve_state="$tmp/serve-state"
serve_sock="$tmp/serve.sock"
"$gnoc_bin" serve --state "$serve_state" --socket "$serve_sock" \
    --row-delay-ms 20 > "$tmp/serve1.log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.05; done

# Leg (a): the one-shot CLI's output line for the same request.
"$gnoc_bin" campaign v100 --seed 7 --lines 2 --samples 2 \
    | tail -1 > "$tmp/oneshot.txt"

# Kill -9 mid-campaign; the victim client dies with the daemon.
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" > /dev/null 2>&1 &
victim_pid=$!
sleep 0.7
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
wait "$victim_pid" 2>/dev/null || true
ls "$serve_state"/ckpt/*.json > /dev/null  # the checkpoint survived

# Restart: journal replay resumes the campaign; the same request completes
# (leg d) and then hits the cache (leg c). Run the resumed leg at --jobs 2
# and the cached leg at --jobs 1 to cross worker counts too.
rm -f "$serve_sock"
"$gnoc_bin" --jobs 2 serve --state "$serve_state" --socket "$serve_sock" \
    > "$tmp/serve2.log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.05; done
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" --payload-out "$tmp/resumed.json" \
    --summary > "$tmp/resumed-summary.txt"
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" --payload-out "$tmp/cached.json" \
    | grep -q '"cached":true'
# A chaos job, a trace replay, and a health snapshot exercise the other
# op paths; the daemon's replay verdict must match the local recording.
"$gnoc_bin" submit chaos --seed-count 2 --transfers 16 \
    --socket "$serve_sock" > /dev/null
"$gnoc_bin" trace record mesh --seed 3 --transfers 200 \
    --out "$tmp/serve.trc" > /dev/null
"$gnoc_bin" submit replay "$tmp/serve.trc" --socket "$serve_sock" --summary \
    > "$tmp/replay-summary.txt"
grep -q "matches the recording" "$tmp/replay-summary.txt"
"$gnoc_bin" submit health --socket "$serve_sock" | grep -q '"overload":"closed"'
"$gnoc_bin" submit shutdown --socket "$serve_sock" > /dev/null
wait "$serve_pid"
grep -q "recovered 1 unfinished job(s) from the journal" "$tmp/serve2.log"

# Leg (b): the same request served cold by a fresh single-worker daemon.
"$gnoc_bin" --jobs 1 serve --state "$tmp/serve-cold" --socket "$serve_sock" \
    > /dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.05; done
"$gnoc_bin" submit campaign v100 --seed 7 --lines 2 --samples 2 \
    --socket "$serve_sock" --payload-out "$tmp/cold.json" > /dev/null
"$gnoc_bin" submit shutdown --socket "$serve_sock" > /dev/null
wait "$serve_pid"

# The determinism pin: (b) cold, (c) cached, and (d) crash-resumed payloads
# are byte-identical across --jobs 1 and 2, and the payload summary equals
# the one-shot CLI line (a).
cmp "$tmp/cold.json" "$tmp/resumed.json"
cmp "$tmp/cold.json" "$tmp/cached.json"
cmp "$tmp/oneshot.txt" "$tmp/resumed-summary.txt"

echo "== figures: regenerate every figure and compare with FIGURES.txt =="
# Every figure is a pure function of its seed, so a fresh run must
# reproduce the committed FIGURES.txt byte for byte (and rewrite the tracked
# out/*.svg unchanged).
./figures.sh "$tmp/FIGURES.txt" > /dev/null
cmp "$tmp/FIGURES.txt" FIGURES.txt
# The runner runs every figure in one process, so state one figure leaves
# behind must not change a later one: each figure run alone must print
# exactly its section of FIGURES.txt.
for name in $(sed -n 's/^### //p' FIGURES.txt); do
    target/release/figures "$name" > "$tmp/alone.txt"
    awk -v h="### $name" '$0 == h { on = 1; print; next } /^### / { on = 0 } on' \
        FIGURES.txt > "$tmp/section.txt"
    if ! cmp -s "$tmp/alone.txt" "$tmp/section.txt"; then
        echo "figure '$name' run alone differs from its FIGURES.txt section"
        exit 1
    fi
done

echo "== perfbench: the benchmark's own tests + self-check =="
# The benchmark's arithmetic tests, then every workload run twice at the
# default and the hold-out seed (3 s each): each op's output check must pass
# and each pair must repeat its digest and exact counts.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --selfcheck \
    | tee "$tmp/selfcheck.txt"
# The self-check only compares two runs of one build, so a faster step that
# simulates something else would still pass it. The simulated results are
# pinned here too: each workload's digest over its first ops and its exact
# counts, at both seeds. A change that means to move them updates this list
# and says why.
sed -n 's/^selfcheck \([a-z_]*\) *seed \([0-9]*\) *ok *\(digest .*\)$/\1 \2 \3/p' \
    "$tmp/selfcheck.txt" > "$tmp/selfcheck.got"
diff - "$tmp/selfcheck.got" <<'PINNED'
campaign 1 digest 3ce9b75be6675fbc over 320 ops, exact [("engine.virtual_cycles_per_row", 163455.478125)]
campaign 20261016 digest 4838a0dbe53653d1 over 320 ops, exact [("engine.virtual_cycles_per_row", 163454.309375)]
mesh_load 1 digest d0f3d7c5b0ff5ec1 over 64 ops, exact [("noc.inject_accept_ratio", 0.05039505910655194), ("noc.flits_per_cycle", 4.415557861328125), ("noc.latency_p99_cycles", 2046.0)]
mesh_load 20261016 digest 8cd692d0ae6d8fb7 over 64 ops, exact [("noc.inject_accept_ratio", 0.050008343632504705), ("noc.flits_per_cycle", 4.3884735107421875), ("noc.latency_p99_cycles", 2046.0)]
fault_soak 1 digest d34676f91eb2e2e3 over 8 ops, exact [("fabric.retries_per_transfer", 0.1708984375), ("fabric.delivered_ratio", 1.0), ("trace.bytes_per_event", 10.46875)]
fault_soak 20261016 digest c528061d916f226c over 8 ops, exact [("fabric.retries_per_transfer", 0.1689453125), ("fabric.delivered_ratio", 1.0), ("trace.bytes_per_event", 10.46875)]
serve_mix 1 digest eacfeefdedfa6507 over 64 ops, exact []
serve_mix 20261016 digest 69619d08dd16d68d over 64 ops, exact []
PINNED

echo "ci.sh: all green"
