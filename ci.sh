#!/bin/sh
# ci.sh — the repo's gate: formatting, vet, simlint, build, tests, the race
# detector (the runner fans simulation runs across OS threads, so every
# test also runs under -race), a determinism smoke test proving that a
# parallel experiment fleet is byte-identical to a serial one, a check
# that the committed results/ match a fresh full-scale run, a stress
# loop on the PDES shard barrier, and a sharded-fleet smoke proving that
# splitting one fleet run across shard engines (-shards) is byte-identical
# to serial execution.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

detdir=$(mktemp -d)
trap 'rm -rf "$detdir"' EXIT

echo "== simlint =="
# The determinism contract, machine-checked: no wall-clock reads, global
# math/rand, map iteration, multi-case selects, or goroutines in the
# simulated kernel; no time-domain mixing, mixed atomics, or unthreaded
# engine seeds; no shard-unsafe package state, tainted RNG seeds,
# allocations on //simlint:hotpath functions, inexhaustive enum switches,
# or inline schema tags. See DESIGN.md "Determinism rules" and "Analyzer
# architecture". The tree must be clean with every pass enabled and no
# baseline; the simlint-diag/v1 artifact records that emptiness.
go build -o "$detdir/simlint" ./cmd/simlint
cold_ns=$(date +%s%N)
"$detdir/simlint" -json "$detdir/simlint-diag.json" -cache "$detdir/simlint-cache" ./... \
    2>"$detdir/simlint-cold.log"
cold_ms=$((($(date +%s%N) - cold_ns) / 1000000))
if ! grep -q '"schema": "simlint-diag/v1"' "$detdir/simlint-diag.json"; then
    echo "simlint gate FAILED: artifact missing simlint-diag/v1 schema tag" >&2
    exit 1
fi
if ! grep -q '"count": 0' "$detdir/simlint-diag.json"; then
    echo "simlint gate FAILED: artifact reports findings on a clean exit" >&2
    cat "$detdir/simlint-diag.json" >&2
    exit 1
fi
# An unchanged rerun must be served entirely from the content-hash cache:
# no parsing, no type checking, just a replay of the recorded diagnostics.
warm_ns=$(date +%s%N)
"$detdir/simlint" -cache "$detdir/simlint-cache" ./... 2>"$detdir/simlint-warm.log"
warm_ms=$((($(date +%s%N) - warm_ns) / 1000000))
if ! grep -q 'module-hit=true' "$detdir/simlint-warm.log"; then
    echo "simlint gate FAILED: warm rerun missed the module cache" >&2
    cat "$detdir/simlint-warm.log" >&2
    exit 1
fi
echo "clean; cold ${cold_ms}ms, warm ${warm_ms}ms (module cache hit)."

# -fix idempotency smoke, against a throwaway module so the gate never
# edits the repo: the suggested fix must lint clean, and a second -fix
# pass must leave the file byte-identical.
mkdir -p "$detdir/fixmod"
printf 'module fixmod\n\ngo 1.21\n' >"$detdir/fixmod/go.mod"
cat >"$detdir/fixmod/enum.go" <<'EOF'
package fixmod

type kind int

const (
	kA kind = iota
	kB
)

func describe(k kind) int {
	switch k {
	case kA:
		return 1
	}
	return 0
}
EOF
(cd "$detdir/fixmod" && "$detdir/simlint" -fix ./...) >/dev/null 2>&1
if ! grep -q 'case kB:' "$detdir/fixmod/enum.go"; then
    echo "simlint gate FAILED: -fix did not insert the missing enum case" >&2
    cat "$detdir/fixmod/enum.go" >&2
    exit 1
fi
cp "$detdir/fixmod/enum.go" "$detdir/fixmod/enum.go.once"
(cd "$detdir/fixmod" && "$detdir/simlint" -fix ./...) >/dev/null 2>&1
if ! cmp -s "$detdir/fixmod/enum.go" "$detdir/fixmod/enum.go.once"; then
    echo "simlint gate FAILED: second -fix pass was not a no-op" >&2
    diff "$detdir/fixmod/enum.go.once" "$detdir/fixmod/enum.go" >&2 || true
    exit 1
fi
echo "-fix resolves its own findings and is idempotent."

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== shard barrier stress: race detector x repeated runs =="
# The PDES shard barrier (internal/sim ShardGroup) synchronises one OS
# thread per shard every lookahead window. Repeated runs under the race
# detector shake out ordering bugs a single pass can miss: handoff of
# cross-shard messages, panic propagation, the executed-event counts, and
# coroutine procs parked in one window and resumed by another window's
# worker goroutine.
go test ./internal/sim -race -run 'TestShardBarrierStress|TestShardGroupExecutedExact|TestShardProcsResumeAcrossWindows' \
    -count=8 >/dev/null
echo "barrier race-clean across 8 repetitions."

echo "== determinism smoke: parallel == serial =="
# The same quick experiments, serial (-jobs 1) and parallel (-jobs 8);
# the rendered outputs must be byte-identical.
go build -o "$detdir/hpdc21" ./cmd/hpdc21
"$detdir/hpdc21" -quick -jobs 1 fig2 fig9 tab2 >"$detdir/serial.txt" 2>/dev/null
"$detdir/hpdc21" -quick -jobs 8 fig2 fig9 tab2 >"$detdir/parallel.txt" 2>/dev/null
if ! cmp -s "$detdir/serial.txt" "$detdir/parallel.txt"; then
    echo "determinism smoke FAILED: parallel output differs from serial" >&2
    diff "$detdir/serial.txt" "$detdir/parallel.txt" >&2 || true
    exit 1
fi
echo "parallel output byte-identical to serial."

echo "== committed results: fresh full suite == results/ =="
# Every experiment, regenerated at full scale from the code as it stands
# (hpdc21 exits nonzero if any run fails), must match its committed
# results/<experiment>.txt byte for byte. Committed files that no
# experiment writes (runner_speedup.txt, a historical timing record) are
# not checked.
if ! "$detdir/hpdc21" -out "$detdir/results" all >/dev/null 2>"$detdir/results.log"; then
    echo "committed results FAILED: hpdc21 all exited nonzero" >&2
    grep -v '^runner:' "$detdir/results.log" >&2 || true
    exit 1
fi
for fresh in "$detdir"/results/*.txt; do
    name=$(basename "$fresh")
    if ! cmp -s "results/$name" "$fresh"; then
        echo "committed results FAILED: results/$name differs from a fresh run" >&2
        diff "results/$name" "$fresh" >&2 || true
        exit 1
    fi
done
echo "every committed experiment output matches a fresh run."

echo "== trace smoke: oracle + summary determinism =="
# A quick traced workload runs through the trace-invariant oracle (oversim
# exits nonzero on any lifecycle violation), and two identical-seed runs
# must produce byte-identical analytics summaries.
go build -o "$detdir/oversim" ./cmd/oversim
"$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -trace "$detdir/trace1.txt" -trace-format summary >/dev/null
"$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -trace "$detdir/trace2.txt" -trace-format summary >/dev/null
if ! cmp -s "$detdir/trace1.txt" "$detdir/trace2.txt"; then
    echo "trace smoke FAILED: identical seeds produced different summaries" >&2
    diff "$detdir/trace1.txt" "$detdir/trace2.txt" >&2 || true
    exit 1
fi
echo "trace oracle clean; summary byte-identical across identical seeds."

echo "== policy smoke: policy x feature matrix, oracle + determinism =="
# Every scheduling policy runs the headline workload under every feature
# cell with full tracing — oversim validates each stream against the
# trace-invariant oracle and exits nonzero on any lifecycle violation —
# and each policy's repetition batch must be byte-identical between a
# serial (-jobs 1) and a parallel (-jobs 8) pool.
for pol in cfs edf shinjuku oracle; do
    for feat in "" "-vb" "-bwd" "-vb -bwd"; do
        # shellcheck disable=SC2086 -- $feat is a flag list, split wanted
        "$detdir/oversim" -bench streamcluster -threads 16 -cores 4 $feat \
            -scale 0.05 -policy "$pol" \
            -trace "$detdir/poltrace.txt" -trace-format summary >/dev/null
    done
    "$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
        -policy "$pol" -reps 4 -jobs 1 >"$detdir/pol-$pol-serial.txt"
    "$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
        -policy "$pol" -reps 4 -jobs 8 >"$detdir/pol-$pol-par.txt"
    if ! cmp -s "$detdir/pol-$pol-serial.txt" "$detdir/pol-$pol-par.txt"; then
        echo "policy smoke FAILED: $pol parallel reps differ from serial" >&2
        diff "$detdir/pol-$pol-serial.txt" "$detdir/pol-$pol-par.txt" >&2 || true
        exit 1
    fi
done
echo "all policies oracle-clean on every feature cell; reps byte-identical across pool widths."

echo "== metrics smoke: time-series determinism =="
# Two identical-seed runs with the time-series sampler attached must
# export byte-identical summaries: sampling is driven purely by sim time
# and the export is a pure function of the sample stream.
"$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -metrics "$detdir/metrics1.txt" -metrics-format summary >/dev/null
"$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -metrics "$detdir/metrics2.txt" -metrics-format summary >/dev/null
if ! cmp -s "$detdir/metrics1.txt" "$detdir/metrics2.txt"; then
    echo "metrics smoke FAILED: identical seeds produced different series" >&2
    diff "$detdir/metrics1.txt" "$detdir/metrics2.txt" >&2 || true
    exit 1
fi
echo "metrics summary byte-identical across identical seeds."

echo "== event-queue fuzz oracle: seed corpus =="
# The differential heap oracle (internal/sim/heapfuzz_test.go) replays its
# checked-in seed corpus: the engine's pooled 4-ary-heap/FIFO-ring queue
# must fire byte-identically to a naive sorted-slice model on every
# schedule/cancel/rearm/run interleaving. (Open-ended fuzzing is a local
# tool: go test ./internal/sim -fuzz FuzzEngineDifferential.)
go test ./internal/sim -run FuzzEngineDifferential -count=1 >/dev/null
echo "fuzz seed corpus clean."

echo "== alloc gate: steady state is allocation-free =="
# The AllocsPerRun pins must hold (pooled schedule/cancel, closure-free
# schedule/fire, both rearm shapes, the proc Switch/Park round trip), and
# the end-to-end kernel sleep -> timer-wake -> dispatch cycle must report
# 0 allocs/op.
go test ./internal/sim -run 'TestRearmZeroAlloc|TestFreeListZeroAlloc|TestProcSwitchZeroAlloc' -count=1 >/dev/null
go test ./internal/sched -run '^$' -bench BenchmarkKernelWakeDispatch \
    -benchtime 2000x -benchmem >"$detdir/wakebench.txt"
if ! grep -Eq '[[:space:]]0 allocs/op' "$detdir/wakebench.txt"; then
    echo "alloc gate FAILED: kernel wake-dispatch cycle allocates" >&2
    cat "$detdir/wakebench.txt" >&2
    exit 1
fi
echo "zero-alloc pins hold; wake dispatch at 0 allocs/op."

echo "== fleet smoke: schema + cross-pool determinism =="
# A small fleet capacity sweep runs twice — serial and parallel — with
# identical seeds; the rendered table and the oversub-fleet/v1 JSON report
# must be byte-identical, and the report must carry the schema tag (the
# CLI validates the envelope before writing and exits nonzero otherwise).
"$detdir/oversim" -fleet 1,2 -fleet-qps 20000 -fleet-duration 200 \
    -fleet-policies jsq -fleet-variants vanilla,vb+bwd -seed 11 -jobs 1 \
    -fleet-out "$detdir/fleet1.json" | grep -v '^wrote ' >"$detdir/fleet1.txt"
"$detdir/oversim" -fleet 1,2 -fleet-qps 20000 -fleet-duration 200 \
    -fleet-policies jsq -fleet-variants vanilla,vb+bwd -seed 11 -jobs 8 \
    -fleet-out "$detdir/fleet2.json" | grep -v '^wrote ' >"$detdir/fleet2.txt"
if ! cmp -s "$detdir/fleet1.txt" "$detdir/fleet2.txt"; then
    echo "fleet smoke FAILED: parallel table differs from serial" >&2
    diff "$detdir/fleet1.txt" "$detdir/fleet2.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$detdir/fleet1.json" "$detdir/fleet2.json"; then
    echo "fleet smoke FAILED: parallel JSON report differs from serial" >&2
    diff "$detdir/fleet1.json" "$detdir/fleet2.json" >&2 || true
    exit 1
fi
if ! grep -q '"schema": "oversub-fleet/v1"' "$detdir/fleet1.json"; then
    echo "fleet smoke FAILED: report missing oversub-fleet/v1 schema tag" >&2
    exit 1
fi
echo "fleet report schema-tagged and byte-identical across pool widths."

echo "== sharded-fleet smoke: -shards N byte-identical to serial =="
# The same fleet sweep split across four concurrently executing shard
# engines must render the exact table and JSON report serial execution
# does: sharding is a host-execution knob, never an experiment parameter.
"$detdir/oversim" -fleet 1,3 -fleet-qps 20000 -fleet-duration 200 \
    -fleet-variants vanilla,vb+bwd -seed 11 -shards 4 \
    -fleet-out "$detdir/fleet-sh.json" | grep -v '^wrote ' >"$detdir/fleet-sh.txt"
"$detdir/oversim" -fleet 1,3 -fleet-qps 20000 -fleet-duration 200 \
    -fleet-variants vanilla,vb+bwd -seed 11 \
    -fleet-out "$detdir/fleet-serial.json" | grep -v '^wrote ' >"$detdir/fleet-serial.txt"
if ! cmp -s "$detdir/fleet-sh.txt" "$detdir/fleet-serial.txt"; then
    echo "sharded-fleet smoke FAILED: -shards 4 table differs from serial" >&2
    diff "$detdir/fleet-serial.txt" "$detdir/fleet-sh.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$detdir/fleet-sh.json" "$detdir/fleet-serial.json"; then
    echo "sharded-fleet smoke FAILED: -shards 4 JSON report differs from serial" >&2
    diff "$detdir/fleet-serial.json" "$detdir/fleet-sh.json" >&2 || true
    exit 1
fi
echo "sharded fleet run byte-identical to serial."

echo "== blame smoke: exactness oracle + determinism =="
# Blame attribution runs through the exactness oracle (every thread's and
# request's components must sum to its span — oversim and hpdc21 exit
# nonzero on any violation), and two identical-seed runs must render
# byte-identical blame tables: once on a single traced machine, once
# across a traced fleet with per-machine and merged rows.
"$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -blame "$detdir/blame1.txt" >/dev/null
"$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -blame "$detdir/blame2.txt" >/dev/null
if ! cmp -s "$detdir/blame1.txt" "$detdir/blame2.txt"; then
    echo "blame smoke FAILED: identical seeds produced different blame tables" >&2
    diff "$detdir/blame1.txt" "$detdir/blame2.txt" >&2 || true
    exit 1
fi
"$detdir/hpdc21" -blame "$detdir/fblame1.txt" 2>/dev/null
"$detdir/hpdc21" -blame "$detdir/fblame2.txt" 2>/dev/null
if ! cmp -s "$detdir/fblame1.txt" "$detdir/fblame2.txt"; then
    echo "blame smoke FAILED: identical-seed fleet blame tables differ" >&2
    diff "$detdir/fblame1.txt" "$detdir/fblame2.txt" >&2 || true
    exit 1
fi
echo "blame oracle clean; tables byte-identical across identical seeds."

echo "== diff gate: byte-empty on identical, schema-tagged on change =="
# The diff subcommand follows diff(1): identical artifacts must write
# zero bytes and exit 0 in both formats; a genuinely different pair must
# exit 1, and its JSON report must carry the oversub-diff/v1 schema tag.
"$detdir/oversim" diff -o "$detdir/d-same.txt" "$detdir/blame1.txt" "$detdir/blame2.txt"
if [ -s "$detdir/d-same.txt" ]; then
    echo "diff gate FAILED: identical blame tables produced a non-empty report" >&2
    cat "$detdir/d-same.txt" >&2
    exit 1
fi
"$detdir/hpdc21" diff -format json -o "$detdir/d-same.json" \
    "$detdir/fleet1.json" "$detdir/fleet2.json"
if [ -s "$detdir/d-same.json" ]; then
    echo "diff gate FAILED: identical fleet reports produced a non-empty report" >&2
    cat "$detdir/d-same.json" >&2
    exit 1
fi
# Same workload without -vb: a real behavioural change the report must
# surface.
"$detdir/oversim" -bench streamcluster -threads 16 -cores 4 -scale 0.05 \
    -blame "$detdir/blame3.txt" >/dev/null
rc=0
"$detdir/oversim" diff -format json -o "$detdir/d-changed.json" \
    "$detdir/blame1.txt" "$detdir/blame3.txt" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "diff gate FAILED: differing blame tables exited $rc, want 1" >&2
    exit 1
fi
if ! grep -q '"schema": "oversub-diff/v1"' "$detdir/d-changed.json"; then
    echo "diff gate FAILED: report missing oversub-diff/v1 schema tag" >&2
    cat "$detdir/d-changed.json" >&2
    exit 1
fi
echo "identical artifacts diff byte-empty; changes exit 1 with a schema-tagged report."

echo "== bench smoke: BENCH schema + comparison =="
# A quick bench pass must emit a schema-valid BENCH_<date>.json (the
# harness validates before writing and exits nonzero otherwise), and a
# second pass must report a comparison against the first. Quick-vs-quick
# comparisons gate; the back-to-back threshold is deliberately loose
# since both runs share whatever load the CI host is under.
"$detdir/hpdc21" -quick -bench-out "$detdir/bench" bench >"$detdir/bench1.txt"
ls "$detdir"/bench/BENCH_*.json >/dev/null
"$detdir/hpdc21" -quick -bench-out "$detdir/bench" -bench-threshold 0.9 bench >"$detdir/bench2.txt"
if ! grep -q "comparison against" "$detdir/bench2.txt"; then
    echo "bench smoke FAILED: second run reported no comparison" >&2
    cat "$detdir/bench2.txt" >&2
    exit 1
fi
echo "bench report valid; second run compared against the first."

echo "== bench gate: quick matrix vs committed baseline =="
# The committed quick baseline (results/bench/) pins the event-core fast
# path's throughput. The gate threshold is lenient — flagging only a fall
# below 40% of baseline — because absolute host speed varies across CI
# machines; it exists to catch order-of-magnitude regressions (an
# accidental O(n) queue scan, a reintroduced per-event allocation), not
# single-digit drift. The baseline is copied to a temp dir so the run
# never writes into the repo.
mkdir -p "$detdir/qbase"
cp results/bench/BENCH_*.json "$detdir/qbase/"
"$detdir/hpdc21" -quick -bench-out "$detdir/qbase" -bench-threshold 0.6 bench >"$detdir/bench3.txt"
echo "quick matrix within tolerance of the committed baseline."

echo "CI passed."
