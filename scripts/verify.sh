#!/bin/sh
# Full verification: tier-1 (build + test) plus vet, formatting, lint,
# the race detector and the CLI/example smokes. This is the whole CI gate:
# the workflow runs this script and nothing else. Run from the repo root.
set -e

echo "== go build ./..."
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '^internal/trace/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

# The lint (ghost-lint -escape ./...: determinism taint, maporder,
# hotpathalloc, eventhandle, apisurface, unreachable, hotpathescape) runs
# once, in the tier-1 step below: internal/analysis's TestTreeClean runs
# every analyzer over the tree, and TestRealTreeEscapeBaseline gates the
# hot-path escapes against the committed baseline.
#
# The lint already fails on a reason-less //ghostlint:allow or
# //ghostlint:root; this grep also catches the case where the directive
# grammar itself has drifted. testdata holds the analyzer's deliberately
# malformed fixtures.
echo "== reason-less //ghostlint:allow and //ghostlint:root gate"
bad=$(grep -rnE '//ghostlint:(allow[[:space:]]+[a-z]+|root)[[:space:]]*$' --include='*.go' --exclude-dir=testdata . || true)
if [ -n "$bad" ]; then
	echo "reason-less //ghostlint directives:" >&2
	echo "$bad" >&2
	exit 1
fi

# -shuffle=on runs each package's tests (and benchmarks) in a random
# order and prints the seed, so a test that leans on another's leftovers
# fails here; replay an order with -shuffle=<seed>.
echo "== go test -shuffle=on ./..."
go test -shuffle=on ./...

# One iteration of every micro-benchmark (~5 s), so a broken benchmark
# fails here instead of at the next measurement.
echo "== go test -bench . -benchtime 1x ./... (every micro-benchmark once)"
go test -run '^$' -bench . -benchtime 1x ./...

# Tier-1 runs only the fuzz targets' seed corpora; this runs the -repro
# and -faults parsers' targets and the restore-anywhere property as
# fuzzers for 10 s each (~25 s each with the instrumented build).
echo "== go test -fuzz FuzzParseRepro -fuzztime 10s ./internal/check"
go test -run '^$' -fuzz '^FuzzParseRepro$' -fuzztime 10s ./internal/check
echo "== go test -fuzz FuzzParsePlan -fuzztime 10s ./internal/check"
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 10s ./internal/check
echo "== go test -fuzz FuzzRestoreAnywhere -fuzztime 10s ."
go test -run '^$' -fuzz '^FuzzRestoreAnywhere$' -fuzztime 10s .

echo "== cmd/ghost-perf (its own module: vet + test against the current facade)"
(cd cmd/ghost-perf && go vet ./... && go test ./...)

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== ghost-check smoke (property-based invariant scan)"
go run ./cmd/ghost-check -quick -seeds 100 -parallel 4

# Every one of seeds 1-4000 runs clean (about 5-6 s on 2 vCPUs); a
# violation exits 1 with a shrunk repro line.
echo "== ghost-check -seeds 4000 (full-length scenarios)"
go run ./cmd/ghost-check -seeds 4000 -parallel 2

echo "== examples (build + quick smoke run)"
for ex in examples/*/; do
	name=$(basename "$ex")
	quick=""
	case "$name" in
	search | shinjuku | snap | tuned) quick="-quick" ;;
	esac
	echo "-- $name"
	go run "./$ex" $quick >/dev/null
done

echo "== ghost-tune smoke (successive-halving auto-tuner)"
go run ./cmd/ghost-tune -scenario shinjuku-rocksdb -quick -parallel 4

echo "== fig9 smoke (upgrade/crash robustness)"
go run ./cmd/ghost-bench -exp fig9 -quick

echo "== snapshot smoke (ghost-check checkpoint rewind on a directed regression)"
rewind_out=$(go run ./cmd/ghost-check \
	-repro "seed=3 policy=central-fifo cpus=4 threads=9 horizon=25.000ms" \
	-mutate drop-wakeup -snapshot-every 3ms || true)
echo "$rewind_out" | grep -q "^rewind: from checkpoint" || {
	echo "ghost-check rewind smoke: no rewind report in output:" >&2
	echo "$rewind_out" >&2
	exit 1
}
echo "$rewind_out" | grep "^rewind:"
rm -f ./*.snap

# The 27 ms checkpoint holds a pending agentsdk.repoll timer whose restore
# changes the digest unless the agent set adopts it (a restore that drops
# the adoption prints a different digest here). The image carries the
# engine's counters, so the restored run's engine: line covers the whole
# run and must match the full run's too. The restored run checkpoints
# with the same period, so it must list only checkpoints after 27 ms. It
# also writes its -trace, which must be a trace_event JSON file.
echo "== snapshot smoke (ghost-sim global-agent checkpoint: restore at 27ms, same final digest and engine counts, trace written)"
ckpt=$(mktemp -d)
go build -o "$ckpt/ghost-sim" ./cmd/ghost-sim
full=$(cd "$ckpt" && ./ghost-sim -sched ghost-shinjuku -rocksdb -rate 280000 -dur 100ms -snapshot-every 27ms -metrics | grep '^digest:\|^engine:')
if ! grep -aq 'agentsdk.repoll' "$ckpt/ghost-sim-seed1-t27.000ms.snap"; then
	rm -rf "$ckpt"
	echo "ghost-sim checkpoint smoke: the 27ms checkpoint holds no pending repoll; pick a -rate/-snapshot-every that does" >&2
	exit 1
fi
resumed_out=$(cd "$ckpt" && ./ghost-sim -restore ghost-sim-seed1-t27.000ms.snap -dur 100ms -snapshot-every 27ms -metrics -trace resumed.json)
if ! jq -e '.traceEvents | length > 0' "$ckpt/resumed.json" >/dev/null; then
	rm -rf "$ckpt"
	echo "ghost-sim checkpoint smoke: the run resumed at 27ms wrote no trace_event JSON to its -trace file" >&2
	exit 1
fi
rm -rf "$ckpt"
resumed=$(echo "$resumed_out" | grep '^digest:\|^engine:')
resumed_cks=$(echo "$resumed_out" | sed -n 's/^snapshot: *ghost-sim-seed1-t\([0-9.]*\)ms\.snap.*/\1/p')
if [ -z "$resumed_cks" ] || [ -n "$(echo "$resumed_cks" | awk '$1 <= 27')" ]; then
	echo "ghost-sim checkpoint smoke: the run resumed at 27ms lists checkpoints at [$resumed_cks] ms, want only later ones:" >&2
	echo "$resumed_out" >&2
	exit 1
fi
if [ "$(echo "$full" | wc -l)" -ne 2 ] || [ "$full" != "$resumed" ]; then
	echo "ghost-sim checkpoint smoke: full run '$full', restored run '$resumed'" >&2
	exit 1
fi
echo "$full"

echo "== profile smoke (-cpuprofile/-memprofile produce non-empty pprof)"
sh scripts/profile.sh -out /tmp/ghost-profile-verify ghost-bench -exp fig6a -quick >/dev/null

echo "verify: all checks passed"
