#!/usr/bin/env bash
# Every check CI runs, written once. Each step below has a short id, and
# each step of .github/workflows/ci.yml is `bash .github/ci-local.sh ID`
# on its job, matrix leg and env; ci.yml adds nothing but those.
#
#   bash .github/ci-local.sh                  # every step, in ci.yml's order
#   bash .github/ci-local.sh race fma-off     # only these (in the same order)
#
# With no ids it runs every step on the Go toolchain at hand, plus the
# single-worker matrix leg's two differing steps at GOMAXPROCS=1 (race-1,
# distributed-1), and prints one pass/fail line per step. Each step's
# output goes to a log in a temporary directory, whose path is printed; a
# failing step also prints its failure lines. With ids, each step's output
# also streams as it runs, so a CI log holds all of it. An unknown id
# exits 2 and lists the ids. The exit status is non-zero when any step
# fails.
#
# Unless the caller names a module proxy, GOPROXY=off (and
# GOTOOLCHAIN=local), so no step downloads anything: staticcheck then
# runs only when its module is already in the module cache and is named
# as skipped otherwise. ci.yml names the proxy, so it runs there.
set -u
# ids: every step's id, read off the `step ID ` lines below, as
# check-links.sh reads them.
ids=$(grep -oE '^[[:space:]]*step [a-z0-9-]+ ' "$0" | awk '{printf "%s ", $2}')
cd "$(dirname "$0")/.."
[ -n "${GOPROXY:-}" ] || export GOPROXY=off GOTOOLCHAIN=local

gofmt_clean() {
	local fmt
	fmt=$(gofmt -l .) || return 1
	[ -z "$fmt" ] || { echo "gofmt needed on:" "$fmt"; return 1; }
}

cross_build() {
	local pkgs
	GOARCH=arm64 go vet ./... && GOARCH=386 go build ./... || return 1
	pkgs=$(go list ./... | grep -vx diffuse/benchmark) || return 1
	GOOS=windows go vet $pkgs
}

race=(go test -race -count=1 ./...)

import_fence() {
	local imports bad pkg
	imports=$(go list -deps -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./...) || return 1
	for pkg in diffuse/internal/oracle diffuse/internal/dist/faultx; do
		bad=$(echo "$imports" |
			awk -v p="$pkg" '$1 != p { for (i = 2; i <= NF; i++) if ($i == p) print $1 }')
		[ -z "$bad" ] || { echo "non-test packages import $pkg:" "$bad"; return 1; }
	done
}

fuzz() { go test "$1" -run '^$' -fuzz "$2" -fuzztime 30s; }

coverage_gate() {
	local pct
	go test -coverprofile="$logs/kir.cover" ./internal/kir >/dev/null || return 1
	pct=$(go tool cover -func="$logs/kir.cover" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
	echo "internal/kir coverage: ${pct}%"
	awk -v p="$pct" 'BEGIN { if (p + 0 < 90.0) { print "coverage fell below the 90% floor"; exit 1 } }'
}

benchmark_quick() { go vet ./benchmark && bash benchmark/run.sh -quick; }

run_examples() {
	local d
	for d in examples/*/; do
		echo "== $d"
		go run "./$d" || return 1
	done
}

tutorial_builds() {
	local pkg fail=0
	for pkg in $(grep -oE 'go (run|build) \./[a-zA-Z0-9/._-]+' docs/TUTORIAL.md | awk '{print $3}' | sort -u); do
		echo "== go build $pkg"
		go build -o /dev/null "$pkg" || fail=1
	done
	return $fail
}

# steps: every check, in ci.yml's order, each as `step ID NAME CMD...`.
steps() {
	step gofmt "gofmt" gofmt_clean
	step vet "vet" go vet ./...
	# internal/kir's lane layer runs AVX2 assembly routines on amd64
	# (gemv_amd64.s, spmv_amd64.s, vmath_amd64.s): under laneAVX2 the
	# unit-stride f64 GEMV's column quads, the f64 SpMV's row chunks,
	# codegen's arithmetic and the absorbed axpy store; on bits of their
	# own exp, log, and erf with its region split. Elsewhere
	# lanes_other.go leaves the lane set empty and every routine keeps its
	# Go code. Vet for arm64 and a 386 build keep that fallback compiling;
	# vet on amd64 above already runs asmdecl over the assembly. Vet for
	# windows keeps internal/dist's non-unix socket-pair stub compiling,
	# on every package but ./benchmark, which calls getrusage and builds
	# only on unix.
	step cross-build "cross-build (arm64 vet, 386 build, windows vet)" cross_build
	step staticcheck "staticcheck" go run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...
	step build "build" go build ./...
	# -count=1: the test cache keys on neither GOMAXPROCS nor the matrix
	# leg, and CI's single-worker leg restores the default 1.24 leg's build
	# cache, so without it that leg (and race-1 here) could replay the
	# other's passes instead of running.
	step race "test -race" "${race[@]}"
	step race-1 "test -race, GOMAXPROCS=1" env GOMAXPROCS=1 "${race[@]}"
	# On amd64 kir's codegen computes exp, log and erf (with erf's region
	# split) four lanes at a time (vmath_amd64.s), each on its own lane
	# bit, bit for bit math's, and the exp lanes follow math.Exp's FMA
	# path. GODEBUG=cpu.fma=off takes math.Exp off that path: lane
	# detection must then turn those three off (their scalar code is
	# lanes_other.go's everywhere else) and keep laneAVX2 on, so the GEMV
	# (gemv_amd64.s), the SpMV (spmv_amd64.s), the arithmetic and the
	# absorbed axpy store (vmath_amd64.s) keep running, and the
	# bit-identity suites must still hold. A few seconds, so every leg
	# runs it.
	step fma-off "test kir, apps with GODEBUG=cpu.fma=off" env GODEBUG=cpu.fma=off go test -count=1 ./internal/kir ./internal/apps
	# internal/oracle is the serial interpreter backend the bit-identity
	# suites compare the product against; internal/dist/faultx is the
	# fault-injection wrapper the rank tests put around a rank's mesh.
	# Neither may reach the product: no non-test package but each itself
	# may import it.
	step import-fence "import fence (oracle, faultx)" import_fence
	# The 30 s fuzz smokes run native fuzzing on top of the committed seed
	# corpora every `go test` run replays. One leg is enough: each harness
	# is single-package and the race legs already replay the corpora
	# race-enabled.
	#
	# The codegen-vs-interpreter differential harness.
	step fuzz-codegen "fuzz FuzzDiffCodegen 30s" fuzz ./internal/kir FuzzDiffCodegen
	# internal/kir's lane layer: every AVX2 routine the host runs (under
	# laneAVX2 the GEMV, the SpMV, the arithmetic and the absorbed axpy
	# store; on their own bits exp, log, and erf with its region split)
	# on blocks from the bit harness's generator (random bit patterns, NaN
	# payloads, ±0, ±Inf, subnormals, each routine's edges, every length
	# class and offset mod 4), against its scalar reference bit for bit.
	step fuzz-lanes "fuzz FuzzLanes 30s" fuzz ./internal/kir FuzzLanes
	# The control-stream decoders that every rank feeds raw socket bytes —
	# ir.DecodeTask and kir.DecodeKernel, the surface a corrupted or
	# truncated transport hits first. Seeds: valid stream, truncation,
	# count bomb, unknown projection.
	step fuzz-decode-stream "fuzz FuzzDecodeStream 30s" fuzz ./internal/ir FuzzDecodeStream
	# The other bytes a rank decodes off the parent's socket (and the
	# parent off rank 0's): the StoreNew, store-data and ReadAt bodies.
	# Each decodes to an error or to a value that re-encodes to exactly
	# its input.
	step fuzz-control-body "fuzz FuzzControlBody 30s" fuzz ./internal/dist FuzzControlBody
	# The bytes internal/serve's server reads off a client socket: the
	# length-prefixed JSON frame, decoded as a hello and as a request. Each
	# input is an error or a value that survives a re-encode. Seeds: valid
	# hello and submit, truncated prefix, over-cap length, bad JSON.
	step fuzz-read-frame "fuzz FuzzReadFrame 30s" fuzz ./internal/serve FuzzReadFrame
	# The structural memo key against its string oracle: generated windows,
	# one mutation per key input, store renaming, and the session's key
	# stream (ir.KeyStream) pushed and head-dropped at random, which after
	# every step must key like a stream rebuilt from scratch (a token left
	# stale by a drop shows here). A key coarser than ir.Canonicalize
	# replays the wrong fused kernel silently; a finer one misses in steady
	# state.
	step fuzz-window-key "fuzz FuzzWindowKey 30s" fuzz ./internal/ir FuzzWindowKey
	# kir.Composer.Compose against the separate passes it replaced
	# (passes_ref_test.go: concatenation, then map-based loop fusion and
	# scalarization): task kernels under random mappings, locals and alias
	# relations must compose to the same hash, locals, buffered locals and
	# expression sharing, and runnable squaring chains to the same bits,
	# also past the forwarding bound, where the composer keeps stores the
	# reference forwards. A merge the reference refuses interleaves a
	# write with aliased reads; a store it keeps and the composer drops
	# loses a value.
	step fuzz-optimize "fuzz FuzzOptimizeMatchesReference 30s" fuzz ./internal/kir FuzzOptimizeMatchesReference
	# Random cunum registry-op programs (mixed dtypes, slices, scalar
	# broadcasts, constants including ±0, NaN payloads and ±Inf), issued
	# fused through the context's interned kernels and view tilings and
	# compared bit for bit with the reference backend run unfused. A kernel
	# key that misses a component replays the wrong body silently.
	step fuzz-interned-ops "fuzz FuzzInternedOps 30s" fuzz ./cunum FuzzInternedOps
	# legion's region free list holds freed regions weakly, so any
	# collection empties it. GOGC=1 makes that happen between almost every
	# free and the next allocation: the recycled and the freshly allocated
	# path then interleave inside one run, and every bit-identity suite has
	# to hold across the mix. Rank units run on the pooled path too and
	# recycle regions there, so the rank suite runs here as well.
	step gogc1 "GOGC=1 bit-identity suites" env GOGC=1 go test -count=1 ./internal/legion ./internal/oracle ./internal/apps ./cunum ./sparse ./internal/dist
	# internal/kir holds the interpreter, the codegen tier, and the passes
	# that feed them — the bit-identity contract lives here, so its
	# coverage must not erode. Floor raised from 75% to 90%, under the 95%
	# the package reads with the in-place load and streaming SpMV tests.
	step coverage "kir coverage gate (90%)" coverage_gate
	# benchmark/ names product switches and stats snapshots from outside
	# (Config.NoMemo/Codegen/Shards, the inert Config.Feedback,
	# Config.Wavefront, WavefrontOff and calibration snapshots of
	# internal/legion/frozen.go, the counter snapshots); a product change
	# that removes or renames one must fail here, not in the benchmark
	# pipeline. -quick is a smoke run (~20 steps per workload), not a
	# measurement.
	step benchmark "benchmark -quick" benchmark_quick
	# 2 rank subprocesses and a bit-identity check. Every matrix leg runs
	# it: rank spawning and the socket transport must work on both Go
	# versions and with the parent pinned to one worker.
	step distributed "distributed smoke" go run ./examples/distributed
	step distributed-1 "distributed smoke, GOMAXPROCS=1" env GOMAXPROCS=1 go run ./examples/distributed
	step build-examples "build examples" go build ./examples/...
	# Each example must run to completion and exit 0. Quickstart,
	# distributed and shards exit non-zero when a value differs from what
	# they expect, and jacobi when it diverges, so this step checks their
	# numbers, not only that they run.
	step run-examples "run examples" run_examples
	step links "check-links.sh" bash .github/check-links.sh
	# Every `go run` / `go build` command the tutorial tells the reader to
	# copy-paste must build. (Running them is covered by run-examples,
	# which executes every example.)
	step tutorial "tutorial builds" tutorial_builds
	step shards "shard demo example" go run ./examples/shards
}

# step runs CMD in a subshell when the id is wanted, with its output in a
# log.
step() {
	local id=$1 name=$2 start=$SECONDS log status
	shift 2
	[ -z "$want" ] || [[ $want == *" $id "* ]] || return 0
	n=$((n + 1))
	log=$(printf '%s/%02d-%s.log' "$logs" "$n" "$id")
	if [ -z "$want" ]; then
		("$@") >"$log" 2>&1
		status=$?
	else
		("$@") 2>&1 | tee "$log"
		status=${PIPESTATUS[0]}
	fi
	if [ "$status" -eq 0 ]; then
		printf 'PASS  %-46s %4ds\n' "$name" $((SECONDS - start))
	elif grep -q 'module lookup disabled by GOPROXY=off' "$log"; then
		printf 'SKIP  %-46s       (module not cached)\n' "$name"
	else
		printf 'FAIL  %-46s %4ds  %s\n' "$name" $((SECONDS - start)) "$log"
		# The failure lines when go test names them, else the log's tail.
		{ grep -E -m 15 '^(--- FAIL|FAIL|panic:)|DATA RACE|_test\.go:[0-9]+:' "$log" || tail -n 15 "$log"; } |
			sed 's/^/      | /'
		failed=1
	fi
}

for id in "$@"; do
	[[ " $ids" == *" $id "* ]] || {
		echo "ci-local.sh: unknown step '$id'; the steps are: $ids" >&2
		exit 2
	}
done

# want: the ids asked for, space-padded; empty runs every step.
want=${*:+ $* }
logs=$(mktemp -d "${TMPDIR:-/tmp}/ci-local.XXXXXX")
failed=0
n=0

steps
echo "logs: $logs"
exit $failed
