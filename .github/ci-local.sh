#!/usr/bin/env bash
# Runs every step of .github/workflows/ci.yml that needs no network, in
# ci.yml's order, on the Go toolchain at hand, and prints one pass/fail
# line per step. The matrix's extra legs are covered by the steps that
# differ between them: the race suite and the distributed smoke also run
# at GOMAXPROCS=1. Staticcheck runs only when its module is already in
# the module cache and is named as skipped otherwise: GOPROXY=off, so no
# step downloads anything.
#
#   bash .github/ci-local.sh
#
# Each step's output goes to a log in a temporary directory, whose path is
# printed; a failing step also prints the tail of its log. The exit status
# is non-zero when any step fails.
set -u
cd "$(dirname "$0")/.."
export GOPROXY=off GOTOOLCHAIN=local

logs=$(mktemp -d "${TMPDIR:-/tmp}/ci-local.XXXXXX")
failed=0
n=0

# step NAME CMD...: runs CMD in a subshell with its output in a log.
step() {
	local name=$1 start=$SECONDS log
	shift
	n=$((n + 1))
	log=$(printf '%s/%02d.log' "$logs" "$n")
	if ("$@") >"$log" 2>&1; then
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

gofmt_clean() {
	local fmt
	fmt=$(gofmt -l .)
	[ -z "$fmt" ] || { echo "gofmt needed on:" "$fmt"; return 1; }
}

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

step "gofmt" gofmt_clean
step "vet" go vet ./...
step "cross-build (arm64 vet, 386 build)" sh -c 'GOARCH=arm64 go vet ./... && GOARCH=386 go build ./...'
step "staticcheck" go run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...
step "build" go build ./...
# -count=1: the test cache does not key on GOMAXPROCS, so the second leg
# would replay the first leg's results.
step "test -race" go test -race -count=1 ./...
step "test -race, GOMAXPROCS=1" env GOMAXPROCS=1 go test -race -count=1 ./...
step "test kir, apps with GODEBUG=cpu.fma=off" env GODEBUG=cpu.fma=off go test -count=1 ./internal/kir ./internal/apps
step "import fence (oracle, faultx)" import_fence
step "fuzz FuzzDiffCodegen 30s" fuzz ./internal/kir FuzzDiffCodegen
step "fuzz FuzzLanes 30s" fuzz ./internal/kir FuzzLanes
step "fuzz FuzzDecodeStream 30s" fuzz ./internal/ir FuzzDecodeStream
step "fuzz FuzzControlBody 30s" fuzz ./internal/dist FuzzControlBody
step "fuzz FuzzReadFrame 30s" fuzz ./internal/serve FuzzReadFrame
step "fuzz FuzzWindowKey 30s" fuzz ./internal/ir FuzzWindowKey
step "fuzz FuzzOptimizeMatchesReference 30s" fuzz ./internal/kir FuzzOptimizeMatchesReference
step "fuzz FuzzInternedOps 30s" fuzz ./cunum FuzzInternedOps
step "GOGC=1 bit-identity suites" env GOGC=1 go test -count=1 ./internal/legion ./internal/oracle ./internal/apps ./cunum ./sparse ./internal/dist
step "kir coverage gate (90%)" coverage_gate
step "benchmark -quick" sh -c 'go vet ./benchmark && bash benchmark/run.sh -quick'
step "distributed smoke" go run ./examples/distributed
step "distributed smoke, GOMAXPROCS=1" env GOMAXPROCS=1 go run ./examples/distributed
step "build examples" go build ./examples/...
step "run examples" run_examples
step "check-links.sh" bash .github/check-links.sh
step "tutorial builds" tutorial_builds
step "shard demo example" go run ./examples/shards

echo "logs: $logs"
exit $failed
