package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/legion"
)

// TestPrintStatsCodegenCountersMove: the -stats dump must show tasks on
// the codegen backend and a populated program cache after a traced run,
// must show the interpreter doing the work under -interp, and has no
// cost-calibration section: the static host model prices every chunk.
func TestPrintStatsCodegenCountersMove(t *testing.T) {
	run := func(cg legion.CodegenMode) string {
		cfg := core.DefaultConfig(2)
		cfg.Codegen = cg
		rt := core.New(cfg)
		ctx := cunum.NewContext(rt)
		iterate := buildApp(ctx, "blackscholes")
		iterate(2)
		ctx.Flush()
		var buf bytes.Buffer
		printStats(&buf, rt, 0)
		return buf.String()
	}

	coded := run(legion.CodegenOn)
	if !strings.Contains(coded, "codegen-backend stats:") {
		t.Fatalf("no codegen section in -stats output:\n%s", coded)
	}
	if regexp.MustCompile(`tasksCompiled=0 `).MatchString(coded) {
		t.Fatalf("codegen run reports zero compiled tasks:\n%s", coded)
	}
	if regexp.MustCompile(`programCacheMisses=0\b`).MatchString(coded) {
		t.Fatalf("codegen run never populated the program cache:\n%s", coded)
	}
	if strings.Contains(coded, "cost-calibration") {
		t.Fatalf("-stats still prints a cost-calibration section:\n%s", coded)
	}

	interp := run(legion.CodegenOff)
	if !regexp.MustCompile(`tasksCompiled=0 `).MatchString(interp) {
		t.Fatalf("-interp run still reports compiled tasks:\n%s", interp)
	}
	if regexp.MustCompile(`tasksInterpreted=0 `).MatchString(interp) {
		t.Fatalf("-interp run reports zero interpreted tasks:\n%s", interp)
	}
}

// TestPrintStatsShardedDrain: with shards on, the -stats dump must show
// the drained groups and their stages, zero (task, shard) units (only a
// rank runs units; in process a group's entries run on the chunked
// executor), and no DAG counters or halo-volume estimate (the pricer
// models halo bytes, and ranks measure them).
func TestPrintStatsShardedDrain(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.Shards = 2
	rt := core.New(cfg)
	ctx := cunum.NewContext(rt)
	iterate := buildApp(ctx, "cg")
	iterate(2)
	ctx.Flush()
	var buf bytes.Buffer
	printStats(&buf, rt, 2)
	out := buf.String()
	if !strings.Contains(out, "sharded-drain stats (shards=2):") {
		t.Fatalf("no sharded-drain section in -stats output:\n%s", out)
	}
	for _, zero := range []string{`groups=0 `, `stages=0 `} {
		if regexp.MustCompile(zero).MatchString(out) {
			t.Fatalf("sharded CG run reports %s:\n%s", zero, out)
		}
	}
	if !regexp.MustCompile(`shardUnits=0\b`).MatchString(out) {
		t.Fatalf("in-process sharded CG run reports (task, shard) units:\n%s", out)
	}
	for _, gone := range []string{"haloElemsMoved", "wavefrontNodes", "foldNodes", "haloNodes"} {
		if strings.Contains(out, gone) {
			t.Fatalf("-stats still prints the removed %s counter:\n%s", gone, out)
		}
	}
}

// TestTaskLineCountsClosures: each traced task's line carries the closures
// per block its element loops run on the codegen tier next to its loop
// count — 8 for CG's fused5, whose stores and sum absorb their arithmetic
// — and 0 under -interp. Its arguments are the 8 stores the kernel
// touches: the two temporaries it forwards are none of them.
func TestTaskLineCountsClosures(t *testing.T) {
	rt := core.New(core.DefaultConfig(4))
	ctx := cunum.NewContext(rt)
	iterate := buildApp(ctx, "cg")
	iterate(3)
	var lines []string
	rt.Legion().Trace = func(task *ir.Task) {
		if task.Name == "fused5" {
			lines = append(lines, taskLine(task, true), taskLine(task, false))
		}
	}
	iterate(1)
	want := regexp.MustCompile(`^fused5 +launch=\[4 +\] args=8 +loops=1 +cg=(\d+) +<- fusion of 5 tasks$`)
	if len(lines) != 2 {
		t.Fatalf("traced %d fused5 lines, want 2", len(lines))
	}
	for i, cg := range []string{"8", "0"} {
		m := want.FindStringSubmatch(lines[i])
		if m == nil || m[1] != cg {
			t.Fatalf("line %q: want loops=1 cg=%s", lines[i], cg)
		}
	}
}
