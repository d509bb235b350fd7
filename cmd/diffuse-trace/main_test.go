package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/serve"
	"diffuse/internal/serve/serveclient"
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

// TestPrintServeStats: the -serve dump must carry one row per tenant with
// the admission split and the shared-plan-cache attribution, matching the
// printStats fixture-and-regex pattern above.
func TestPrintServeStats(t *testing.T) {
	snap := &serve.StatsSnapshot{
		Tenants: []serve.TenantStats{
			{Tenant: "ada", Admitted: 12, Rejected: 2, Completed: 9, Failed: 1,
				PlanHits: 40, PlanMisses: 0, ProgramHits: 9, ProgramMisses: 0},
			{Tenant: "edsger", Admitted: 10, Rejected: 0, Completed: 10,
				PlanHits: 0, PlanMisses: 20, ProgramHits: 10, ProgramMisses: 10},
		},
		ProgramsCached: 10,
		TenantInflight: 1,
		GlobalInflight: 4,
		QueueDepth:     16,
	}
	var buf bytes.Buffer
	printServeStats(&buf, snap)
	out := buf.String()
	if !strings.Contains(out, "serve stats: 2 tenant(s), 10 programs cached, inflight 1/tenant 4/global, queue depth 16") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^  ada\s+12\s+2\s+9\s+1\s+40\s+0\s+9\s+0$`).MatchString(out) {
		t.Fatalf("ada row malformed:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^  edsger\s+10\s+0\s+10\s+0\s+0\s+20\s+10\s+10$`).MatchString(out) {
		t.Fatalf("edsger row malformed:\n%s", out)
	}
	for _, col := range []string{"admitted", "rejected", "completed", "failed", "planHits", "planMisses", "progHits", "progMisses"} {
		if !strings.Contains(out, col) {
			t.Fatalf("header missing column %q:\n%s", col, out)
		}
	}
}

// TestServeStatsEndToEnd drives printServeStats through a live server the
// way `diffuse-trace -serve <addr>` does.
func TestServeStatsEndToEnd(t *testing.T) {
	s, err := serve.New(serve.Config{Procs: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve loop: %v", err)
		}
	}()
	c, err := serveclient.Dial(s.Transport(), s.Addr(), "tracer")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Submit(serve.SubmitRequest{Workload: "chain", N: 256, Iters: 2}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var buf bytes.Buffer
	printServeStats(&buf, snap)
	out := buf.String()
	if !regexp.MustCompile(`(?m)^  tracer\s+1\s+0\s+1\s+`).MatchString(out) {
		t.Fatalf("tracer row missing its completed submission:\n%s", out)
	}
}
