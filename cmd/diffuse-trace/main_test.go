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
// and must show the interpreter doing the work under -interp.
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

	interp := run(legion.CodegenOff)
	if !regexp.MustCompile(`tasksCompiled=0 `).MatchString(interp) {
		t.Fatalf("-interp run still reports compiled tasks:\n%s", interp)
	}
	if regexp.MustCompile(`tasksInterpreted=0 `).MatchString(interp) {
		t.Fatalf("-interp run reports zero interpreted tasks:\n%s", interp)
	}
}

// TestPrintStatsCalibrationTable: with feedback on, the -stats dump must
// show the cost-calibration section with per-fingerprint rows carrying
// measured next to predicted ns/point and a nonzero calibration hit count;
// with -nofeedback it must report the layer disabled with no classes.
func TestPrintStatsCalibrationTable(t *testing.T) {
	run := func(fb legion.FeedbackMode, iters int) string {
		cfg := core.DefaultConfig(2)
		cfg.Feedback = fb
		rt := core.New(cfg)
		ctx := cunum.NewContext(rt)
		iterate := buildApp(ctx, "blackscholes")
		iterate(iters)
		ctx.Flush()
		var buf bytes.Buffer
		printStats(&buf, rt, 0)
		return buf.String()
	}

	// Enough iterations to pass the calibration warmup so estimates are
	// answered from measurement (hits) rather than the static prior.
	on := run(legion.FeedbackOn, 8)
	if !strings.Contains(on, "cost-calibration stats (feedback=true):") {
		t.Fatalf("no calibration section in -stats output:\n%s", on)
	}
	if !regexp.MustCompile(`classes=[1-9]`).MatchString(on) {
		t.Fatalf("feedback run registered no calibration classes:\n%s", on)
	}
	if !regexp.MustCompile(`samples=[1-9]`).MatchString(on) {
		t.Fatalf("feedback run recorded no timed samples:\n%s", on)
	}
	if !regexp.MustCompile(`calibrationHits=[1-9]`).MatchString(on) {
		t.Fatalf("feedback run answered no decisions from measurement:\n%s", on)
	}
	if !strings.Contains(on, "fingerprint") || !strings.Contains(on, "measured") {
		t.Fatalf("calibration table header missing:\n%s", on)
	}
	// At least one row must have a measured estimate printed as a number.
	rowRe := regexp.MustCompile(`(?m)^  \S+\s+f64\s+\S+\s+[\d.]+\s+[\d.]+\s+[1-9]\d*\s+\d+$`)
	if !rowRe.MatchString(on) {
		t.Fatalf("no calibration row with a measured estimate:\n%s", on)
	}

	off := run(legion.FeedbackOff, 2)
	if !strings.Contains(off, "cost-calibration stats (feedback=false):") {
		t.Fatalf("-nofeedback run not reported as disabled:\n%s", off)
	}
	if !strings.Contains(off, "classes=0 samples=0 calibrationHits=0") {
		t.Fatalf("-nofeedback run still calibrated:\n%s", off)
	}
}

// TestPrintServeStats: the -serve dump must carry one row per tenant with
// the admission split and the shared-plan-cache attribution, matching the
// printStats fixture-and-regex pattern above.
func TestPrintServeStats(t *testing.T) {
	snap := &serve.StatsSnapshot{
		Tenants: []serve.TenantStats{
			{Tenant: "ada", Admitted: 12, Rejected: 2, Completed: 9, OverQuota: 1, Failed: 0, Batched: 3,
				PlanHits: 40, PlanMisses: 0, ProgramHits: 9, ProgramMisses: 0, QuotaUsed: 0, QuotaPeak: 1 << 20, QuotaLimit: 8 << 20},
			{Tenant: "edsger", Admitted: 10, Rejected: 0, Completed: 10, Batched: 0,
				PlanHits: 0, PlanMisses: 20, ProgramHits: 10, ProgramMisses: 10, QuotaUsed: 4096},
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
	if !regexp.MustCompile(`(?m)^  ada\s+12\s+2\s+9\s+1\s+0\s+3\s+40\s+0\s+9\s+0\s+0$`).MatchString(out) {
		t.Fatalf("ada row malformed:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^  edsger\s+10\s+0\s+10\s+0\s+0\s+0\s+0\s+20\s+10\s+10\s+4096$`).MatchString(out) {
		t.Fatalf("edsger row malformed:\n%s", out)
	}
	for _, col := range []string{"admitted", "rejected", "overquota", "planHits", "planMisses", "quotaUsed"} {
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
