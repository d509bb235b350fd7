package machine

import (
	"testing"
	"testing/quick"
)

func TestComputeCost(t *testing.T) {
	s := NewSim(DefaultA100(1))
	// Pure bandwidth: 1.4 GB at 1.4 TB/s = 1 ms plus one launch.
	got := s.Cfg.PointCost(1.4e9, 0, 1)
	want := s.Cfg.KernelLaunch + 1e-3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("cost = %g, want %g", got, want)
	}
}

func TestIndexTaskAdvancesClocks(t *testing.T) {
	s := NewSim(DefaultA100(4))
	s.IndexTask(4, func(int) float64 { return 1e-3 })
	if s.Time() < 1e-3 {
		t.Fatalf("time = %g", s.Time())
	}
	if s.TaskCount != 1 {
		t.Fatalf("task count = %d", s.TaskCount)
	}
	if s.BusyTime < 4e-3 {
		t.Fatalf("busy = %g, want >= 4ms", s.BusyTime)
	}
}

func TestAnalysisSerializesSmallTasks(t *testing.T) {
	s := NewSim(DefaultA100(4))
	// 100 tiny tasks: makespan must be dominated by analysis throughput
	// (the minimum effective task granularity phenomenon).
	for i := 0; i < 100; i++ {
		s.IndexTask(4, func(int) float64 { return 1e-7 })
	}
	minAnalysis := 100 * s.Cfg.AnalysisPerTask
	if s.Time() < minAnalysis {
		t.Fatalf("makespan %g under analysis floor %g", s.Time(), minAnalysis)
	}
}

func TestAnalysisScalesWithMachine(t *testing.T) {
	small := NewSim(DefaultA100(1))
	big := NewSim(DefaultA100(128))
	for i := 0; i < 10; i++ {
		small.IndexTask(1, func(int) float64 { return 0 })
		big.IndexTask(128, func(int) float64 { return 0 })
	}
	if big.Time() <= small.Time() {
		t.Fatal("analysis must cost more on bigger machines")
	}
}

func TestCollectiveCosts(t *testing.T) {
	s := NewSim(DefaultA100(16))
	s.Communicate(CollAllReduce, 16, 8)
	ar := s.Time()
	if ar <= 0 {
		t.Fatal("allreduce must take time")
	}
	s = NewSim(DefaultA100(16))
	s.Communicate(CollAllGather, 16, 1e6)
	ag := s.Time()
	s = NewSim(DefaultA100(16))
	s.Communicate(CollHalo, 16, 1e6)
	halo := s.Time()
	if ag <= halo {
		t.Fatalf("allgather (%g) must dominate a halo exchange (%g) at equal per-GPU bytes", ag, halo)
	}
	// Single participant: free.
	s = NewSim(DefaultA100(16))
	s.Communicate(CollAllGather, 1, 1e9)
	if s.Time() != 0 {
		t.Fatal("no communication on one GPU")
	}
}

func TestCrossNodeSlower(t *testing.T) {
	intra := NewSim(DefaultA100(8))
	inter := NewSim(DefaultA100(16))
	intra.Communicate(CollHalo, 8, 1e6)
	inter.Communicate(CollHalo, 16, 1e6)
	if inter.Time() <= intra.Time() {
		t.Fatal("cross-node halo must be slower than NVLink halo")
	}
}

func TestCompileCharges(t *testing.T) {
	s := NewSim(DefaultA100(8))
	s.Compile(100)
	if s.CompileTime != s.Cfg.CompileBase+100*s.Cfg.CompilePerOp {
		t.Fatalf("compile time = %g", s.CompileTime)
	}
	if s.Time() < s.CompileTime {
		t.Fatal("compilation serializes with analysis")
	}
}

// Property: makespan is monotone in per-task cost.
func TestMakespanMonotone(t *testing.T) {
	fn := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) * 1e-6
		b := float64(bRaw) * 1e-6
		if a > b {
			a, b = b, a
		}
		s1 := NewSim(DefaultA100(4))
		s2 := NewSim(DefaultA100(4))
		for i := 0; i < 5; i++ {
			s1.IndexTask(4, func(int) float64 { return a })
			s2.IndexTask(4, func(int) float64 { return b })
		}
		return s1.Time() <= s2.Time()
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMPIConfigCheaper(t *testing.T) {
	mpi := MPIConfig(8)
	legion := DefaultA100(8)
	if mpi.AnalysisPerTask >= legion.AnalysisPerTask {
		t.Fatal("MPI baseline must have lower per-op overhead")
	}
	if mpi.MemBW != legion.MemBW {
		t.Fatal("same silicon: bandwidths must match")
	}
}
