package oracle

import (
	"testing"

	"diffuse/internal/ir"
)

func TestDependenceMapPointwise(t *testing.T) {
	var f ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := f.NewStore("s", []int{16})
	d := f.NewStore("d", []int{16})
	part := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	task := func(name string, args ...ir.Arg) *ir.Task { return &ir.Task{Name: name, Launch: launch, Args: args} }
	t1 := task("w", ir.Arg{Store: s, Part: part, Priv: ir.Write})
	t2 := task("r", ir.Arg{Store: s, Part: part, Priv: ir.Read}, ir.Arg{Store: d, Part: part, Priv: ir.Write})
	if !PointwiseFusible(t1, t2) {
		t.Fatal("same-partition RAW is point-wise")
	}
	// Offset read: stencil-like dependence, not point-wise.
	shift := ir.NewTiling(launch, []int{15}, []int{4}, []int{1}, nil, nil)
	t3 := task("r2", ir.Arg{Store: s, Part: shift, Priv: ir.Read}, ir.Arg{Store: d, Part: part, Priv: ir.Write})
	if PointwiseFusible(t1, t3) {
		t.Fatal("offset read must not be point-wise")
	}
}
