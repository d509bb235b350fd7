package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSelectFigures: an empty -fig selects every figure and both tables, an
// id selects with or without its "fig" prefix, and an id that names nothing
// is an error listing the valid ones rather than an empty run.
func TestSelectFigures(t *testing.T) {
	all := []string{"fig10a", "fig10b", "fig11a", "fig11b", "fig12a", "fig12b", "fig12c"}
	cases := []struct {
		id          string
		figures     []string
		fig9, fig13 bool
		wantErr     bool
	}{
		{id: "", figures: all, fig9: true, fig13: true},
		{id: "10a", figures: []string{"fig10a"}},
		{id: "fig10a", figures: []string{"fig10a"}},
		{id: "FIG12C", figures: []string{"fig12c"}},
		{id: "9", fig9: true},
		{id: "13", fig13: true},
		{id: "nope", wantErr: true},
		{id: "fig", wantErr: true},
	}
	for _, c := range cases {
		sel, err := selectFigures(c.id, 0.01)
		if c.wantErr {
			if err == nil {
				t.Errorf("-fig %q: no error, selected %+v", c.id, sel)
			} else if !strings.Contains(err.Error(), "9, 10a, 10b, 11a, 11b, 12a, 12b, 12c, 13") {
				t.Errorf("-fig %q: error %q does not list the valid ids", c.id, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-fig %q: %v", c.id, err)
			continue
		}
		var got []string
		for _, f := range sel.figures {
			got = append(got, f.ID)
		}
		if !reflect.DeepEqual(got, c.figures) || sel.fig9 != c.fig9 || sel.fig13 != c.fig13 {
			t.Errorf("-fig %q: figures %v fig9 %v fig13 %v, want %v %v %v",
				c.id, got, sel.fig9, sel.fig13, c.figures, c.fig9, c.fig13)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current code")

// TestFiguresGolden pins the numbers of every figure, table and ablation on
// a reduced sweep (GPUs 1 and 8, scale 0.25), byte for byte. The simulated
// cluster reads no clock, so any change here is a change in what the model
// charges. Regenerate with `go test ./cmd/diffuse-bench -run Golden -update`
// only for a change meant to move the figures.
func TestFiguresGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", []int{1, 8}, 0.25, ""); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"taskonly", "notemp", "nomemo", "window"} {
		fmt.Fprintf(&out, "\n== ablation %s ==\n", a)
		if err := run(&out, "", nil, 0.25, a); err != nil {
			t.Fatal(err)
		}
	}
	const golden = "testdata/figures.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := strings.Split(out.String(), "\n")
		exp := strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, e string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if g != e {
				t.Fatalf("figures differ from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, e)
			}
		}
	}
}
