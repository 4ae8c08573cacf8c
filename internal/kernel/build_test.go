package kernel

import (
	"testing"

	"eccspec/internal/sram"
	"eccspec/internal/variation"
)

// TestBuildIndexesLinesAboveFloor holds Build's index to the array's
// profiles: exactly the lines whose onset is at or above the floor, the
// weakest line among them, in descending onset order, each with its own
// profile and clean-column entry. Re-aging the array makes the table
// stale; a table built at the new age is not.
func TestBuildIndexesLinesAboveFloor(t *testing.T) {
	m := variation.New(8, variation.LowVoltage())
	arr := sram.NewArray(m, 0, variation.KindL2D, 64, 8)
	ws, ww, weakest := arr.WeakestLine()
	floor := weakest.Vmax() - 0.06
	table := Build(arr, variation.KindL2D, floor)

	above := 0
	for key := 0; key < arr.Lines(); key++ {
		if arr.LineProfile(key/arr.Ways, key%arr.Ways).Vmax() >= floor {
			above++
		}
	}
	if table.Lines() == 0 || table.Lines() != above {
		t.Fatalf("table indexes %d lines, %d of %d sit at or above the floor", table.Lines(), above, arr.Lines())
	}
	clean := arr.CleanColumn()
	found := false
	for i := range table.vmax {
		set, way := int(table.set[i]), int(table.way[i])
		p := arr.LineProfile(set, way)
		if table.prof[i] != p || table.vmax[i] != p.Vmax() || table.vsafe[i] != clean[set*arr.Ways+way] {
			t.Fatalf("line %d (%d,%d) does not carry its array's profile and clean entry", i, set, way)
		}
		if table.vmax[i] < floor {
			t.Fatalf("line (%d,%d) with onset %v below the floor %v is indexed", set, way, table.vmax[i], floor)
		}
		if i > 0 && table.vmax[i] > table.vmax[i-1] {
			t.Fatalf("line %d onset %v above line %d's %v", i, table.vmax[i], i-1, table.vmax[i-1])
		}
		found = found || (set == ws && way == ww)
	}
	if !found {
		t.Fatalf("weakest line (%d,%d, onset %v) is not indexed", ws, ww, weakest.Vmax())
	}

	if table.Stale() {
		t.Fatal("fresh table reports stale")
	}
	arr.SetAge(20000)
	if !table.Stale() {
		t.Fatal("table built before SetAge does not report stale")
	}
	if Build(arr, variation.KindL2D, floor).Stale() {
		t.Fatal("table built at the new age reports stale")
	}
}
