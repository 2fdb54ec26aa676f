package core

import (
	"mlvlsi/internal/grid"
	"reflect"
	"testing"

	"mlvlsi/internal/track"
)

// TestRealizeWorkerCountInvariance builds one spec (row edges, column
// edges, and bent edges) and realizes it at several worker counts: the
// wire slices must be byte-identical, including IDs and path geometry.
func TestRealizeWorkerCountInvariance(t *testing.T) {
	base := FromFactors("invariance", track.Hypercube(3), track.Hypercube(3), 3, 0)
	// A few bent edges so all three wire kinds go through the parallel loop.
	base.AddDedicatedBent(0, 0, 7, 7)
	base.AddDedicatedBent(2, 1, 5, 6)
	base.AddDedicatedBent(1, 3, 6, 2)

	spec := base
	spec.Workers = 1
	ref, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ref.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
		t.Fatalf("reference layout illegal: %v", v[0])
	}
	for _, workers := range []int{0, 2, 4, 7} {
		spec := base
		spec.Workers = workers
		lay, err := Build(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(lay.Wires, ref.Wires) {
			t.Errorf("workers=%d realized different wires than serial", workers)
		}
		if !reflect.DeepEqual(lay.Nodes, ref.Nodes) {
			t.Errorf("workers=%d placed different nodes than serial", workers)
		}
	}
}
