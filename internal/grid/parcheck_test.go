package grid

import (
	"testing"
	"testing/quick"
)

// legalWireSet builds a deterministic pseudo-random set of wires on pairwise
// distinct layers (so it is always legal).
func legalWireSet(seed int64, n int) []Wire {
	var wires []Wire
	for i := 0; i < n; i++ {
		w := randomPlanarWire(seed+int64(i)*977, i+1)
		w.ID = i
		wires = append(wires, w)
	}
	return wires
}

func TestCheckParallelMatchesSerialOnLegalSets(t *testing.T) {
	f := func(seed int64) bool {
		return verifyAll(t, legalWireSet(seed, 8), CheckOptions{}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCheckParallelMatchesSerialSingleViolation(t *testing.T) {
	// Every single-violation case must match the reference exactly,
	// including ordering and attribution.
	cases := []struct {
		name  string
		wires []Wire
		opts  CheckOptions
	}{
		{"overlap", []Wire{
			wire(0, Point{0, 0, 1}, Point{10, 0, 1}),
			wire(1, Point{5, 0, 1}, Point{7, 0, 1}),
		}, CheckOptions{}},
		{"malformed", []Wire{
			wire(0, Point{0, 0, 1}, Point{4, 0, 1}),
			wire(1, Point{0, 2, 1}),
		}, CheckOptions{}},
		{"layer range", []Wire{
			wire(0, Point{0, 0, 0}, Point{0, 0, 5}),
		}, CheckOptions{Layers: 4}},
		{"discipline x", []Wire{
			wire(0, Point{0, 0, 2}, Point{4, 0, 2}),
		}, CheckOptions{Discipline: true}},
		{"discipline y", []Wire{
			wire(0, Point{0, 0, 1}, Point{0, 4, 1}),
		}, CheckOptions{Discipline: true}},
		{"bad terminal", []Wire{
			{ID: 0, U: 0, V: 1, Path: []Point{{5, 5, 0}, {5, 5, 1}, {11, 5, 1}, {11, 2, 1}, {11, 2, 0}}},
		}, CheckOptions{Nodes: []Rect{{X: 0, Y: 0, W: 2, H: 2}, {X: 10, Y: 0, W: 2, H: 2}}}},
		{"self overlap", []Wire{
			wire(0, Point{0, 0, 1}, Point{5, 0, 1}, Point{5, 1, 1}, Point{5, 0, 1}),
		}, CheckOptions{}},
	}
	for _, c := range cases {
		if vs := verifyAll(t, c.wires, c.opts); len(vs) == 0 {
			t.Errorf("%s: expected violations", c.name)
		}
	}
}

func TestCheckParallelLegalityVerdictMatchesSerial(t *testing.T) {
	// On arbitrary (possibly multi-violation) inputs Verify must return the
	// reference's violation set — not just its verdict — whatever the
	// worker count or ceiling.
	f := func(seed int64) bool {
		var wires []Wire
		for i := 0; i < 6; i++ {
			w := randomWire(seed + int64(i)*131)
			w.ID = i
			wires = append(wires, w)
		}
		verifyAll(t, wires, CheckOptions{Layers: 8, Discipline: false})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCheckParallelDuplicateAttribution(t *testing.T) {
	a := wire(0, Point{0, 0, 1}, Point{10, 0, 1})
	b := wire(1, Point{5, 0, 1}, Point{7, 0, 1})
	v := verifyAll(t, []Wire{a, b}, CheckOptions{})
	if len(v) == 0 {
		t.Fatal("overlapping wires not detected")
	}
	if v[0].WireID != 1 || v[0].OtherID != 0 {
		t.Errorf("violation = %+v, want wire 1 charged against wire 0", v[0])
	}
}

func TestCheckParallelEmptyAndNegativeCoords(t *testing.T) {
	if v, err := Verify(nil, nil, CheckOptions{Workers: 4}); v != nil || err != nil {
		t.Errorf("empty set: %v %v", v, err)
	}
	// Negative coordinates exercise the encoder's offset handling.
	wires := []Wire{
		wire(0, Point{-7, -3, 1}, Point{-2, -3, 1}),
		wire(1, Point{-7, -3, 2}, Point{-7, 4, 2}),
		wire(2, Point{-5, -3, 1}, Point{-3, -3, 1}), // overlaps wire 0
	}
	got := verifyAll(t, wires, CheckOptions{})
	if len(got) != 1 || got[0].Where.X != -5 {
		t.Errorf("expected one violation at x=-5, got %v", got)
	}
}

func TestEdgeEncoderRoundTrip(t *testing.T) {
	wires := []Wire{
		wire(0, Point{-100, 50, 0}, Point{3000, 50, 0}),
		wire(1, Point{17, -9, 5}, Point{17, 444, 5}),
	}
	box, _ := Wires(wires).measure()
	enc, ok := newEdgeEncoderFromBox(box)
	if !ok {
		t.Fatal("encoder rejected small coordinates")
	}
	pts := []Point{{-100, 50, 0}, {2999, 50, 3}, {17, 444, 5}, {0, 0, 1}}
	for _, p := range pts {
		for _, ax := range []Axis{AxisX, AxisY, AxisZ} {
			key := enc.pack(p, ax)
			if Axis(key&3) != ax {
				t.Errorf("axis lost for %v/%v", p, ax)
			}
			if got := enc.unpack(key); got != p {
				t.Errorf("round trip %v -> %v", p, got)
			}
		}
	}
}
