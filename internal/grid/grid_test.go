package grid

import (
	"reflect"
	"testing"
	"testing/quick"
)

func wire(id int, pts ...Point) Wire {
	return Wire{ID: id, U: -1, V: -1, Path: pts}
}

// sweepWorkers and sweepCeilings are the Verify configurations every
// differential test covers: the violation set must be byte-identical to
// Reference's for each combination (a ceiling of 0 means none).
var (
	sweepWorkers  = []int{1, 2, 8}
	sweepCeilings = []int{0, 1 << 10, 64 << 20}
)

// verifyAll runs Verify under every sweep configuration, fails the test
// unless each result equals Reference byte for byte, and returns the
// reference violations.
func verifyAll(t testing.TB, wires []Wire, opts CheckOptions) []Violation {
	t.Helper()
	want := Reference(wires, opts)
	for _, workers := range sweepWorkers {
		for _, ceiling := range sweepCeilings {
			run := opts
			run.Workers, run.TileBytes = workers, ceiling
			got, err := Verify(nil, wires, run)
			if err != nil {
				t.Fatalf("workers=%d ceiling=%d: %v", workers, ceiling, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d ceiling=%d: Verify diverges from Reference\nverify:    %v\nreference: %v",
					workers, ceiling, got, want)
			}
		}
	}
	return want
}

func TestWireValidate(t *testing.T) {
	cases := []struct {
		name string
		w    Wire
		ok   bool
	}{
		{"straight x", wire(0, Point{0, 0, 1}, Point{5, 0, 1}), true},
		{"L-shape", wire(1, Point{0, 0, 1}, Point{5, 0, 1}, Point{5, 3, 1}), true},
		{"via", wire(2, Point{0, 0, 0}, Point{0, 0, 3}), true},
		{"single point", wire(3, Point{0, 0, 0}), false},
		{"diagonal", wire(4, Point{0, 0, 0}, Point{1, 1, 0}), false},
		{"zero hop", wire(5, Point{0, 0, 0}, Point{0, 0, 0}), false},
	}
	for _, c := range cases {
		err := c.w.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestWireLength(t *testing.T) {
	w := wire(0, Point{0, 0, 0}, Point{0, 0, 2}, Point{4, 0, 2}, Point{4, 3, 2}, Point{4, 3, 0})
	if got := w.Length(); got != 2+4+3+2 {
		t.Errorf("Length = %d, want 11", got)
	}
	if got := w.PlanarLength(); got != 4+3 {
		t.Errorf("PlanarLength = %d, want 7", got)
	}
}

func TestWireUnitEdges(t *testing.T) {
	w := wire(0, Point{2, 0, 1}, Point{0, 0, 1}, Point{0, 2, 1})
	var got []edgeKey
	w.UnitEdges(func(low Point, axis Axis) bool {
		got = append(got, edgeKey{low, axis})
		return true
	})
	// Unit edges are reported lower-endpoint-first regardless of the
	// traversal direction of the segment.
	want := []edgeKey{
		{Point{0, 0, 1}, AxisX},
		{Point{1, 0, 1}, AxisX},
		{Point{0, 0, 1}, AxisY},
		{Point{0, 1, 1}, AxisY},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWireUnitEdgesEarlyStop(t *testing.T) {
	w := wire(0, Point{0, 0, 1}, Point{10, 0, 1})
	count := 0
	w.UnitEdges(func(Point, Axis) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d edges, want 3", count)
	}
}

func TestCheckDetectsOverlap(t *testing.T) {
	a := wire(0, Point{0, 0, 1}, Point{10, 0, 1})
	b := wire(1, Point{5, 0, 1}, Point{7, 0, 1})
	v := verifyAll(t, []Wire{a, b}, CheckOptions{})
	if len(v) == 0 {
		t.Fatal("overlapping wires not detected")
	}
	if v[0].WireID != 1 || v[0].OtherID != 0 {
		t.Errorf("violation = %+v, want wire 1 vs wire 0", v[0])
	}
}

func TestCheckCrossingIsLegal(t *testing.T) {
	// Two wires crossing at a point (different axes) share no unit edge.
	a := wire(0, Point{0, 5, 1}, Point{10, 5, 1})
	b := wire(1, Point{5, 0, 2}, Point{5, 10, 2})
	if v := verifyAll(t, []Wire{a, b}, CheckOptions{}); len(v) != 0 {
		t.Errorf("crossing wires flagged: %v", v)
	}
	// Even on the same layer, an x-run and a y-run through the same point
	// are edge-disjoint (knock-knee-free crossing).
	c := wire(2, Point{20, 5, 1}, Point{30, 5, 1})
	d := wire(3, Point{25, 0, 1}, Point{25, 10, 1})
	if v := verifyAll(t, []Wire{c, d}, CheckOptions{}); len(v) != 0 {
		t.Errorf("same-layer crossing flagged: %v", v)
	}
}

func TestCheckTouchingEndpointsLegal(t *testing.T) {
	// Wires meeting head-to-tail share a vertex but no unit edge.
	a := wire(0, Point{0, 0, 1}, Point{5, 0, 1})
	b := wire(1, Point{5, 0, 1}, Point{9, 0, 1})
	if v := verifyAll(t, []Wire{a, b}, CheckOptions{}); len(v) != 0 {
		t.Errorf("touching wires flagged: %v", v)
	}
}

func TestCheckDiscipline(t *testing.T) {
	bad := []Wire{
		wire(0, Point{0, 0, 2}, Point{4, 0, 2}), // x-run on even layer
	}
	if v := verifyAll(t, bad, CheckOptions{Discipline: true}); len(v) == 0 {
		t.Error("x-run on even layer not flagged under discipline")
	}
	bad2 := []Wire{
		wire(0, Point{0, 0, 1}, Point{0, 4, 1}), // y-run on odd layer
	}
	if v := verifyAll(t, bad2, CheckOptions{Discipline: true}); len(v) == 0 {
		t.Error("y-run on odd layer not flagged under discipline")
	}
	good := []Wire{
		wire(0, Point{0, 0, 1}, Point{4, 0, 1}),
		wire(1, Point{0, 0, 2}, Point{0, 4, 2}),
		wire(2, Point{1, 1, 0}, Point{1, 1, 2}), // via
		wire(3, Point{2, 0, 0}, Point{6, 0, 0}), // active layer runs are exempt
		wire(4, Point{2, 1, 0}, Point{2, 6, 0}),
	}
	if v := verifyAll(t, good, CheckOptions{Discipline: true}); len(v) != 0 {
		t.Errorf("legal disciplined wires flagged: %v", v)
	}
}

func TestCheckLayerRange(t *testing.T) {
	w := []Wire{wire(0, Point{0, 0, 0}, Point{0, 0, 5})}
	if v := verifyAll(t, w, CheckOptions{Layers: 4}); len(v) == 0 {
		t.Error("via above top layer not flagged")
	}
	if v := verifyAll(t, w, CheckOptions{Layers: 5}); len(v) != 0 {
		t.Errorf("via within range flagged: %v", v)
	}
}

func TestCheckTerminals(t *testing.T) {
	nodes := []Rect{{X: 0, Y: 0, W: 2, H: 2}, {X: 10, Y: 0, W: 2, H: 2}}
	good := Wire{ID: 0, U: 0, V: 1, Path: []Point{
		{1, 2, 0}, {1, 2, 1}, {11, 2, 1}, {11, 2, 0},
	}}
	if v := verifyAll(t, []Wire{good}, CheckOptions{Nodes: nodes}); len(v) != 0 {
		t.Errorf("good terminal wire flagged: %v", v)
	}
	offNode := Wire{ID: 1, U: 0, V: 1, Path: []Point{
		{5, 5, 0}, {5, 5, 1}, {11, 5, 1}, {11, 5, 0}, {11, 2, 0},
	}}
	if v := verifyAll(t, []Wire{offNode}, CheckOptions{Nodes: nodes}); len(v) == 0 {
		t.Error("terminal outside node rectangle not flagged")
	}
	notActive := Wire{ID: 2, U: 0, V: 1, Path: []Point{
		{1, 2, 1}, {11, 2, 1},
	}}
	if v := verifyAll(t, []Wire{notActive}, CheckOptions{Nodes: nodes}); len(v) == 0 {
		t.Error("terminal off the active layer not flagged")
	}
}

func TestBoundingBox(t *testing.T) {
	b := NewBoundingBox()
	if !b.Empty() || b.Area() != 0 {
		t.Fatal("new box should be empty with zero area")
	}
	b.AddPoint(Point{2, 3, 1})
	b.AddPoint(Point{7, -1, 4})
	if b.Width() != 5 || b.Height() != 4 || b.Area() != 20 {
		t.Errorf("box = %+v, want width 5 height 4 area 20", b)
	}
	b.AddRect(Rect{X: -3, Y: 0, W: 2, H: 2}, 0)
	if b.MinX != -3 || b.Width() != 10 {
		t.Errorf("after AddRect box = %+v", b)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{X: 1, Y: 2, W: 3, H: 4}
	for _, c := range []struct {
		x, y int
		want bool
	}{
		{1, 2, true}, {4, 6, true}, {2, 3, true},
		{0, 2, false}, {5, 3, false}, {2, 7, false},
	} {
		if got := r.Contains(c.x, c.y); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

// Property: Length is invariant under translation, and UnitEdges visits
// exactly Length edges.
func TestWirePropertyLengthMatchesUnitEdges(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWire(seed)
		count := 0
		w.UnitEdges(func(Point, Axis) bool { count++; return true })
		if count != w.Length() {
			return false
		}
		shifted := Wire{ID: w.ID, U: w.U, V: w.V}
		for _, p := range w.Path {
			shifted.Path = append(shifted.Path, p.Add(17, -9, 3))
		}
		return shifted.Length() == w.Length()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Verify never reports violations for a set of wires on pairwise
// distinct layers that each stay within their own layer.
func TestCheckPropertyDisjointLayersLegal(t *testing.T) {
	f := func(seed int64) bool {
		var wires []Wire
		for i := 0; i < 8; i++ {
			w := randomPlanarWire(seed+int64(i)*977, i+1)
			w.ID = i
			wires = append(wires, w)
		}
		return len(verifyAll(t, wires, CheckOptions{})) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomWire builds a deterministic pseudo-random rectilinear wire from seed.
func randomWire(seed int64) Wire {
	s := uint64(seed)*2654435761 + 1
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	p := Point{next(10), next(10), next(5)}
	w := Wire{ID: 0, U: -1, V: -1, Path: []Point{p}}
	for hop := 0; hop < 2+next(6); hop++ {
		d := 1 + next(5)
		if next(2) == 0 {
			d = -d
		}
		switch next(3) {
		case 0:
			p = p.Add(d, 0, 0)
		case 1:
			p = p.Add(0, d, 0)
		default:
			p = p.Add(0, 0, d)
		}
		if p != w.Path[len(w.Path)-1] {
			w.Path = append(w.Path, p)
		}
	}
	if len(w.Path) < 2 {
		w.Path = append(w.Path, p.Add(1, 0, 0))
	}
	return w
}

// randomPlanarWire builds a monotone (non-self-overlapping) staircase wire
// confined to layer z.
func randomPlanarWire(seed int64, z int) Wire {
	s := uint64(seed)*2654435761 + 1
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	p := Point{next(10), next(10), z}
	w := Wire{ID: 0, U: -1, V: -1, Path: []Point{p}}
	for hop := 0; hop < 2+next(6); hop++ {
		d := 1 + next(5)
		if hop%2 == 0 {
			p = p.Add(d, 0, 0)
		} else {
			p = p.Add(0, d, 0)
		}
		w.Path = append(w.Path, p)
	}
	return w
}
