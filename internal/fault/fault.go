// Package fault is a corruption-injection harness for realized layouts: it
// applies typed, seeded corruptions to a layout.Layout so tests can prove —
// by mutation testing — that the legality verifiers actually catch broken
// geometry. Nothing here is used on the build path; the package exists to
// verify the verifier.
//
// Every corruption class is paired with the violation signatures the
// checkers are expected to raise for it. A class may legitimately surface
// as one of several signatures: lifting a segment onto a wrong-parity layer
// inserts vias that can collide with the wire's own via stack first, in
// which case the checker reports the shared edge before it ever reaches the
// discipline breach. Detection therefore accepts any signature in the
// class's set.
package fault

import (
	"fmt"
	"reflect"

	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
)

// Class enumerates the corruption classes.
type Class int

const (
	// Overlap rewrites one wire to retrace a unit segment of another wire
	// on the same wiring layer, breaking edge-disjointness.
	Overlap Class = iota
	// Detach moves a wire terminal off its node rectangle (the wire end no
	// longer touches the port it claims).
	Detach
	// OutOfRange pushes a via below the active layer, leaving the legal
	// layer range [0, L].
	OutOfRange
	// LayerOverflow lifts a planar run onto layer L+1, beyond the last
	// wiring layer.
	LayerOverflow
	// Discipline moves a planar run onto a wrong-parity layer (an X-run
	// onto an even layer or a Y-run onto an odd one).
	Discipline
	// Duplicate appends a verbatim copy of an existing wire under a fresh
	// ID, duplicating every one of its grid edges.
	Duplicate
	// DeleteLink destroys a wire's path (truncating it below two
	// vertices), simulating a required link that was never realized.
	DeleteLink
	// Bend inserts a diagonal kink into a wire's path, breaking the
	// rectilinear-polyline structure (a hop that changes two coordinates).
	Bend
	// BadEndpoint rewrites a wire's claimed endpoint node ID to one past
	// the node table, simulating a link against a node that does not exist.
	BadEndpoint
	// Float lifts a wire terminal off the active layer onto wiring layer 1,
	// so the wire no longer lands on its port.
	Float

	numClasses
)

// Classes returns every corruption class, in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

func (c Class) String() string {
	switch c {
	case Overlap:
		return "overlap"
	case Detach:
		return "detach"
	case OutOfRange:
		return "out-of-range"
	case LayerOverflow:
		return "layer-overflow"
	case Discipline:
		return "discipline"
	case Duplicate:
		return "duplicate"
	case DeleteLink:
		return "delete-link"
	case Bend:
		return "bend"
	case BadEndpoint:
		return "bad-endpoint"
	case Float:
		return "float-terminal"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Signatures returns the violation-reason substrings that count as
// detecting this class. The checker walks a wire's edges in order and stops
// at the first violation, so classes whose injected geometry can trip an
// earlier check list every signature it may surface as.
func (c Class) Signatures() []string {
	switch c {
	case Overlap, Duplicate:
		return []string{"shared unit"}
	case Detach:
		return []string{"outside node"}
	case OutOfRange:
		return []string{"leaves wiring layer range"}
	case LayerOverflow:
		// The lifting vias can retrace the wire's own via stack before the
		// walk reaches layer L+1.
		return []string{"leaves wiring layer range", "shared unit"}
	case Discipline:
		// Same: the parity-shifting vias can collide before the wrong-layer
		// run is walked.
		return []string{"violates direction discipline", "shared unit"}
	case DeleteLink:
		return []string{"need at least 2"}
	case Bend:
		return []string{"not a straight axis-aligned segment"}
	case BadEndpoint:
		return []string{"out of range"}
	case Float:
		return []string{"not on the active layer"}
	}
	return nil
}

// Codes returns the typed violation reasons that count as detecting this
// class — the same acceptance sets as Signatures, expressed over
// grid.Reason so detection is a handful of integer compares instead of
// substring scans over formatted messages.
func (c Class) Codes() []grid.Reason {
	switch c {
	case Overlap, Duplicate:
		return []grid.Reason{grid.ReasonSharedEdge}
	case Detach:
		return []grid.Reason{grid.ReasonTerminalOutsideNode}
	case OutOfRange:
		return []grid.Reason{grid.ReasonLayerRange}
	case LayerOverflow:
		// The lifting vias can retrace the wire's own via stack before the
		// walk reaches layer L+1.
		return []grid.Reason{grid.ReasonLayerRange, grid.ReasonSharedEdge}
	case Discipline:
		// Same: the parity-shifting vias can collide before the wrong-layer
		// run is walked.
		return []grid.Reason{grid.ReasonDisciplineX, grid.ReasonDisciplineY, grid.ReasonSharedEdge}
	case DeleteLink:
		return []grid.Reason{grid.ReasonShortPath}
	case Bend:
		// The structural check runs before the edge walk and the terminal
		// checks, so the bent hop is always reported as itself.
		return []grid.Reason{grid.ReasonBentHop}
	case BadEndpoint:
		return []grid.Reason{grid.ReasonEndpointRange}
	case Float:
		// The terminal checks run unconditionally after the edge walk, so
		// the lifted terminal is always reported even when the inserted via
		// also collides with existing geometry.
		return []grid.Reason{grid.ReasonTerminalOffActive}
	}
	return nil
}

// Detected reports whether the violation set contains a violation matching
// one of the class's reason codes.
func (c Class) Detected(vs []grid.Violation) bool {
	for _, v := range vs {
		for _, code := range c.Codes() {
			if v.Code == code {
				return true
			}
		}
	}
	return false
}

// Injection records what one Apply call did, for test diagnostics.
type Injection struct {
	Class Class
	// Wire is the ID of the corrupted (or, for Duplicate, added) wire.
	Wire int
	// Other is the second wire involved (the overlapped wire for Overlap,
	// the copied wire for Duplicate); -1 otherwise.
	Other int
	// Note describes the concrete corruption in human terms.
	Note string
}

func (in Injection) String() string {
	if in.Other >= 0 {
		return fmt.Sprintf("%s on wire %d (with wire %d): %s", in.Class, in.Wire, in.Other, in.Note)
	}
	return fmt.Sprintf("%s on wire %d: %s", in.Class, in.Wire, in.Note)
}

// Injector applies seeded corruptions. The zero value is usable; distinct
// seeds corrupt different wires, and the same seed always produces the same
// corruption, so failures reproduce exactly.
type Injector struct {
	Seed uint64
}

// xorshift is the same tiny deterministic generator the simulator uses.
type xorshift uint64

func newRand(seed uint64) *xorshift {
	s := xorshift(seed*2685821657736338717 + 1)
	return &s
}

func (s *xorshift) next(n int) int {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return int(x % uint64(n))
}

func cloneLayout(l *layout.Layout) *layout.Layout {
	c := &layout.Layout{Name: l.Name, L: l.L}
	c.Nodes = append([]grid.Rect(nil), l.Nodes...)
	c.Wires = make([]grid.Wire, len(l.Wires))
	for i, w := range l.Wires {
		w.Path = append([]grid.Point(nil), w.Path...)
		c.Wires[i] = w
	}
	return c
}

// pickWire scans the wires cyclically from a seeded start and returns the
// index of the first wire satisfying ok, or -1. Scanning (rather than
// rejection sampling) makes selection total and deterministic.
func pickWire(rng *xorshift, wires []grid.Wire, ok func(*grid.Wire) bool) int {
	n := len(wires)
	if n == 0 {
		return -1
	}
	start := rng.next(n)
	for i := 0; i < n; i++ {
		wi := (start + i) % n
		if ok(&wires[wi]) {
			return wi
		}
	}
	return -1
}

// planarSegment returns the index i of the first path hop (Path[i-1] to
// Path[i]) that is a planar run on a wiring layer (Z >= 1), or -1.
func planarSegment(w *grid.Wire) int {
	for i := 1; i < len(w.Path); i++ {
		a, b := w.Path[i-1], w.Path[i]
		if a.Z == b.Z && a.Z >= 1 && (a.X != b.X || a.Y != b.Y) {
			return i
		}
	}
	return -1
}

// hasPlanarRun reports whether the wire has a planar run on a wiring layer.
func hasPlanarRun(w *grid.Wire) bool { return planarSegment(w) >= 0 }

// Apply returns a corrupted deep copy of lay (the input is never modified)
// together with a description of the injected fault. It fails only when the
// layout has no wire the class can corrupt (e.g. Overlap on a single-wire
// layout).
func (inj Injector) Apply(lay *layout.Layout, c Class) (*layout.Layout, Injection, error) {
	out := cloneLayout(lay)
	rng := newRand(inj.Seed ^ (uint64(c)+1)*0x9E3779B97F4A7C15)
	info := Injection{Class: c, Wire: -1, Other: -1}

	switch c {
	case Overlap:
		ai := pickWire(rng, out.Wires, hasPlanarRun)
		if ai < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire with a planar run on a wiring layer", c)
		}
		if len(out.Wires) < 2 {
			return nil, info, fmt.Errorf("fault %s: need at least 2 wires, have %d", c, len(out.Wires))
		}
		bi := pickWire(rng, out.Wires, func(w *grid.Wire) bool { return w.ID != out.Wires[ai].ID })
		a := &out.Wires[ai]
		seg := planarSegment(a)
		p, q := a.Path[seg-1], a.Path[seg]
		// First unit edge of the run, oriented low-to-high on its axis.
		lo := p
		var hi grid.Point
		if p.X != q.X {
			if q.X < p.X {
				lo.X = p.X - 1
			}
			hi = lo.Add(1, 0, 0)
		} else {
			if q.Y < p.Y {
				lo.Y = p.Y - 1
			}
			hi = lo.Add(0, 1, 0)
		}
		b := &out.Wires[bi]
		info.Wire, info.Other = b.ID, a.ID
		info.Note = fmt.Sprintf("rewrote wire %d to retrace %v-%v of wire %d", b.ID, lo, hi, a.ID)
		b.U, b.V = -1, -1
		b.Path = []grid.Point{lo, hi}

	case Detach:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool {
			return w.U >= 0 && w.U < len(out.Nodes) && len(w.Path) >= 2 && w.Path[0].Z == 0
		})
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire terminating on a node", c)
		}
		w := &out.Wires[wi]
		rect := out.Nodes[w.U]
		// Slide the terminal one unit past the node's right edge, via a
		// planar X-run on the active layer (legal geometry everywhere
		// except the terminal itself).
		p0 := w.Path[0]
		outside := grid.Point{X: rect.X + rect.W + 1, Y: p0.Y, Z: 0}
		info.Wire = w.ID
		info.Note = fmt.Sprintf("moved U-terminal of wire %d to %v, outside node %d", w.ID, outside, w.U)
		w.Path = append([]grid.Point{outside}, w.Path...)

	case OutOfRange:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool { return len(w.Path) >= 2 })
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire with a path", c)
		}
		w := &out.Wires[wi]
		p0 := w.Path[0]
		dip := grid.Point{X: p0.X, Y: p0.Y, Z: -1}
		info.Wire = w.ID
		info.Note = fmt.Sprintf("dipped wire %d below the active layer at %v", w.ID, dip)
		w.Path = append([]grid.Point{p0, dip}, w.Path...)

	case LayerOverflow:
		wi := pickWire(rng, out.Wires, hasPlanarRun)
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire with a planar run on a wiring layer", c)
		}
		w := &out.Wires[wi]
		seg := planarSegment(w)
		a, b := w.Path[seg-1], w.Path[seg]
		above := out.L + 1
		aUp := grid.Point{X: a.X, Y: a.Y, Z: above}
		bUp := grid.Point{X: b.X, Y: b.Y, Z: above}
		info.Wire = w.ID
		info.Note = fmt.Sprintf("lifted run %v-%v of wire %d to layer %d > L=%d", a, b, w.ID, above, out.L)
		w.Path = append(w.Path[:seg:seg], append([]grid.Point{aUp, bUp}, w.Path[seg:]...)...)

	case Discipline:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool {
			seg := planarSegment(w)
			if seg < 0 {
				return false
			}
			z := w.Path[seg].Z
			// Need a wrong-parity layer within [1, L] to move the run to.
			return z+1 <= out.L || z-1 >= 1
		})
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no planar run with an adjacent wiring layer", c)
		}
		w := &out.Wires[wi]
		seg := planarSegment(w)
		a, b := w.Path[seg-1], w.Path[seg]
		wrong := a.Z + 1
		if wrong > out.L {
			wrong = a.Z - 1
		}
		aW := grid.Point{X: a.X, Y: a.Y, Z: wrong}
		bW := grid.Point{X: b.X, Y: b.Y, Z: wrong}
		info.Wire = w.ID
		info.Note = fmt.Sprintf("moved run %v-%v of wire %d to wrong-parity layer %d", a, b, w.ID, wrong)
		w.Path = append(w.Path[:seg:seg], append([]grid.Point{aW, bW}, w.Path[seg:]...)...)

	case Duplicate:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool { return len(w.Path) >= 2 })
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire with a path", c)
		}
		src := out.Wires[wi]
		maxID := 0
		for i := range out.Wires {
			if out.Wires[i].ID > maxID {
				maxID = out.Wires[i].ID
			}
		}
		dup := src
		dup.ID = maxID + 1
		dup.Path = append([]grid.Point(nil), src.Path...)
		info.Wire, info.Other = dup.ID, src.ID
		info.Note = fmt.Sprintf("appended wire %d as a verbatim copy of wire %d", dup.ID, src.ID)
		out.Wires = append(out.Wires, dup)

	case DeleteLink:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool { return len(w.Path) >= 2 })
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire with a path", c)
		}
		w := &out.Wires[wi]
		info.Wire = w.ID
		info.Note = fmt.Sprintf("destroyed the path of wire %d (link %d-%d no longer realized)", w.ID, w.U, w.V)
		w.Path = w.Path[:1]

	case Bend:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool { return len(w.Path) >= 2 })
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire with a path", c)
		}
		w := &out.Wires[wi]
		// Inserting a +(1,1,0) neighbor after the first vertex makes hop 1
		// change two coordinates at once; the kink cannot coincide with the
		// next vertex, which differs from Path[0] in exactly one coordinate.
		a := w.Path[0]
		kink := a.Add(1, 1, 0)
		info.Wire = w.ID
		info.Note = fmt.Sprintf("inserted diagonal kink %v after %v in wire %d", kink, a, w.ID)
		w.Path = append([]grid.Point{a, kink}, w.Path[1:]...)

	case BadEndpoint:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool { return w.U >= 0 && w.V >= 0 })
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire claiming node endpoints", c)
		}
		w := &out.Wires[wi]
		bad := len(out.Nodes)
		info.Wire = w.ID
		info.Note = fmt.Sprintf("rewrote U-endpoint of wire %d from node %d to nonexistent node %d", w.ID, w.U, bad)
		w.U = bad

	case Float:
		wi := pickWire(rng, out.Wires, func(w *grid.Wire) bool {
			return w.U >= 0 && w.V >= 0 && len(w.Path) >= 2 && w.Path[0].Z == 0
		})
		if wi < 0 {
			return nil, info, fmt.Errorf("fault %s: no wire terminating on the active layer", c)
		}
		w := &out.Wires[wi]
		p0 := w.Path[0]
		lifted := grid.Point{X: p0.X, Y: p0.Y, Z: 1}
		info.Wire = w.ID
		info.Note = fmt.Sprintf("lifted U-terminal of wire %d to %v, off the active layer", w.ID, lifted)
		w.Path = append([]grid.Point{lifted}, w.Path...)

	default:
		return nil, info, fmt.Errorf("fault: unknown class %d", int(c))
	}
	return out, info, nil
}

// SweepWorkers and SweepCeilings are the grid.Verify configurations
// Differential covers: every worker count crossed with no memory ceiling
// (0), a ceiling small enough to shatter a layout into many tiles with
// conflicts crossing seams, and one roomy enough to change nothing.
var (
	SweepWorkers  = []int{1, 2, 8}
	SweepCeilings = []int{0, 1 << 10, 64 << 20}
)

// Differential runs grid.Verify on wires under every sweep configuration
// and returns the map reference's violations (grid.Reference), or an error
// naming the first configuration whose violation set is not byte-identical
// to the reference's.
func Differential(wires []grid.Wire, opts grid.CheckOptions) ([]grid.Violation, error) {
	want := grid.Reference(wires, opts)
	for _, workers := range SweepWorkers {
		for _, ceiling := range SweepCeilings {
			run := opts
			run.Workers, run.TileBytes = workers, ceiling
			got, err := grid.Verify(nil, wires, run)
			if err != nil {
				return nil, fmt.Errorf("workers=%d ceiling=%d: %w", workers, ceiling, err)
			}
			if !reflect.DeepEqual(got, want) {
				return nil, fmt.Errorf("workers=%d ceiling=%d: Verify diverges from the map reference\nverify:    %v\nreference: %v",
					workers, ceiling, got, want)
			}
		}
	}
	return want, nil
}

// SelfTest corrupts lay with every class (deterministically from seed) and
// checks, through Differential, that grid.Verify reproduces the map
// reference's violation set byte for byte under every sweep configuration
// and that the set matches the class's signatures. It returns nil exactly
// when every corruption is caught everywhere — the metamorphic property the
// chaos sweep asserts for every registry family.
func SelfTest(lay *layout.Layout, seed uint64) error {
	inj := Injector{Seed: seed}
	opts := grid.CheckOptions{Layers: lay.L, Discipline: true, Nodes: lay.Nodes}
	for _, c := range Classes() {
		bad, info, err := inj.Apply(lay, c)
		if err != nil {
			return fmt.Errorf("%s: inject on %s: %w", c, lay.Name, err)
		}
		vs, err := Differential(bad.Wires, opts)
		if err != nil {
			return fmt.Errorf("%s on %s (%s): %w", c, lay.Name, info, err)
		}
		if !c.Detected(vs) {
			return fmt.Errorf("%s on %s: verifier missed it (%s; %d violations)", c, lay.Name, info, len(vs))
		}
	}
	return nil
}
