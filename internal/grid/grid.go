// Package grid provides the geometric substrate for multilayer VLSI layouts:
// points and rectilinear wires in a 3-D grid, a legality verifier that checks
// edge-disjointness of wire paths, and bounding-box / length measurements.
//
// Coordinate convention: X and Y are the planar directions, Z is the layer
// index. The active layer (where network nodes live) is Z = 0; wiring layers
// are Z = 1..L. Under the direction discipline used throughout this module,
// X-runs (horizontal trunks) occupy odd wiring layers and Y-runs (vertical
// trunks) occupy even wiring layers, mirroring the Thompson model's
// one-layer-per-direction rule generalized to L layers.
package grid

import "fmt"

// Point is a lattice point in the 3-D layout grid.
type Point struct {
	X, Y, Z int
}

// Add returns p translated by (dx, dy, dz).
func (p Point) Add(dx, dy, dz int) Point {
	return Point{p.X + dx, p.Y + dy, p.Z + dz}
}

func (p Point) String() string {
	return fmt.Sprintf("(%d,%d,%d)", p.X, p.Y, p.Z)
}

// Axis identifies one of the three grid directions.
type Axis uint8

const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return "?"
}

// Wire is a rectilinear path through the grid realizing one network link.
// Path holds the polyline vertices; consecutive vertices must differ in
// exactly one coordinate. U and V are the endpoint node IDs of the link the
// wire realizes (U == V == -1 for auxiliary wires).
type Wire struct {
	ID   int
	U, V int
	Path []Point
}

// Validate checks that the path is a well-formed rectilinear polyline:
// at least two vertices and every hop axis-aligned with nonzero length.
func (w *Wire) Validate() error {
	v, bad := w.structural()
	if !bad {
		return nil
	}
	if v.Code == ReasonShortPath {
		return fmt.Errorf("wire %d: path has %d vertices, need at least 2", w.ID, len(w.Path))
	}
	i := int(v.Aux)
	return fmt.Errorf("wire %d: hop %d from %v to %v is not a straight axis-aligned segment", w.ID, i, w.Path[i-1], w.Path[i])
}

// Length returns the total geometric length of the wire, including vias
// (Z-direction runs).
func (w *Wire) Length() int {
	total := 0
	for i := 1; i < len(w.Path); i++ {
		total += absInt(w.Path[i].X-w.Path[i-1].X) +
			absInt(w.Path[i].Y-w.Path[i-1].Y) +
			absInt(w.Path[i].Z-w.Path[i-1].Z)
	}
	return total
}

// PlanarLength returns the wire length counting only X and Y runs, the
// quantity the paper calls "wire length" (vias are inter-layer connectors,
// not tracks).
func (w *Wire) PlanarLength() int {
	total := 0
	for i := 1; i < len(w.Path); i++ {
		total += absInt(w.Path[i].X-w.Path[i-1].X) + absInt(w.Path[i].Y-w.Path[i-1].Y)
	}
	return total
}

// Segments calls fn for every maximal straight segment of the wire with the
// segment's start point, axis, and (signed) length.
func (w *Wire) Segments(fn func(start Point, axis Axis, length int)) {
	for i := 1; i < len(w.Path); i++ {
		a, b := w.Path[i-1], w.Path[i]
		switch {
		case b.X != a.X:
			fn(a, AxisX, b.X-a.X)
		case b.Y != a.Y:
			fn(a, AxisY, b.Y-a.Y)
		case b.Z != a.Z:
			fn(a, AxisZ, b.Z-a.Z)
		}
	}
}

// UnitEdges calls fn for every unit grid edge traversed by the wire. Each
// edge is identified by its lower endpoint (the endpoint with the smaller
// coordinate on the edge's axis) and its axis. Returning false stops the walk.
//
//mlvlsi:hotpath
func (w *Wire) UnitEdges(fn func(low Point, axis Axis) bool) {
	for i := 1; i < len(w.Path); i++ {
		a, b := w.Path[i-1], w.Path[i]
		switch {
		case b.X != a.X:
			lo, hi := minInt(a.X, b.X), maxInt(a.X, b.X)
			for x := lo; x < hi; x++ {
				if !fn(Point{x, a.Y, a.Z}, AxisX) {
					return
				}
			}
		case b.Y != a.Y:
			lo, hi := minInt(a.Y, b.Y), maxInt(a.Y, b.Y)
			for y := lo; y < hi; y++ {
				if !fn(Point{a.X, y, a.Z}, AxisY) {
					return
				}
			}
		case b.Z != a.Z:
			lo, hi := minInt(a.Z, b.Z), maxInt(a.Z, b.Z)
			for z := lo; z < hi; z++ {
				if !fn(Point{a.X, a.Y, z}, AxisZ) {
					return
				}
			}
		}
	}
}

// Wires is a set of wires with aggregate measurements.
type Wires []Wire

// Bounds returns the smallest bounding box containing every path vertex of
// every wire in the set.
func (ws Wires) Bounds() BoundingBox {
	box, _ := ws.measure()
	return box
}

// measure walks every path vertex exactly once, returning the vertex
// bounding box together with the total unit-edge count (the sum of wire
// lengths). Verify uses the box to partition the occupancy tiles and the
// count to pre-size the map reference's table, so neither needs a second
// pass over the geometry.
//
//mlvlsi:hotpath
func (ws Wires) measure() (BoundingBox, int) {
	box := NewBoundingBox()
	total := 0
	for i := range ws {
		path := ws[i].Path
		for j, p := range path {
			box.AddPoint(p)
			if j > 0 {
				q := path[j-1]
				total += absInt(p.X-q.X) + absInt(p.Y-q.Y) + absInt(p.Z-q.Z)
			}
		}
	}
	return box, total
}

// Rect is an axis-aligned rectangle on the active layer occupied by a node.
type Rect struct {
	X, Y int // lower-left corner
	W, H int // side lengths (in grid units)
}

// Contains reports whether planar point (x, y) lies inside the rectangle
// (inclusive of the boundary).
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x <= r.X+r.W && y >= r.Y && y <= r.Y+r.H
}

// BoundingBox is the smallest upright box containing a set of geometry.
type BoundingBox struct {
	MinX, MinY, MinZ int
	MaxX, MaxY, MaxZ int
	empty            bool
}

// NewBoundingBox returns an empty bounding box.
func NewBoundingBox() BoundingBox {
	return BoundingBox{empty: true}
}

// AddPoint grows the box to include p.
func (b *BoundingBox) AddPoint(p Point) {
	if b.empty {
		b.MinX, b.MinY, b.MinZ = p.X, p.Y, p.Z
		b.MaxX, b.MaxY, b.MaxZ = p.X, p.Y, p.Z
		b.empty = false
		return
	}
	b.MinX = minInt(b.MinX, p.X)
	b.MinY = minInt(b.MinY, p.Y)
	b.MinZ = minInt(b.MinZ, p.Z)
	b.MaxX = maxInt(b.MaxX, p.X)
	b.MaxY = maxInt(b.MaxY, p.Y)
	b.MaxZ = maxInt(b.MaxZ, p.Z)
}

// AddRect grows the box to include r at layer z.
func (b *BoundingBox) AddRect(r Rect, z int) {
	b.AddPoint(Point{r.X, r.Y, z})
	b.AddPoint(Point{r.X + r.W, r.Y + r.H, z})
}

// Empty reports whether nothing has been added.
func (b *BoundingBox) Empty() bool { return b.empty }

// Width is the X extent of the box in grid units.
func (b *BoundingBox) Width() int {
	if b.empty {
		return 0
	}
	return b.MaxX - b.MinX
}

// Height is the Y extent of the box in grid units.
func (b *BoundingBox) Height() int {
	if b.empty {
		return 0
	}
	return b.MaxY - b.MinY
}

// Area is the planar area of the box: the paper's layout-area measure
// (area of the smallest upright rectangle containing all nodes and wires).
func (b *BoundingBox) Area() int {
	return b.Width() * b.Height()
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
