package grid

import (
	"context"
	"fmt"

	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
)

// CheckOptions configures the legality verifier.
type CheckOptions struct {
	// Layers is the number of wiring layers available (Z = 1..Layers).
	// Zero disables the layer-range check.
	Layers int
	// Discipline enforces the direction-layer rule: X-runs only on odd
	// wiring layers, Y-runs only on even wiring layers. Z-runs (vias) are
	// always allowed. When Layers is odd, the extra odd layer carries
	// X-runs, matching the paper's odd-L track split.
	Discipline bool
	// Nodes, when non-nil, are the node rectangles on the active layer.
	// The verifier then checks that every wire with endpoint IDs >= 0
	// starts and ends at Z = 0 inside the claimed endpoint node rectangles.
	Nodes []Rect
	// Workers bounds the fan-out of the tile walk (0 means GOMAXPROCS).
	// The violation set is byte-identical for every value, 1 included.
	Workers int
	// TileBytes is the verifier's memory ceiling in bytes. Verify partitions
	// the wire set's bounding box into planar tiles whose pooled occupancy
	// bitsets fit a per-tile budget of 1 MiB (see Tiling); a positive
	// TileBytes caps that budget at TileBytes/workers, so the bitsets in
	// flight together stay under the ceiling. Zero or a negative value
	// imposes no ceiling, and the partition then does not depend on
	// Workers. A layout whose box fits one tile is verified by a single
	// bitset walk with no border reconciliation.
	TileBytes int
	// Span, when non-nil, is the parent span the verifier hangs its phase
	// spans off (measure, bin, walk, merge); counters go to the span's
	// observer. Nil disables instrumentation. Either way the per-edge hot
	// loops are untouched: instrumentation happens at phase granularity on
	// the coordinator path, using aggregates the check computes anyway, so
	// results and allocation behavior are identical.
	Span *obs.Span
	// Observer receives the counters when Span is nil — callers that want
	// metrics without a span tree (Layout.VerifyOpts builds the span root
	// itself and leaves this to programmatic grid.Verify users) set it
	// instead. When Span is non-nil its observer wins and this field is
	// ignored.
	Observer *obs.Observer
}

// observer resolves where counters go: the span's observer when a span was
// supplied, the explicit Observer otherwise. Both legs are nil-safe.
func (o *CheckOptions) observer() *obs.Observer {
	if o.Span != nil {
		return o.Span.Observer()
	}
	return o.Observer
}

// Reason is a typed violation cause. Codes are formatted lazily by
// Violation.Error / Violation.Reason, so the checkers' hot paths never build
// strings — under fault injection the layer-range and discipline branches
// fire per unit edge, where a fmt.Sprintf per violation dominates.
type Reason uint8

const (
	// ReasonNone is the zero value; no valid Violation carries it.
	ReasonNone Reason = iota
	// ReasonShortPath: the path has fewer than two vertices (Aux holds the
	// vertex count).
	ReasonShortPath
	// ReasonBentHop: path hop Aux is not a straight axis-aligned segment
	// (Where holds the hop's start vertex).
	ReasonBentHop
	// ReasonLayerRange: the edge leaves the wiring layer range [0, Aux].
	ReasonLayerRange
	// ReasonDisciplineX: an x-run on an even layer.
	ReasonDisciplineX
	// ReasonDisciplineY: a y-run on an odd layer.
	ReasonDisciplineY
	// ReasonSharedEdge: the unit EdgeAxis-edge at Where is already owned by
	// wire OtherID.
	ReasonSharedEdge
	// ReasonEndpointRange: the wire claims endpoint node id Aux, which is
	// out of range.
	ReasonEndpointRange
	// ReasonTerminalOffActive: a wire terminal is not on the active layer.
	ReasonTerminalOffActive
	// ReasonTerminalOutsideNode: a wire terminal lies outside node Aux's
	// rectangle.
	ReasonTerminalOutsideNode
	// ReasonNodeInterior: a planar run passes through the interior of a
	// foreign node rectangle (Thompson-strict clearance, CheckClearance).
	// Only the opt-in CheckClearance emits it — Verify never does — so the
	// chaos sweep, which drives Verify, cannot observe it and no fault class
	// claims it.
	ReasonNodeInterior //mlvlsi:allow violationcode (clearance-only; outside the chaos sweep)
)

// A Violation describes one legality failure found by Verify. The struct is
// comparable and carries no strings; messages are formatted on demand.
type Violation struct {
	WireID  int
	OtherID int // second wire for overlap violations, -1 otherwise
	Where   Point
	Code    Reason
	// EdgeAxis is the axis of the shared edge for ReasonSharedEdge.
	EdgeAxis Axis
	// Aux is the code's numeric detail: layer bound, node id, vertex count
	// or hop index (see the Reason constants).
	Aux int32
}

// Reason returns the human-readable cause, matching the fault-injection
// signatures in internal/fault.
func (v Violation) Reason() string {
	switch v.Code {
	case ReasonShortPath:
		return fmt.Sprintf("path has %d vertices, need at least 2", v.Aux)
	case ReasonBentHop:
		return fmt.Sprintf("hop %d is not a straight axis-aligned segment", v.Aux)
	case ReasonLayerRange:
		return fmt.Sprintf("leaves wiring layer range [0,%d]", v.Aux)
	case ReasonDisciplineX:
		return "x-run on an even layer violates direction discipline"
	case ReasonDisciplineY:
		return "y-run on an odd layer violates direction discipline"
	case ReasonSharedEdge:
		return fmt.Sprintf("shared unit %s-edge", v.EdgeAxis)
	case ReasonEndpointRange:
		return fmt.Sprintf("endpoint node id %d out of range", v.Aux)
	case ReasonTerminalOffActive:
		return "wire terminal is not on the active layer (z=0)"
	case ReasonTerminalOutsideNode:
		return fmt.Sprintf("wire terminal is outside node %d rectangle", v.Aux)
	case ReasonNodeInterior:
		return "planar run passes through the interior of a foreign node"
	}
	return fmt.Sprintf("reason(%d)", int(v.Code))
}

func (v Violation) Error() string {
	if v.OtherID >= 0 {
		return fmt.Sprintf("wire %d overlaps wire %d at %v: %s", v.WireID, v.OtherID, v.Where, v.Reason())
	}
	return fmt.Sprintf("wire %d at %v: %s", v.WireID, v.Where, v.Reason())
}

type edgeKey struct {
	p Point
	a Axis
}

// ctxStride is how many wires the checkers process between context polls.
const ctxStride = 64

// structural returns the Violation describing the first structural defect of
// the wire's path (too short, or a hop that is not axis-aligned), and whether
// one was found. It is the coded core behind Wire.Validate.
func (w *Wire) structural() (Violation, bool) {
	if len(w.Path) < 2 {
		return Violation{WireID: w.ID, OtherID: -1, Code: ReasonShortPath, Aux: int32(len(w.Path))}, true
	}
	for i := 1; i < len(w.Path); i++ {
		a, b := w.Path[i-1], w.Path[i]
		dx, dy, dz := b.X-a.X, b.Y-a.Y, b.Z-a.Z
		nz := 0
		if dx != 0 {
			nz++
		}
		if dy != 0 {
			nz++
		}
		if dz != 0 {
			nz++
		}
		if nz != 1 {
			return Violation{WireID: w.ID, OtherID: -1, Where: a, Code: ReasonBentHop, Aux: int32(i)}, true
		}
	}
	return Violation{}, false
}

// edgeViolation applies the per-edge layer-range and discipline checks to one
// unit edge, returning the violation (if any). It allocates nothing and is
// shared by the tile walk and the map reference.
//
//mlvlsi:hotpath
func edgeViolation(w *Wire, low Point, axis Axis, opts *CheckOptions) (Violation, bool) {
	if opts.Layers > 0 {
		zTop := low.Z
		if axis == AxisZ {
			zTop = low.Z + 1
		}
		if low.Z < 0 || zTop > opts.Layers {
			return Violation{
				WireID: w.ID, OtherID: -1, Where: low,
				Code: ReasonLayerRange, Aux: int32(opts.Layers),
			}, true
		}
	}
	if opts.Discipline && low.Z > 0 {
		if axis == AxisX && low.Z%2 == 0 {
			return Violation{
				WireID: w.ID, OtherID: -1, Where: low, Code: ReasonDisciplineX,
			}, true
		}
		if axis == AxisY && low.Z%2 == 1 {
			return Violation{
				WireID: w.ID, OtherID: -1, Where: low, Code: ReasonDisciplineY,
			}, true
		}
	}
	return Violation{}, false
}

// Verify is the verifier: it checks that a set of wires forms a legal
// multilayer layout — every wire is a well-formed rectilinear path, no two
// wires share a unit grid edge (the multilayer grid model requires
// edge-disjoint paths), the direction discipline holds if requested, all
// geometry stays within the wiring layers, and wire endpoints terminate on
// their nodes. It returns all violations found (nil means the layout is
// legal), and a nil slice plus an error wrapping par.ErrCanceled once ctx
// (which may be nil, meaning no cancellation) is done.
//
// The check is exact, not sampled: every unit grid edge of every wire is
// recorded. Verify partitions the wire set's bounding box into tiles (see
// CheckOptions.TileBytes and Tiling) and walks them with pooled occupancy
// bitsets on the par pool, reconciling the edges that straddle tile seams
// in a final pass. Only a box the tiling cannot partition — coordinates
// that do not pack into 64 bits, or more than maxTiles tiles — is checked
// by Reference's map instead. Either way the result is the canonical
// violation set, byte-identical for every Workers and TileBytes value:
// violations ordered by wire (slice order) and, within a wire, by path
// position; a wire's walk stops only at a layer-range or discipline
// violation; the first claimant of an edge in slice order owns it and every
// later claimant is charged; and each wire reports at most one walk
// violation.
func Verify(ctx context.Context, wires []Wire, opts CheckOptions) ([]Violation, error) {
	if err := par.Canceled(ctx); err != nil {
		return nil, err
	}
	if len(wires) == 0 {
		return nil, nil
	}
	workers := par.Workers(opts.Workers)
	ob := opts.observer()
	ob.Set(obs.WorkerCount, int64(workers))
	ms := opts.Span.Child("measure")
	box, total := parMeasure(wires, workers)
	ms.End()
	ob.Add(obs.UnitEdgesChecked, int64(total))
	ob.Add(obs.TiledChecks, 1)
	tl, enc, ok := newTilingFromBox(box, tileBudget(opts.TileBytes, workers))
	if !ok {
		ob.Add(obs.SparseChecks, 1)
		ws := opts.Span.Child("walk")
		vs, err := checkMap(ctx, wires, &opts, total)
		ws.End()
		return vs, err
	}
	if tl.Tiles() == 1 {
		ob.Add(obs.DenseChecks, 1)
	}
	return checkTiled(ctx, wires, opts, tl, enc, workers, nil)
}

// Reference is the map-based reference checker: one serial pass in slice
// order that hashes every unit edge into a map keyed by (lower endpoint,
// axis). It handles arbitrary geometry at hashing cost per edge and returns
// Verify's canonical violation set; Verify runs it only on boxes the tiling
// cannot partition, and the differential tests compare the tiled engine
// against it.
func Reference(wires []Wire, opts CheckOptions) []Violation {
	vs, _ := checkMap(nil, wires, &opts, 0)
	return vs
}

// checkMap is Reference with cooperative cancellation and a map size hint.
func checkMap(ctx context.Context, wires []Wire, opts *CheckOptions, sizeHint int) ([]Violation, error) {
	var violations []Violation
	owner := make(map[edgeKey]int, sizeHint)
	for wi := range wires {
		if ctx != nil && wi%ctxStride == 0 {
			if err := par.Canceled(ctx); err != nil {
				return nil, err
			}
		}
		w := &wires[wi]
		if v, bad := w.structural(); bad {
			violations = append(violations, v)
			continue
		}
		reported := false
		w.UnitEdges(func(low Point, axis Axis) bool {
			if v, bad := edgeViolation(w, low, axis, opts); bad {
				if !reported {
					violations = append(violations, v)
				}
				return false
			}
			key := edgeKey{low, axis}
			if first, dup := owner[key]; !dup {
				owner[key] = w.ID
			} else if !reported {
				reported = true
				violations = append(violations, Violation{
					WireID: w.ID, OtherID: first, Where: low,
					Code: ReasonSharedEdge, EdgeAxis: axis,
				})
			}
			return true
		})
		checkTerminals(w, opts.Nodes, &violations)
	}
	return violations, nil
}

// checkTerminals runs both endpoint checks of one wire, appending any
// violations. Wires with auxiliary endpoints (U or V negative) are exempt,
// as is the whole check when no node rectangles were supplied.
func checkTerminals(w *Wire, nodes []Rect, violations *[]Violation) {
	if nodes == nil || w.U < 0 || w.V < 0 || len(w.Path) == 0 {
		return
	}
	checkTerminal(w, w.Path[0], w.U, nodes, violations)
	checkTerminal(w, w.Path[len(w.Path)-1], w.V, nodes, violations)
}

func checkTerminal(w *Wire, p Point, node int, nodes []Rect, violations *[]Violation) {
	if node < 0 || node >= len(nodes) {
		*violations = append(*violations, Violation{
			WireID: w.ID, OtherID: -1, Where: p,
			Code: ReasonEndpointRange, Aux: int32(node),
		})
		return
	}
	if p.Z != 0 {
		*violations = append(*violations, Violation{
			WireID: w.ID, OtherID: -1, Where: p, Code: ReasonTerminalOffActive,
		})
		return
	}
	if !nodes[node].Contains(p.X, p.Y) {
		*violations = append(*violations, Violation{
			WireID: w.ID, OtherID: -1, Where: p,
			Code: ReasonTerminalOutsideNode, Aux: int32(node),
		})
	}
}
