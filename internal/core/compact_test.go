package core

import (
	"mlvlsi/internal/grid"
	"testing"
	"testing/quick"

	"mlvlsi/internal/track"
)

func TestCompactPreservesLegality(t *testing.T) {
	f := func(seed int64) bool {
		spec := buildRandomSpec(seed)
		compacted := CompactTracks(spec)
		lay, err := Build(compacted)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			t.Logf("seed %d: %v", seed, v[0])
			return false
		}
		return len(lay.Wires) == len(spec.RowEdges)+len(spec.ColEdges)+len(spec.Bent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Without bent edges, compaction never grows any channel: per-channel
// track counts are congestion-optimal and group assignment is balanced.
// (With bent edges, recoloring can merge track-sharing components and
// change the group pinning, so only legality is guaranteed — covered by
// TestCompactPreservesLegality.)
func TestCompactNeverGrowsChannels(t *testing.T) {
	f := func(seed int64) bool {
		spec := buildRandomSpec(seed)
		spec.Bent = nil
		before, err := Plan(spec)
		if err != nil {
			return false
		}
		after, err := Plan(CompactTracks(spec))
		if err != nil {
			return false
		}
		return after.ChannelWidth <= before.ChannelWidth &&
			after.ChannelHeight <= before.ChannelHeight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The paper's structured recurrences are congestion-optimal for their
// placements: compaction must not improve the hypercube, k-ary, or GHC
// product specs.
func TestPaperConstructionsAlreadyOptimal(t *testing.T) {
	specs := []Spec{
		FromFactors("cube", track.Hypercube(4), track.Hypercube(4), 2, 0),
		FromFactors("kary", track.KAryNCube(4, 2, false), track.KAryNCube(4, 2, false), 2, 0),
		FromFactors("ghc", track.GeneralizedHypercube([]int{5}), track.GeneralizedHypercube([]int{5}), 2, 0),
	}
	for _, spec := range specs {
		before, err := Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		after, err := Plan(CompactTracks(spec))
		if err != nil {
			t.Fatal(err)
		}
		if after.ChannelWidth != before.ChannelWidth || after.ChannelHeight != before.ChannelHeight {
			t.Errorf("%s: compaction changed channels %dx%d -> %dx%d (structured assignment was not optimal)",
				spec.Name, before.ChannelWidth, before.ChannelHeight,
				after.ChannelWidth, after.ChannelHeight)
		}
	}
}

// A deliberately wasteful assignment must compress.
func TestCompactCompressesWastefulSpec(t *testing.T) {
	spec := Spec{
		Name: "wasteful", Rows: 1, Cols: 6, L: 2,
		RowEdges: []ChannelEdge{
			{Index: 0, U: 0, V: 1, Track: 0},
			{Index: 0, U: 2, V: 3, Track: 7},  // could share track 0
			{Index: 0, U: 4, V: 5, Track: 42}, // could share track 0
		},
	}
	before, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Plan(CompactTracks(spec))
	if err != nil {
		t.Fatal(err)
	}
	if before.ChannelHeight != 3 || after.ChannelHeight != 1 {
		t.Errorf("channel height %d -> %d, want 3 -> 1", before.ChannelHeight, after.ChannelHeight)
	}
}
