package main

import (
	"context"
	"fmt"
	"time"

	"mlvlsi"
	"mlvlsi/internal/obs"
)

// ref is the expected output for one item, computed once per run before the
// set-up rounds.
type ref struct {
	stats mlvlsi.Stats
	mem   int64
}

// references builds every item on the arena path with one reused scratch —
// a different build regime from lib-sweep's, proven byte-identical by the
// repository's differential tests — and records its stats and size.
func references(items []item) ([]ref, error) {
	scratch := mlvlsi.NewBuildScratch()
	refs := make([]ref, len(items))
	for i, it := range items {
		lay, err := mlvlsi.BuildSpecWith(context.Background(), it.request(), nil, scratch)
		if err != nil {
			return nil, fmt.Errorf("reference build %s: %w", it, err)
		}
		refs[i] = ref{stats: lay.Stats(), mem: lay.MemBytes()}
	}
	return refs, nil
}

// libSystem runs lib-sweep operations: BuildFamily with default Options,
// Stats plus MemBytes, VerifyLayout. With a non-nil observer each step is
// wrapped in a benchmark span and the observer is passed to the library.
type libSystem struct {
	plan *plan
	refs []ref
	obs  *obs.Observer
}

func (l *libSystem) do(_, i int, _ bool) (time.Duration, error) {
	it := l.plan.items[l.plan.ops[i].item]
	spec := mlvlsi.FamilySpec{Name: it.family, Params: it.params}
	opt := mlvlsi.Options{Layers: it.layers, Observer: l.obs}

	t := time.Now()
	root := l.obs.StartSpan("bench.op")
	sp := root.Child("bench.build_family")
	lay, err := mlvlsi.BuildFamily(spec, opt)
	sp.End()
	if err != nil {
		root.End()
		return time.Since(t), fmt.Errorf("%s: BuildFamily: %w", it, err)
	}
	sp = root.Child("bench.stats")
	st, mem := lay.Stats(), lay.MemBytes()
	sp.End()
	sp = root.Child("bench.verify")
	viol, err := mlvlsi.VerifyLayout(lay, opt)
	sp.End()
	root.End()
	d := time.Since(t)

	switch ref := l.refs[l.plan.ops[i].item]; {
	case err != nil:
		return d, fmt.Errorf("%s: VerifyLayout: %w", it, err)
	case len(viol) > 0:
		return d, fmt.Errorf("%s: %d violations, first: %v", it, len(viol), viol[0])
	case st != ref.stats || mem != ref.mem:
		return d, fmt.Errorf("%s: got stats %+v mem %d, reference %+v mem %d", it, st, mem, ref.stats, ref.mem)
	}
	return d, nil
}

func (l *libSystem) close() {}
