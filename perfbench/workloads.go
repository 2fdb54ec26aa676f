package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"mlvlsi"
)

// The three workloads. Each is a fixed multiset of distinct constructions
// (items) and a pass: the operation sequence one warm-up or one timed pass
// issues. The seed chooses how each request body is spelled and, on
// serve-hit and lib-sweep, the order of the pass; it never changes which
// items a pass holds or how often, so every seed does the same work and
// figures stay comparable across seeds.

// workloadNames lists the workloads in the order `--workload all` runs them.
var workloadNames = []string{"serve-hit", "serve-miss", "lib-sweep"}

// spec is a family with the parameters the benchmark sets; the rest take
// their registry defaults.
type spec struct {
	family string
	params map[string]int
}

// serve-hit: POST /v1/build over loopback HTTP, every timed request a cache
// HIT.
//
// Why: most daemon traffic is hits (the committed serve records measured
// 97–100%). The working set is 10 families at L ∈ {2, 4, 8}: 30 keys,
// about 12 MiB of retained layouts, all built by the warm-up pass. Each key
// is requested hitSpellings times per pass, every body spelled
// independently (parameter and field order, explicit defaults, execution
// knobs such as workers, whitespace), so the daemon must canonicalize before
// the lookup.
//
// Should move: serve (HTTP, decode, encode), mlvlsi (Canonical/Key), the
// cache read path. Should not move: core, cluster, layout and grid stay idle,
// which makes this the control for build and verify changes. Request-scoped
// observability would cost the most here.
var serveHitSpecs = []spec{
	{"hypercube", map[string]int{"n": 9}},
	{"kary", map[string]int{"k": 8, "n": 3}},
	{"ghc", map[string]int{"r": 4, "n": 4}},
	{"mesh", map[string]int{"d": 2, "n": 32}},
	{"folded", map[string]int{"n": 8}},
	{"enhanced", map[string]int{"n": 8}},
	{"ccc", map[string]int{"n": 7}},
	{"butterfly", map[string]int{"m": 7}},
	{"isn", map[string]int{"m": 7}},
	{"hsn", map[string]int{"levels": 3, "r": 6}},
}

var serveHitLayers = []int{2, 4, 8}

const hitSpellings = 64

// serve-miss: POST /v1/build, no verify, every timed request a cache MISS.
//
// Why: the write side of the cache serve-hit reads. 17 mid-size families at
// L ∈ {2, 3, 4, 6} give 68 keys whose arena builds cost 0.3–3 ms each on a
// 2-CPU host (within about 10× of each other, so the tail is not one heavy
// family). A pass cycles one fixed permutation of the keys missCycles times
// through a cache whose budget holds about a quarter of their bytes, so LRU
// makes every request miss and evict.
//
// Should move: admission (resilience), the arena build regime (core,
// cluster), Stats/MemBytes on insert (layout), cache insert and eviction
// (serve). Should not move: grid stays idle (no verify), which makes this the
// control for verifier changes; mlvlsi.BuildFamily's map regime is not used.
var serveMissSpecs = []spec{
	{"hypercube", map[string]int{"n": 8}},
	{"kary", map[string]int{"k": 8, "n": 3}},
	{"ghc", map[string]int{"r": 4, "n": 4}},
	{"mesh", map[string]int{"d": 3, "n": 8}},
	{"folded", map[string]int{"n": 8}},
	{"enhanced", map[string]int{"n": 8}},
	{"ccc", map[string]int{"n": 7}},
	{"rh", map[string]int{"n": 8}},
	{"hsn", map[string]int{"levels": 3, "r": 6}},
	{"hhn", map[string]int{"levels": 2, "m": 4}},
	{"butterfly", map[string]int{"m": 6}},
	{"isn", map[string]int{"m": 7}},
	{"star", map[string]int{"n": 5}},
	{"pancake", map[string]int{"n": 5}},
	{"bubblesort", map[string]int{"n": 5}},
	{"transposition", map[string]int{"n": 5}},
	{"scc", map[string]int{"n": 5}},
}

var serveMissLayers = []int{2, 3, 4, 6}

const missCycles = 4

// missCacheShare is the share of the mix's retained bytes the serve-miss
// cache budget holds.
const missCacheShare = 4

// lib-sweep: per operation BuildFamily with default Options (nil Scratch, so
// the map build regime), then Stats and MemBytes, then VerifyLayout.
//
// Why: library callers (paperbench, the examples, the cmd tools) take this
// path. Every family in Families() at a mid size (libSweepParams; a family
// missing from the table builds at its registry defaults), at L ∈ {2, 4};
// a pass is libRounds independent shuffles of those items. Op costs span
// 0.3–8 ms, keeping p95 within a few times p50.
//
// Should move: mlvlsi (BuildFamily), core and cluster in the map regime,
// layout (Stats/MemBytes), grid (the verifier), runtime (GC). This is where
// verifier work and the map-path deletion show. Should not move: serve and
// the cache are idle.
var libSweepParams = map[string]map[string]int{
	"bubblesort":    {"n": 5},
	"butterfly":     {"m": 6},
	"ccc":           {"n": 7},
	"clusterc":      {"k": 8, "n": 2, "c": 4},
	"enhanced":      {"n": 8},
	"folded":        {"n": 8},
	"ghc":           {"r": 4, "n": 4},
	"hhn":           {"levels": 2, "m": 4},
	"hsn":           {"levels": 3, "r": 6},
	"hypercube":     {"n": 8},
	"isn":           {"m": 6},
	"kary":          {"k": 8, "n": 3},
	"mesh":          {"d": 3, "n": 8},
	"pancake":       {"n": 5},
	"rh":            {"n": 4},
	"scc":           {"n": 5},
	"star":          {"n": 5},
	"transposition": {"n": 5},
}

var libSweepLayers = []int{2, 4}

const libRounds = 4

// item is one distinct construction: a family with every registry parameter
// set explicitly, and a layer count.
type item struct {
	family string
	params map[string]int
	layers int
}

// request is the item's library form.
func (it item) request() mlvlsi.BuildRequest {
	return mlvlsi.BuildRequest{
		Family: mlvlsi.FamilySpec{Name: it.family, Params: it.params},
		Layers: it.layers,
	}
}

func (it item) String() string {
	return fmt.Sprintf("%s%v/L=%d", it.family, it.params, it.layers)
}

// op is one operation of a pass: the item it requests and, on the serve
// workloads, the request body spelling it.
type op struct {
	item int
	body []byte
}

// plan is a workload's items and one pass over them.
type plan struct {
	workload string
	items    []item
	ops      []op
}

// bytes renders the pass as the exact bytes the benchmark hands to the
// program, so tests can compare operation sequences across seeds.
func (p *plan) bytes() []byte {
	var b bytes.Buffer
	for _, o := range p.ops {
		fmt.Fprintf(&b, "%s\t%s\n", p.items[o.item], o.body)
	}
	return b.Bytes()
}

// newPlan builds the workload's items and its seeded pass.
func newPlan(workload string, seed int64) (*plan, error) {
	defaults := registryDefaults()
	rng := rand.New(rand.NewSource(seed))
	p := &plan{workload: workload}
	switch workload {
	case "serve-hit":
		p.items = expand(serveHitSpecs, serveHitLayers, defaults)
		for i := range p.items {
			for range hitSpellings {
				p.ops = append(p.ops, op{item: i})
			}
		}
		rng.Shuffle(len(p.ops), func(a, b int) { p.ops[a], p.ops[b] = p.ops[b], p.ops[a] })
		for k := range p.ops {
			p.ops[k].body = spell(rng, p.items[p.ops[k].item], defaults, true)
		}
	case "serve-miss":
		p.items = expand(serveMissSpecs, serveMissLayers, defaults)
		// The cycle order does not take the seed: which keys the cache
		// holds when a window ends, and so live_heap_mb, must not depend
		// on it.
		perm := rand.New(rand.NewSource(1)).Perm(len(p.items))
		for range missCycles {
			for _, i := range perm {
				// Spellings omit the workers knob: it changes how a miss
				// builds, and the seed must not change the work.
				p.ops = append(p.ops, op{item: i, body: spell(rng, p.items[i], defaults, false)})
			}
		}
	case "lib-sweep":
		var specs []spec
		for _, f := range mlvlsi.Families() {
			specs = append(specs, spec{f.Name, libSweepParams[f.Name]})
		}
		p.items = expand(specs, libSweepLayers, defaults)
		for range libRounds {
			for _, i := range rng.Perm(len(p.items)) {
				p.ops = append(p.ops, op{item: i})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", workload, workloadNames)
	}
	return p, nil
}

// registryDefaults maps family name to parameter name to registry default.
func registryDefaults() map[string]map[string]int {
	out := make(map[string]map[string]int)
	for _, f := range mlvlsi.Families() {
		d := make(map[string]int, len(f.Params))
		for _, ps := range f.Params {
			d[ps.Name] = ps.Default
		}
		out[f.Name] = d
	}
	return out
}

// expand crosses specs with layer counts, filling every parameter the spec
// leaves out with its registry default.
func expand(specs []spec, layers []int, defaults map[string]map[string]int) []item {
	var items []item
	for _, s := range specs {
		for _, l := range layers {
			params := make(map[string]int, len(defaults[s.family]))
			for name, v := range defaults[s.family] {
				params[name] = v
			}
			for name, v := range s.params {
				params[name] = v
			}
			items = append(items, item{family: s.family, params: params, layers: l})
		}
	}
	return items
}

// spell writes one JSON body for it, choosing at random: the order of the
// top-level and family fields, the order of the parameters, which defaulted
// parameters to spell out, whether to spell out layers=2, which key-blind
// execution knobs to add (workers only when withWorkers), and the
// whitespace. Every spelling names the same content key.
func spell(rng *rand.Rand, it item, defaults map[string]map[string]int, withWorkers bool) []byte {
	colon, comma := ":", ","
	if rng.Intn(2) == 0 {
		colon, comma = ": ", ", "
	}
	object := func(fields []string) string {
		rng.Shuffle(len(fields), func(a, b int) { fields[a], fields[b] = fields[b], fields[a] })
		var b bytes.Buffer
		b.WriteByte('{')
		for i, f := range fields {
			if i > 0 {
				b.WriteString(comma)
			}
			b.WriteString(f)
		}
		b.WriteByte('}')
		return b.String()
	}
	field := func(name, value string) string { return strconv.Quote(name) + colon + value }

	names := make([]string, 0, len(it.params))
	for name := range it.params {
		names = append(names, name)
	}
	sort.Strings(names)
	var params []string
	for _, name := range names {
		v := it.params[name]
		if v == defaults[it.family][name] && rng.Intn(2) == 0 {
			continue
		}
		params = append(params, field(name, strconv.Itoa(v)))
	}
	family := object([]string{field("name", strconv.Quote(it.family)), field("params", object(params))})

	top := []string{field("family", family)}
	if it.layers != 2 || rng.Intn(2) == 0 {
		top = append(top, field("layers", strconv.Itoa(it.layers)))
	}
	knobs := []string{
		field("node_side", "0"),
		field("folded_rows", "false"),
		field("max_cells", strconv.Itoa(1<<30)),
		field("dense_check_cells", "0"),
		field("verify_mem_bytes", "0"),
	}
	if withWorkers {
		knobs = append(knobs, field("workers", strconv.Itoa(rng.Intn(3))))
	}
	for _, k := range knobs {
		if rng.Intn(3) == 0 {
			top = append(top, k)
		}
	}
	return []byte(object(top))
}
