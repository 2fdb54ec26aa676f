package mlvlsi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// Canonical wire forms. The constructions in this module are pure functions
// of (family, parameters, geometry options), which makes every request
// content-addressable: two requests that resolve to the same canonical form
// build byte-identical layouts. FamilySpec and BuildRequest carry that
// contract onto the wire — a stable JSON encoding (params in sorted name
// order), a Canonical() resolution step (defaults applied, every assignment
// validated), and a Key() content hash that is independent of map iteration
// order and of how the request was spelled. The layoutd daemon
// (internal/serve) keys its build cache on exactly this hash.

// Canonical returns the spec in canonical form: every omitted parameter
// replaced by its registry default and every assigned parameter validated,
// so the result names the same construction however the input was spelled.
// Unknown families, unknown parameter names, and out-of-range values are
// rejected with the same *ParamError BuildFamily reports.
func (s FamilySpec) Canonical() (FamilySpec, error) {
	fam := familyByName(s.Name)
	if fam == nil {
		return FamilySpec{}, &ParamError{Family: s.Name, Reason: "is not a registered family; see Families()"}
	}
	p, err := fam.resolveParams(s.Params)
	if err != nil {
		return FamilySpec{}, err
	}
	return FamilySpec{Name: s.Name, Params: p}, nil
}

// MarshalJSON encodes the spec with parameters in sorted name order, so the
// encoding of a given spec is stable across processes and map iteration
// orders — the property the Key content hash is built on.
func (s FamilySpec) MarshalJSON() ([]byte, error) {
	names := make([]string, 0, len(s.Params))
	for name := range s.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString(`{"name":`)
	nameJSON, err := json.Marshal(s.Name)
	if err != nil {
		return nil, err
	}
	b.Write(nameJSON)
	b.WriteString(`,"params":{`)
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		keyJSON, err := json.Marshal(name)
		if err != nil {
			return nil, err
		}
		b.Write(keyJSON)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(s.Params[name]))
	}
	b.WriteString("}}")
	return b.Bytes(), nil
}

// UnmarshalJSON decodes the wire form written by MarshalJSON. Unknown fields
// are rejected: the wire contract is closed, so a misspelled field fails
// loudly instead of silently building the default construction.
func (s *FamilySpec) UnmarshalJSON(data []byte) error {
	var raw struct {
		Name   string         `json:"name"`
		Params map[string]int `json:"params"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("mlvlsi: decoding FamilySpec: %w", err)
	}
	s.Name = raw.Name
	s.Params = raw.Params
	return nil
}

// Key returns the spec's content hash: 32 hex characters identifying the
// canonical form, stable across processes, map iteration orders, and
// spellings (omitted parameters hash identically to explicitly-assigned
// defaults). Specs that fail Canonical still get a deterministic key — of
// the raw sorted form, prefixed so it can never collide with a canonical
// one — but only canonical keys name a buildable construction; the serving
// layer canonicalizes (and rejects) before it ever consults a key.
func (s FamilySpec) Key() string {
	if c, err := s.Canonical(); err == nil {
		s = c
	} else {
		s = FamilySpec{Name: "!invalid:" + s.Name, Params: s.Params}
	}
	data, err := json.Marshal(s)
	if err != nil {
		// Marshal of a string/int map cannot fail; keep Key total anyway.
		data = []byte(s.Name)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// BuildRequest is the canonical wire form of one build: a family spec plus
// the JSON-serializable subset of Options. The two non-serializable Options
// fields — Context and Observer — are excluded by construction; attach them
// to the Options value the Options method returns (or pass a context to
// BuildSpec). The zero value of every field means what it means on Options:
// Layers 0 is the 2-layer Thompson default, Workers 0 is GOMAXPROCS,
// MaxCells 0 is unbudgeted.
type BuildRequest struct {
	Family FamilySpec `json:"family"`

	// Geometry fields: these select the constructed layout, and together
	// with the canonical family they are the input to Key.
	Layers     int  `json:"layers,omitempty"`
	NodeSide   int  `json:"node_side,omitempty"`
	FoldedRows bool `json:"folded_rows,omitempty"`

	// Execution knobs: these change how fast (or whether) the build runs,
	// never the constructed bytes, so Key ignores them — requests differing
	// only here share a cache slot.
	Workers        int `json:"workers,omitempty"`
	MaxCells       int `json:"max_cells,omitempty"`
	VerifyMemBytes int `json:"verify_mem_bytes,omitempty"`

	// DenseCheckCells is accepted so that existing request bodies still
	// decode under DisallowUnknownFields, and is otherwise ignored: the
	// verifier has a single engine and no dense-occupancy threshold.
	//
	// Deprecated: the knob it tuned is gone; leave it unset.
	DenseCheckCells int `json:"dense_check_cells,omitempty"`
}

// Options converts the request into an Options value. Context and Observer
// start nil — they are process-local and never travel on the wire.
func (r BuildRequest) Options() Options {
	return Options{
		Layers:         r.Layers,
		NodeSide:       r.NodeSide,
		FoldedRows:     r.FoldedRows,
		Workers:        r.Workers,
		MaxCells:       r.MaxCells,
		VerifyMemBytes: r.VerifyMemBytes,
	}
}

// Canonical resolves the request: Options-level fields validated, the family
// spec canonicalized, and Layers replaced by its effective value (0 → 2).
// Two requests with equal canonical forms build identical layouts under
// identical budgets.
func (r BuildRequest) Canonical() (BuildRequest, error) {
	if err := r.Options().validate(); err != nil {
		return BuildRequest{}, err
	}
	fam, err := r.Family.Canonical()
	if err != nil {
		return BuildRequest{}, err
	}
	r.Family = fam
	r.Layers = r.Options().layers()
	return r, nil
}

// Key returns the content hash of the layout this request builds: the
// canonical family plus the geometry fields (Layers at its effective value,
// NodeSide, FoldedRows). Execution knobs are excluded — see BuildRequest.
// Like FamilySpec.Key it is total and deterministic on invalid requests,
// which simply never enter a cache.
func (r BuildRequest) Key() string {
	fam := r.Family
	if c, err := fam.Canonical(); err == nil {
		fam = c
	} else {
		fam = FamilySpec{Name: "!invalid:" + fam.Name, Params: fam.Params}
	}
	famJSON, err := json.Marshal(fam)
	if err != nil {
		famJSON = []byte(fam.Name)
	}
	payload := fmt.Sprintf(`{"family":%s,"layers":%d,"node_side":%d,"folded_rows":%t}`,
		famJSON, r.Options().layers(), r.NodeSide, r.FoldedRows)
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:16])
}

// BuildSpec builds the layout a BuildRequest describes, under ctx's
// cooperative cancellation (nil means no cancellation). It is the
// request-shaped sibling of BuildFamily: the layoutd daemon and the cmd
// tools both go through it, so there is exactly one mapping from the wire
// form to the engines. Rejections keep their types: *ParamError for bad
// families, parameters, or option fields; *BudgetError for a MaxCells
// overrun; an error wrapping ErrCanceled once ctx is done.
func BuildSpec(ctx context.Context, req BuildRequest) (*Layout, error) {
	return BuildSpecObserved(ctx, req, nil)
}

// BuildSpecObserved is BuildSpec with observation: spans and counters from
// the build accumulate on obsv (nil disables observation at zero cost, as
// everywhere). The layoutd daemon routes every cache miss through it so one
// observer sees builds and cache traffic together.
func BuildSpecObserved(ctx context.Context, req BuildRequest, obsv *Observer) (*Layout, error) {
	return BuildSpecWith(ctx, req, obsv, nil)
}

// BuildSpecWith is BuildSpecObserved with a caller-owned scratch (see
// Options.Scratch for the ownership contract); nil borrows a pooled one for
// the build, and the constructed layout is the same either way. The layoutd
// daemon and the batch APIs route their builds through it to reuse one
// scratch across requests.
func BuildSpecWith(ctx context.Context, req BuildRequest, obsv *Observer, scratch *BuildScratch) (*Layout, error) {
	o := req.Options()
	o.Context = ctx
	o.Observer = obsv
	o.Scratch = scratch
	return BuildFamily(req.Family, o)
}
