package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Axis is one swept parameter of a Grid: a param name plus the value
// list in exactly one of the typed slots. Integer params take Ints,
// probability-like params take Floats, enumeration params take
// Strings.
type Axis struct {
	// Param names the Spec field to sweep: "size", "cycles",
	// "view_size", "shards" or "repeats" (Ints); "loss_prob",
	// "crash_fraction" or "adversary_fraction" (Floats); "selector",
	// "topology", "wait", "loss" or "behavior" (Strings). The adversary
	// params materialize Spec.Adversary when the base leaves it nil.
	Param string `json:"param"`
	// Ints, Floats and Strings carry the swept values; exactly one
	// must be non-empty.
	Ints    []int     `json:"ints,omitempty"`
	Floats  []float64 `json:"floats,omitempty"`
	Strings []string  `json:"strings,omitempty"`
}

// length returns the number of swept values.
func (a Axis) length() int {
	return len(a.Ints) + len(a.Floats) + len(a.Strings)
}

// validate checks the axis shape: a known param and exactly one typed
// value list of the matching type.
func (a Axis) validate() error {
	filled := 0
	for _, n := range []int{len(a.Ints), len(a.Floats), len(a.Strings)} {
		if n > 0 {
			filled++
		}
	}
	if filled != 1 {
		return fmt.Errorf("scenario: axis %q needs values in exactly one of ints, floats or strings", a.Param)
	}
	switch a.Param {
	case "size", "cycles", "view_size", "shards", "repeats":
		if len(a.Ints) == 0 {
			return fmt.Errorf("scenario: axis %q sweeps an integer param; use ints", a.Param)
		}
	case "loss_prob", "crash_fraction", "adversary_fraction":
		if len(a.Floats) == 0 {
			return fmt.Errorf("scenario: axis %q sweeps a float param; use floats", a.Param)
		}
	case "selector", "topology", "wait", "loss", "behavior":
		if len(a.Strings) == 0 {
			return fmt.Errorf("scenario: axis %q sweeps a string param; use strings", a.Param)
		}
		// Enum axes are validated up front so a typo fails before any
		// cell runs, with the enum's own error message.
		for _, v := range a.Strings {
			var err error
			switch a.Param {
			case "selector":
				_, err = ParseSelector(v)
			case "topology":
				_, err = ParseTopology(v)
			case "wait":
				_, err = ParseWait(v)
			case "loss":
				_, err = ParseLoss(v)
			case "behavior":
				_, err = ParseBehavior(v)
			}
			if err != nil {
				return fmt.Errorf("scenario: axis %q: %w", a.Param, err)
			}
		}
	default:
		return fmt.Errorf("scenario: unknown axis param %q", a.Param)
	}
	return nil
}

// apply sets the axis's i-th value on the spec and returns the
// "param=value" label fragment.
func (a Axis) apply(s *Spec, i int) string {
	switch {
	case len(a.Ints) > 0:
		v := a.Ints[i]
		switch a.Param {
		case "size":
			s.Size = v
		case "cycles":
			s.Cycles = v
		case "view_size":
			s.ViewSize = v
		case "shards":
			s.Shards = v
		case "repeats":
			s.Repeats = v
		}
		return a.Param + "=" + strconv.Itoa(v)
	case len(a.Floats) > 0:
		v := a.Floats[i]
		switch a.Param {
		case "loss_prob":
			s.LossProb = v
		case "crash_fraction":
			s.CrashFraction = v
		case "adversary_fraction":
			adv := adversary(s)
			adv.Fraction = v
		}
		return a.Param + "=" + strconv.FormatFloat(v, 'g', -1, 64)
	default:
		// The labels use the raw swept string (identical to the enum's
		// wire name — validate checked it parses), keeping SeedTag
		// derivations byte-identical to the stringly-typed engine.
		v := a.Strings[i]
		switch a.Param {
		case "selector":
			s.Selector, _ = ParseSelector(v)
		case "topology":
			s.Topology, _ = ParseTopology(v)
		case "wait":
			s.Wait, _ = ParseWait(v)
		case "loss":
			s.Loss, _ = ParseLoss(v)
		case "behavior":
			adversary(s).Behavior, _ = ParseBehavior(v)
		}
		return a.Param + "=" + v
	}
}

// adversary returns the spec's own AdversarySpec for axis mutation,
// cloning the base's (Expand copies specs shallowly, so writing
// through an inherited pointer would leak into every other cell) or
// materializing a fresh one.
func adversary(s *Spec) *AdversarySpec {
	if s.Adversary == nil {
		s.Adversary = &AdversarySpec{}
	} else {
		cp := *s.Adversary
		s.Adversary = &cp
	}
	return s.Adversary
}

// Grid is a base Spec crossed with swept Axes. Expand produces one
// concrete Spec per point of the cross-product.
type Grid struct {
	Base Spec   `json:"base"`
	Axes []Axis `json:"axes,omitempty"`
}

// Expand returns the cross-product of the grid in row-major order (the
// first axis varies slowest), with every resulting spec validated.
// Each cell gets a canonical Label ("selector=seq,size=1000") and, when
// axes are present, its own deterministic Seed — Base.Seed XOR
// SeedTag(label) — so every cell draws an independent stream while the
// whole grid stays reproducible from one seed. A grid with no axes
// expands to the base spec with its seed untouched.
func (g Grid) Expand() ([]Spec, error) {
	for _, a := range g.Axes {
		if err := a.validate(); err != nil {
			return nil, err
		}
	}
	total := 1
	for _, a := range g.Axes {
		total *= a.length()
	}
	if total == 0 {
		return nil, fmt.Errorf("scenario: grid axis with no values")
	}
	out := make([]Spec, 0, total)
	idx := make([]int, len(g.Axes))
	for {
		spec := g.Base
		parts := make([]string, len(g.Axes))
		for d, a := range g.Axes {
			parts[d] = a.apply(&spec, idx[d])
		}
		if len(g.Axes) > 0 {
			spec.Label = strings.Join(parts, ",")
			spec.Seed = g.Base.Seed ^ SeedTag(parts...)
		}
		if _, err := spec.normalized(); err != nil {
			return nil, err
		}
		out = append(out, spec)
		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < g.Axes[d].length() {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return out, nil
		}
	}
}

// SeedTag hashes label fragments into a 64-bit seed offset (FNV-1a
// over the fragments joined with "|"), so every grid cell — and every
// figure combination — draws an independent random stream. Grid cells
// tag their "param=value" fragments; cmd/figures tags raw values
// ("rand", "complete", "1000"), the historical figure drivers'
// derivation, so the same sweep seeded both ways draws different
// streams.
func SeedTag(parts ...string) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for i, p := range parts {
		if i > 0 {
			mix("|")
		}
		mix(p)
	}
	return h
}

// ParseFile decodes a scenario file: either a Grid ({"base": {...},
// "axes": [...]}) or a bare Spec, detected by the presence of a
// top-level "base" key. Unknown fields are rejected so typos in
// hand-authored scenarios fail loudly instead of running the defaults.
func ParseFile(data []byte) (Grid, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return Grid{}, fmt.Errorf("scenario: parse file: %w", err)
	}
	if _, isGrid := top["base"]; isGrid {
		var g Grid
		if err := strictUnmarshal(data, &g); err != nil {
			return Grid{}, fmt.Errorf("scenario: parse grid: %w", err)
		}
		return g, nil
	}
	var s Spec
	if err := strictUnmarshal(data, &s); err != nil {
		return Grid{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	return Grid{Base: s}, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
