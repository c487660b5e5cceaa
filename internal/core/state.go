package core

import (
	"fmt"
	"math"
)

// Field describes one gossiped quantity: how it is initialized from a
// node's local value and how it is merged during an exchange. Gossiping
// several fields in one exchange is how the protocol computes composite
// aggregates (variance needs the average of a and of a²; size estimation
// needs the average of an indicator) without extra rounds.
type Field struct {
	// Name labels the field in diagnostics.
	Name string
	// Agg is the elementary aggregation applied to this field.
	Agg Aggregate
	// Init maps a node's local value to the field's initial
	// approximation at protocol (or epoch) start.
	Init func(localValue float64) float64
}

// State is a node's vector of field approximations, merged field-wise.
type State []float64

// Schema is an ordered set of fields gossiped together. A Schema is
// immutable after construction and safe for concurrent use.
type Schema struct {
	fields []Field
}

// NewSchema builds a schema from the given fields. At least one field is
// required and names must be unique so that lookups are unambiguous.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: schema needs at least one field")
	}
	seen := make(map[string]struct{}, len(fields))
	for _, f := range fields {
		if f.Init == nil {
			return nil, fmt.Errorf("core: field %q has nil Init", f.Name)
		}
		if _, dup := seen[f.Name]; dup {
			return nil, fmt.Errorf("core: duplicate field name %q", f.Name)
		}
		seen[f.Name] = struct{}{}
	}
	cp := make([]Field, len(fields))
	copy(cp, fields)
	return &Schema{fields: cp}, nil
}

// MustSchema is NewSchema for statically known field sets; it panics on
// error and is intended for package-level construction of the stock
// schemas below.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Agg returns field i's aggregation.
func (s *Schema) Agg(i int) Aggregate { return s.fields[i].Agg }

// FieldNames returns the field names in schema order.
func (s *Schema) FieldNames() []string {
	out := make([]string, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Name
	}
	return out
}

// Index returns the position of the named field, or an error naming the
// available fields.
func (s *Schema) Index(name string) (int, error) {
	for i, f := range s.fields {
		if f.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: schema has no field %q (have %v)", name, s.FieldNames())
}

// InitState builds a node's initial state from its local value.
func (s *Schema) InitState(localValue float64) State {
	st := make(State, len(s.fields))
	for i, f := range s.fields {
		st[i] = f.Init(localValue)
	}
	return st
}

// Merge returns the field-wise merge of two states. Both peers of an
// exchange adopt the identical result, preserving the paper's symmetry.
func (s *Schema) Merge(a, b State) State {
	out := make(State, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Agg.Merge(a[i], b[i])
	}
	return out
}

// MergeInto runs one whole exchange in place between a, the initiator,
// and b, its peer: the arithmetic of MergeExchange on b followed by
// ApplyTransfer on a, in one pass. Both end on the field-wise merge (up
// to rounding, which Σ a+b does not suffer: an Average field moves d
// from one side to the other).
func (s *Schema) MergeInto(a, b State) {
	for i, f := range s.fields {
		if f.Agg == Average {
			d := (b[i] - a[i]) / 2
			b[i] -= d
			a[i] += d
			continue
		}
		pre := b[i]
		b[i] = f.Agg.Merge(pre, a[i])
		a[i] = f.Agg.Merge(a[i], pre)
	}
}

// MergeExchange performs the passive half of one push-pull exchange in
// place, in transfer form: state is the passive node's b, inbound the
// pushed a. An Average field computes the transfer d = (b − a)/2, adopts
// b − d and leaves d in inbound; Min and Max adopt the merge and leave
// the pre-merge b, since those merges are idempotent. inbound is then
// exactly the pull reply's payload, and the initiator folds it into
// whatever its state is when the reply lands (ApplyTransfer), so Σ is
// conserved even when that state moved after the push — the additive
// correction of push-sum (Kempe, Dobra & Gehrke 2003) and flow updating
// (Jesus, Baquero & Almeida 2009). Rewriting the inbound buffer lets
// the engine turn a received push's Fields buffer directly into the
// reply's with zero allocation.
func (s *Schema) MergeExchange(state, inbound State) {
	for i, f := range s.fields {
		pre := state[i]
		if f.Agg == Average {
			d := (pre - inbound[i]) / 2
			state[i] = pre - d
			inbound[i] = d
			continue
		}
		state[i] = f.Agg.Merge(pre, inbound[i])
		inbound[i] = pre
	}
}

// ApplyTransfer performs the active half of one exchange: it folds the
// reply payload MergeExchange left (a transfer for an Average field,
// the peer's pre-merge value for Min and Max) into state.
func (s *Schema) ApplyTransfer(state, payload State) {
	for i, f := range s.fields {
		if f.Agg == Average {
			state[i] += payload[i]
		} else {
			state[i] = f.Agg.Merge(state[i], payload[i])
		}
	}
}

// identity passes the local value through unchanged.
func identity(v float64) float64 { return v }

// AverageSchema gossips the plain average of the local values.
func AverageSchema() *Schema {
	return MustSchema(Field{Name: "avg", Agg: Average, Init: identity})
}

// SummarySchema gossips five fields at once — mean, mean of squares, min,
// max and a size indicator — so one protocol instance yields the full
// summary the paper's introduction motivates (average and extremal load,
// node count, totals).
//
// leader marks the single node whose size-indicator field starts at 1;
// everyone else starts at 0 (§4).
func SummarySchema() *Schema {
	return MustSchema(
		Field{Name: "avg", Agg: Average, Init: identity},
		Field{Name: "avgsq", Agg: Average, Init: func(v float64) float64 { return v * v }},
		Field{Name: "min", Agg: Min, Init: identity},
		Field{Name: "max", Agg: Max, Init: identity},
		Field{Name: "size", Agg: Average, Init: func(float64) float64 { return 0 }},
	)
}

// Summary is the decoded result of a SummarySchema state.
type Summary struct {
	Mean     float64 // average of local values
	Variance float64 // E[a²] − E[a]², clamped at 0
	Min      float64 // global minimum
	Max      float64 // global maximum
	Size     float64 // network size estimate (NaN until the indicator mixes)
	Sum      float64 // Mean · Size
}

// DecodeSummary interprets a SummarySchema state. The size estimate is
// 1/x_size per §4; a zero indicator (leaderless instance or unconverged
// state) decodes to NaN rather than +Inf so downstream statistics can
// filter it.
func DecodeSummary(schema *Schema, st State) (Summary, error) {
	if schema.Len() != len(st) {
		return Summary{}, fmt.Errorf("core: state has %d fields, schema wants %d", len(st), schema.Len())
	}
	idx := func(name string) int {
		i, err := schema.Index(name)
		if err != nil {
			i = -1
		}
		return i
	}
	avgI, sqI, minI, maxI, sizeI := idx("avg"), idx("avgsq"), idx("min"), idx("max"), idx("size")
	if avgI < 0 || sqI < 0 || minI < 0 || maxI < 0 || sizeI < 0 {
		return Summary{}, fmt.Errorf("core: schema %v is not a summary schema", schema.FieldNames())
	}
	sum := Summary{Mean: st[avgI], Min: st[minI], Max: st[maxI]}
	if v := st[sqI] - st[avgI]*st[avgI]; v > 0 {
		sum.Variance = v
	}
	if st[sizeI] > 0 {
		sum.Size = 1 / st[sizeI]
		sum.Sum = sum.Mean * sum.Size
	} else {
		sum.Size = math.NaN()
		sum.Sum = math.NaN()
	}
	return sum, nil
}

// SizeEstimate converts a converged size-indicator approximation x to the
// network size estimate 1/x (§4: exactly one node starts at 1, the rest
// at 0, so the true average is 1/N). Non-positive x returns NaN.
func SizeEstimate(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	return 1 / x
}
