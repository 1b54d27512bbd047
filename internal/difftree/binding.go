package difftree

import (
	"sort"
	"strconv"
	"strings"
)

// BindValue parameterizes a single choice node (paper §3.1):
//
//	ANY    — Index selects the child subtree.
//	OPT    — Present reports whether the child exists.
//	VAL    — Lit is the literal text, LitKind its literal kind.
//	MULTI  — Reps holds one nested Binding per repetition of the child
//	         pattern (covering the choice nodes inside the pattern).
//	SUBSET — Indices lists the chosen children in ascending order.
type BindValue struct {
	Index   int
	Present bool
	Lit     string
	LitKind Kind
	Reps    []Binding
	Indices []int
}

// Binding maps choice-node IDs to their parameterization. Choice nodes
// nested under a MULTI are bound inside the MULTI's per-repetition Bindings
// rather than at top level, because each repetition re-instantiates them.
type Binding map[int]BindValue

// Clone deep-copies a binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v.clone()
	}
	return out
}

// Clone deep-copies a bind value.
func (v BindValue) Clone() BindValue { return v.clone() }

func (v BindValue) clone() BindValue {
	c := v
	if v.Reps != nil {
		c.Reps = make([]Binding, len(v.Reps))
		for i, r := range v.Reps {
			c.Reps[i] = r.Clone()
		}
	}
	if v.Indices != nil {
		c.Indices = append([]int(nil), v.Indices...)
	}
	return c
}

// Key renders a canonical string for the bind value, used to union bindings
// per node and to compare the values a widget or interaction must express.
func (v BindValue) Key() string {
	var b strings.Builder
	v.key(&b)
	return b.String()
}

func (v BindValue) key(b *strings.Builder) {
	switch {
	case v.Reps != nil:
		b.WriteByte('[')
		for i, r := range v.Reps {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(r.KeyString())
		}
		b.WriteByte(']')
	case v.Indices != nil:
		b.WriteByte('{')
		for i, ix := range v.Indices {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(ix))
		}
		b.WriteByte('}')
	case v.Lit != "" || v.LitKind != KindInvalid:
		// The literal is length-prefixed so user-controlled text (textbox
		// bindings) cannot forge the key's structural separators and make
		// two distinct binding states render the same canonical key — the
		// interaction result cache compares these keys for exact equality.
		b.WriteString(v.LitKind.String())
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(len(v.Lit)))
		b.WriteByte(':')
		b.WriteString(v.Lit)
	default:
		b.WriteByte('i')
		b.WriteString(strconv.Itoa(v.Index))
		b.WriteByte('/')
		b.WriteString(strconv.FormatBool(v.Present))
	}
}

// KeyString renders a canonical string for an entire binding.
func (b Binding) KeyString() string {
	ids := make([]int, 0, len(b))
	for id := range b {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sb strings.Builder
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(strconv.Itoa(id))
		sb.WriteByte('=')
		v := b[id]
		v.key(&sb)
	}
	return sb.String()
}

// QueryBindings records, for each choice node (by ID), the set of distinct
// bind values needed to express the input queries (paper §3.2.4). Values is
// keyed by BindValue.Key for deduplication.
type QueryBindings struct {
	PerQuery []Binding                       // binding of each input query, in order
	Values   map[int]map[string]BindValue    // choice node ID -> distinct values
	Queries  map[int]map[string]map[int]bool // node ID -> value key -> query indices using it
}

// CollectQueryBindings unions per-query bindings into per-node value sets.
func CollectQueryBindings(perQuery []Binding) *QueryBindings {
	qb := &QueryBindings{
		PerQuery: perQuery,
		Values:   map[int]map[string]BindValue{},
		Queries:  map[int]map[string]map[int]bool{},
	}
	for qi, b := range perQuery {
		qb.addBinding(qi, b)
	}
	return qb
}

func (qb *QueryBindings) addBinding(qi int, b Binding) {
	for id, v := range b {
		k := v.Key()
		if qb.Values[id] == nil {
			qb.Values[id] = map[string]BindValue{}
			qb.Queries[id] = map[string]map[int]bool{}
		}
		qb.Values[id][k] = v
		if qb.Queries[id][k] == nil {
			qb.Queries[id][k] = map[int]bool{}
		}
		qb.Queries[id][k][qi] = true
		// MULTI repetitions carry nested bindings for inner choice nodes.
		for _, rep := range v.Reps {
			qb.addBinding(qi, rep)
		}
	}
}

// ValuesFor returns the distinct bind values recorded for a choice node.
func (qb *QueryBindings) ValuesFor(id int) []BindValue {
	m := qb.Values[id]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]BindValue, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
