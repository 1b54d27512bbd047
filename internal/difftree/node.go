// Package difftree implements the Difftree structure from the PI2 paper
// (SIGMOD 2022): abstract syntax trees extended with choice nodes (ANY, OPT,
// VAL, MULTI, SUBSET) that encode systematic variations between queries.
//
// A Difftree with no choice nodes is an ordinary AST. Every node is a
// *Node; the Kind identifies the grammar production the node was built
// from, Label carries the token payload (identifier, operator, literal
// text), and Children the sub-productions.
package difftree

import (
	"strings"
	"sync/atomic"
)

// Kind identifies the grammar production rule a node corresponds to.
type Kind uint8

const (
	// KindInvalid is the zero Kind and is never produced by the parser.
	KindInvalid Kind = iota

	// Statement structure. A Query node always has exactly seven children:
	// SelectList, From, Where, GroupBy, Having, OrderBy, Limit. Missing
	// optional clauses are KindNone placeholders so that trees from
	// different queries align positionally.
	KindQuery
	KindSelectList // list node; Label "distinct" when SELECT DISTINCT
	KindSelectItem // children: [expr, alias]; alias is KindNone or KindIdent
	KindStar       // '*'
	KindFrom       // list node of table refs and join steps
	KindTableRef   // children: [source, alias]; source is KindIdent or KindQuery
	KindJoin       // Label: "inner", "left", "right" or "full"; children: [TableRef, on-expr]
	KindWhere      // children: [expr]
	KindGroupBy    // list node of expressions
	KindHaving     // children: [expr]
	KindOrderBy    // list node of order items
	KindOrderItem  // children: [expr]; Label "asc" or "desc"
	KindLimit      // Label: row count literal

	// Expressions.
	KindAnd      // list node of conjuncts
	KindOr       // list node of disjuncts
	KindNot      // children: [expr]
	KindBinary   // Label: one of = <> < > <= >= + - * / ; children: [l, r]
	KindBetween  // children: [expr, lo, hi]
	KindIn       // Label "in" or "not in"; children: [expr, ExprList-or-Query]
	KindExprList // list node of expressions (IN value lists)
	KindFunc     // Label: function name; children: argument expressions
	KindIdent    // Label: (possibly dotted) identifier
	KindNumber   // Label: numeric literal text
	KindString   // Label: string literal contents (no quotes)
	KindNone     // the empty subtree (missing optional clause / alias)

	// Choice nodes (paper §3.1). These correspond to PEG production rules:
	//   ANY    -> c1 | ... | ck        chooses one child
	//   OPT    -> c?                   child or empty
	//   VAL    -> literal              pass-through literal pattern
	//   MULTI  -> c (sep c)*           one-or-more repetitions of c
	//   SUBSET -> c1? .. ck?           ordered subset of children
	KindAny
	KindOpt
	KindVal // Label: base domain, "num" or "str"; children: original literals
	KindMulti
	KindSubset
)

var kindNames = map[Kind]string{
	KindInvalid: "invalid", KindQuery: "query", KindSelectList: "selectlist",
	KindSelectItem: "selectitem", KindStar: "star", KindFrom: "from",
	KindTableRef: "tableref", KindJoin: "join", KindWhere: "where", KindGroupBy: "groupby",
	KindHaving: "having", KindOrderBy: "orderby", KindOrderItem: "orderitem",
	KindLimit: "limit", KindAnd: "and", KindOr: "or", KindNot: "not",
	KindBinary: "binary", KindBetween: "between", KindIn: "in",
	KindExprList: "exprlist", KindFunc: "func", KindIdent: "ident",
	KindNumber: "number", KindString: "string", KindNone: "none",
	KindAny: "ANY", KindOpt: "OPT", KindVal: "VAL", KindMulti: "MULTI",
	KindSubset: "SUBSET",
}

// String returns the lowercase production-rule name of the kind; choice node
// kinds render uppercase as in the paper.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind?"
}

// IsChoice reports whether the kind is one of the four choice-node kinds
// (counting OPT, the two-child special case of ANY, separately).
func (k Kind) IsChoice() bool {
	switch k {
	case KindAny, KindOpt, KindVal, KindMulti, KindSubset:
		return true
	}
	return false
}

// IsList reports whether nodes of this kind hold a variable-length,
// order-significant child sequence. List kinds are the only positions where
// MULTI and SUBSET nodes (and dropped OPT nodes) may change the child count.
func (k Kind) IsList() bool {
	switch k {
	case KindSelectList, KindFrom, KindGroupBy, KindOrderBy, KindAnd, KindOr, KindExprList:
		return true
	}
	return false
}

// IsLiteral reports whether the kind is a literal leaf.
func (k Kind) IsLiteral() bool { return k == KindNumber || k == KindString }

// Node is one vertex of an AST or Difftree.
type Node struct {
	Kind     Kind
	Label    string
	Children []*Node

	// ID is a tree-unique identifier assigned by Renumber in DFS preorder.
	// Choice-node IDs key Binding maps; IDs are reassigned after every
	// transformation.
	ID int

	// hc memoizes the structural hash (see Hash); 0 means "not computed".
	// Accessed atomically so read-only trees may be hashed concurrently.
	hc uint64
}

// New constructs a node.
func New(k Kind, label string, children ...*Node) *Node {
	return &Node{Kind: k, Label: label, Children: children}
}

// NewNone returns a fresh empty-subtree placeholder.
func NewNone() *Node { return &Node{Kind: KindNone} }

// Ident returns an identifier leaf.
func Ident(name string) *Node { return &Node{Kind: KindIdent, Label: name} }

// Number returns a numeric literal leaf.
func Number(text string) *Node { return &Node{Kind: KindNumber, Label: text} }

// Str returns a string literal leaf.
func Str(text string) *Node { return &Node{Kind: KindString, Label: text} }

// Clone returns a deep copy of the subtree rooted at n, preserving IDs. Any
// memoized structural hashes carry over (the copy is structurally identical);
// callers that mutate the copy in place must invalidate the mutated nodes
// and their ancestors (see InvalidateHash).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Label: n.Label, ID: n.ID, hc: atomic.LoadUint64(&n.hc)}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports structural equality (kind, label, children), ignoring IDs.
func Equal(a, b *Node) bool {
	if a == nil || b == nil || a == b {
		return a == b
	}
	if a.Kind != b.Kind || a.Label != b.Label || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Walk visits the subtree in DFS preorder. Returning false from fn prunes
// the visited node's subtree (children are skipped).
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// WalkParent visits (node, parent, childIndex) triples in DFS preorder; the
// root is visited with parent nil and index -1. Returning false from fn
// prunes the node's subtree.
func (n *Node) WalkParent(fn func(node, parent *Node, idx int) bool) {
	var rec func(node, parent *Node, idx int)
	rec = func(node, parent *Node, idx int) {
		if !fn(node, parent, idx) {
			return
		}
		for i, c := range node.Children {
			rec(c, node, i)
		}
	}
	if n != nil {
		rec(n, nil, -1)
	}
}

// Renumber assigns DFS-preorder IDs starting at 0 and returns the number of
// nodes in the tree.
func (n *Node) Renumber() int {
	next := 0
	n.Walk(func(m *Node) bool {
		m.ID = next
		next++
		return true
	})
	return next
}

// ChoiceNodes returns the choice nodes of the tree in DFS preorder.
func (n *Node) ChoiceNodes() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Kind.IsChoice() {
			out = append(out, m)
		}
		return true
	})
	return out
}

// HasChoice reports whether the subtree contains any choice node.
func (n *Node) HasChoice() bool {
	found := false
	n.Walk(func(m *Node) bool {
		if m.Kind.IsChoice() {
			found = true
		}
		return !found
	})
	return found
}

// Size returns the number of nodes in the subtree.
func (n *Node) Size() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// Find returns the node with the given ID, or nil.
func (n *Node) Find(id int) *Node {
	var out *Node
	n.Walk(func(m *Node) bool {
		if m.ID == id {
			out = m
		}
		return out == nil
	})
	return out
}

// ParentOf returns the parent of target within the tree rooted at n, or nil
// if target is the root or not present.
func (n *Node) ParentOf(target *Node) *Node {
	var out *Node
	n.Walk(func(m *Node) bool {
		for _, c := range m.Children {
			if c == target {
				out = m
			}
		}
		return out == nil
	})
	return out
}

// String renders the subtree as an s-expression, e.g.
// (binary= (ident a) (number 1)). Useful in tests and error messages.
func (n *Node) String() string {
	var b strings.Builder
	n.sexpr(&b)
	return b.String()
}

func (n *Node) sexpr(b *strings.Builder) {
	if n == nil {
		b.WriteString("<nil>")
		return
	}
	if len(n.Children) == 0 {
		b.WriteByte('(')
		b.WriteString(n.Kind.String())
		if n.Label != "" {
			b.WriteByte(' ')
			b.WriteString(n.Label)
		}
		b.WriteByte(')')
		return
	}
	b.WriteByte('(')
	b.WriteString(n.Kind.String())
	if n.Label != "" {
		b.WriteString(" ")
		b.WriteString(n.Label)
	}
	for _, c := range n.Children {
		b.WriteByte(' ')
		c.sexpr(b)
	}
	b.WriteByte(')')
}
