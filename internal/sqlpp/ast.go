package sqlpp

import (
	"github.com/ideadb/idea/internal/adm"
)

// Expr is any SQL++ expression node.
type Expr interface{ exprNode() }

// Literal is a constant value.
type Literal struct {
	Val adm.Value
}

// Ident is a variable reference (a FROM alias, LET binding, function
// parameter, or dataset name in FROM position).
type Ident struct {
	Name string
}

// Param is a statement parameter reference: $name for named parameters
// or $1, $2, ... for positional ones. Name holds the text after the
// `$`; Off is the byte offset of the reference (for error reporting).
// Values are bound at execution time, never at parse time, so a
// parsed statement is reusable across bindings.
type Param struct {
	Name string
	Off  int
}

// FieldAccess is base.field.
type FieldAccess struct {
	Base  Expr
	Field string
}

// IndexAccess is base[index].
type IndexAccess struct {
	Base  Expr
	Index Expr
}

// Call is a (possibly namespaced) function call: fn(args) or ns#fn(args).
// Star marks count(*).
type Call struct {
	Ns   string
	Name string
	Args []Expr
	Star bool
}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" | "-"
	X  Expr
}

// Binary is a binary operation. Op is one of OR AND = != < <= > >= + - * / %.
type Binary struct {
	Op   string
	L, R Expr
}

// WhenClause is one WHEN ... THEN ... arm of a CASE.
type WhenClause struct {
	When Expr
	Then Expr
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr // nil → NULL
}

// Exists is EXISTS(subquery).
type Exists struct {
	Sub *SelectExpr
}

// In is x [NOT] IN coll, where coll is any collection-valued expression
// (subquery or array).
type In struct {
	Not  bool
	X    Expr
	Coll Expr
}

// SubqueryExpr wraps a parenthesized SELECT used as an expression; its
// value is the array of result items.
type SubqueryExpr struct {
	Sel *SelectExpr
}

// ArrayCtor is [e1, e2, ...].
type ArrayCtor struct {
	Elems []Expr
}

// ObjectField is one key:value pair of an object constructor.
type ObjectField struct {
	Key string
	Val Expr
}

// ObjectCtor is {"k": v, ...}.
type ObjectCtor struct {
	Fields []ObjectField
}

func (*Literal) exprNode()      {}
func (*Ident) exprNode()        {}
func (*Param) exprNode()        {}
func (*FieldAccess) exprNode()  {}
func (*IndexAccess) exprNode()  {}
func (*Call) exprNode()         {}
func (*Unary) exprNode()        {}
func (*Binary) exprNode()       {}
func (*CaseExpr) exprNode()     {}
func (*Exists) exprNode()       {}
func (*In) exprNode()           {}
func (*SubqueryExpr) exprNode() {}
func (*ArrayCtor) exprNode()    {}
func (*ObjectCtor) exprNode()   {}

// LetBinding is LET name = expr.
type LetBinding struct {
	Name string
	Expr Expr
}

// FromClause is one FROM term: a source expression and its alias (the
// alias defaults to the trailing identifier of the source).
type FromClause struct {
	Source Expr
	Alias  string
}

// Projection is one SELECT-list item: expr [AS alias] or expr.* (Star).
type Projection struct {
	Expr  Expr
	Alias string
	Star  bool // expr.* — splice the object's fields into the output
}

// GroupKey is one GROUP BY term: expr [AS alias].
type GroupKey struct {
	Expr  Expr
	Alias string
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectExpr is a full query block. Both LET placements are supported:
// leading LETs (the paper's UDF style, before SELECT) and FROM-clause
// LETs (after FROM). SelectValue and Projections are mutually exclusive.
type SelectExpr struct {
	Lets        []LetBinding
	Distinct    bool
	SelectValue Expr
	Projections []Projection
	From        []FromClause
	FromLets    []LetBinding
	Where       Expr
	GroupBy     []GroupKey
	OrderBy     []OrderKey
	Limit       Expr
}

func (*SelectExpr) exprNode() {}

// Inspect walks the tree rooted at e depth-first in source order: it
// calls f(n) for each node n and, if f returns true, walks n's children
// next. A SELECT block's children are its clauses' expressions in the
// order Lets, SelectValue, Projections, From, FromLets, Where, GroupBy,
// OrderBy, Limit. Nil children, and nil selects under Exists and
// SubqueryExpr, are skipped.
//
// Inspect is the one place that knows which expressions each node holds:
// parameter collection and every planner analysis walk through it.
func Inspect(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch n := e.(type) {
	case *FieldAccess:
		Inspect(n.Base, f)
	case *IndexAccess:
		Inspect(n.Base, f)
		Inspect(n.Index, f)
	case *Call:
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *Unary:
		Inspect(n.X, f)
	case *Binary:
		Inspect(n.L, f)
		Inspect(n.R, f)
	case *CaseExpr:
		Inspect(n.Operand, f)
		for _, w := range n.Whens {
			Inspect(w.When, f)
			Inspect(w.Then, f)
		}
		Inspect(n.Else, f)
	case *Exists:
		if n.Sub != nil {
			Inspect(n.Sub, f)
		}
	case *In:
		Inspect(n.X, f)
		Inspect(n.Coll, f)
	case *SubqueryExpr:
		if n.Sel != nil {
			Inspect(n.Sel, f)
		}
	case *ArrayCtor:
		for _, el := range n.Elems {
			Inspect(el, f)
		}
	case *ObjectCtor:
		for _, fld := range n.Fields {
			Inspect(fld.Val, f)
		}
	case *SelectExpr:
		for _, l := range n.Lets {
			Inspect(l.Expr, f)
		}
		Inspect(n.SelectValue, f)
		for _, p := range n.Projections {
			Inspect(p.Expr, f)
		}
		for _, fc := range n.From {
			Inspect(fc.Source, f)
		}
		for _, l := range n.FromLets {
			Inspect(l.Expr, f)
		}
		Inspect(n.Where, f)
		for _, gk := range n.GroupBy {
			Inspect(gk.Expr, f)
		}
		for _, ob := range n.OrderBy {
			Inspect(ob.Expr, f)
		}
		Inspect(n.Limit, f)
	}
}

// Statement is any top-level parsed statement: a node that embeds
// stmtBase. Pos reports the byte offset of the statement's first token
// in the parsed source, so executors can point errors at the failing
// statement.
type Statement interface {
	setPos(at int)
	Pos() int
}

// stmtBase carries the source position shared by every statement node.
type stmtBase struct {
	At int // byte offset of the statement's first token
}

// Pos returns the statement's byte offset in the parsed source.
func (s stmtBase) Pos() int { return s.At }

// setPos records the statement's offset; the parser sets it.
func (s *stmtBase) setPos(at int) { s.At = at }

// CreateType is CREATE TYPE name AS OPEN|CLOSED { field: type, ... }.
type CreateType struct {
	stmtBase
	Name   string
	Open   bool
	Fields []adm.FieldDef
}

// CreateDataset is CREATE DATASET name(Type) PRIMARY KEY field.
type CreateDataset struct {
	stmtBase
	Name       string
	TypeName   string
	PrimaryKey string
}

// CreateIndex is CREATE INDEX name ON dataset(field) TYPE BTREE|RTREE.
type CreateIndex struct {
	stmtBase
	Name    string
	Dataset string
	Field   string
	Kind    string // "BTREE" | "RTREE"
}

// CreateFunction is CREATE FUNCTION name(params) { body }.
type CreateFunction struct {
	stmtBase
	Name   string
	Params []string
	Body   Expr
}

// CreateFeed is CREATE FEED name WITH { json config }.
type CreateFeed struct {
	stmtBase
	Name   string
	Config adm.Value
}

// ConnectFeed is CONNECT FEED f TO DATASET d [APPLY FUNCTION fn].
type ConnectFeed struct {
	stmtBase
	Feed     string
	Dataset  string
	Function string
}

// StartFeed is START FEED name.
type StartFeed struct {
	stmtBase
	Name string
}

// StopFeed is STOP FEED name.
type StopFeed struct {
	stmtBase
	Name string
}

// Insert is INSERT/UPSERT INTO dataset ( source ).
type Insert struct {
	stmtBase
	Dataset string
	Source  Expr
	Upsert  bool
}

// Query is a bare SELECT statement.
type Query struct {
	stmtBase
	Sel *SelectExpr
}
