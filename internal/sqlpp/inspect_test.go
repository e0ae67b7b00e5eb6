package sqlpp

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

// everyChild builds a tree that holds every expression node kind, with a
// distinct parameter $p1, $p2, … in every child slot, numbered in the
// order a depth-first source-order walk reaches them. A SELECT block's
// clauses are numbered Lets, SelectValue, Projections, From, FromLets,
// Where, GroupBy, OrderBy, Limit. The last element of the returned array
// is a SELECT block holding the last nine parameters.
func everyChild() (*ArrayCtor, []string) {
	var names []string
	p := func() Expr {
		names = append(names, fmt.Sprintf("p%d", len(names)+1))
		return &Param{Name: names[len(names)-1]}
	}
	sel := func() *SelectExpr {
		return &SelectExpr{
			Lets:        []LetBinding{{Name: "l", Expr: p()}},
			SelectValue: p(),
			Projections: []Projection{{Expr: p()}},
			From:        []FromClause{{Source: p(), Alias: "f"}},
			FromLets:    []LetBinding{{Name: "m", Expr: p()}},
			Where:       p(),
			GroupBy:     []GroupKey{{Expr: p()}},
			OrderBy:     []OrderKey{{Expr: p()}},
			Limit:       p(),
		}
	}
	root := &ArrayCtor{Elems: []Expr{
		&Literal{Val: adm.Int(1)},
		&Ident{Name: "x"},
		&FieldAccess{Base: p(), Field: "a"},
		&IndexAccess{Base: p(), Index: p()},
		&Call{Name: "f", Args: []Expr{p(), p()}},
		&Unary{Op: "NOT", X: p()},
		&Binary{Op: "+", L: p(), R: p()},
		&CaseExpr{Operand: p(), Whens: []WhenClause{{When: p(), Then: p()}, {When: p(), Then: p()}}, Else: p()},
		&Exists{Sub: sel()},
		&In{X: p(), Coll: p()},
		&SubqueryExpr{Sel: sel()},
		&ObjectCtor{Fields: []ObjectField{{Key: "a", Val: p()}, {Key: "b", Val: p()}}},
		sel(),
	}}
	return root, names
}

// emptySlot returns the path of the first child slot under v that the
// fixture left empty — a nil expression or an empty list of children —
// and records the node kinds it passes. Only this package's types are
// children; a Literal's value, names and flags are not.
func emptySlot(v reflect.Value, path string, kinds map[string]bool) string {
	pkg := reflect.TypeOf(Param{}).PkgPath()
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return path
		}
		if v.Kind() == reflect.Pointer {
			kinds[v.Type().Elem().Name()] = true
		}
		return emptySlot(v.Elem(), path, kinds)
	case reflect.Slice:
		if v.Len() == 0 {
			return path
		}
		for i := 0; i < v.Len(); i++ {
			if p := emptySlot(v.Index(i), fmt.Sprintf("%s[%d]", path, i), kinds); p != "" {
				return p
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			t := v.Type().Field(i).Type
			for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
				t = t.Elem()
			}
			if t.PkgPath() != pkg {
				continue
			}
			if p := emptySlot(v.Field(i), path+"."+v.Type().Field(i).Name, kinds); p != "" {
				return p
			}
		}
	}
	return ""
}

// declaredKinds lists the expression node kinds ast.go declares: the
// receivers of exprNode.
func declaredKinds(t *testing.T) []string {
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		fd, ok := d.(*goast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "exprNode" {
			continue
		}
		kinds = append(kinds, fd.Recv.List[0].Type.(*goast.StarExpr).X.(*goast.Ident).Name)
	}
	return kinds
}

// TestInspectVisitsEveryChild: a walk of the tree reaches every child
// slot of every node kind and every SELECT clause, in source order — the
// order CollectParams reports parameters in. The fixture itself is
// checked first: every kind ast.go declares is in it, and no child slot
// is empty, so a new kind or child that the walk skips fails here.
func TestInspectVisitsEveryChild(t *testing.T) {
	root, want := everyChild()
	kinds := map[string]bool{}
	if p := emptySlot(reflect.ValueOf(root), "root", kinds); p != "" {
		t.Fatalf("fixture leaves %s empty", p)
	}
	for _, k := range declaredKinds(t) {
		if !kinds[k] {
			t.Errorf("fixture holds no %s", k)
		}
	}
	if got := CollectExprParams(root); !slices.Equal(got, want) {
		t.Errorf("CollectExprParams = %v\nwant %v", got, want)
	}
	if got := CollectParams([]Statement{&Insert{Source: root}}); !slices.Equal(got, want) {
		t.Errorf("CollectParams(INSERT) = %v\nwant %v", got, want)
	}
	last := root.Elems[len(root.Elems)-1].(*SelectExpr)
	if got := CollectParams([]Statement{&Query{Sel: last}}); !slices.Equal(got, want[len(want)-9:]) {
		t.Errorf("CollectParams(SELECT) = %v\nwant %v", got, want[len(want)-9:])
	}

	// A sub-select may be a typed nil; the walk skips it.
	for _, e := range []Expr{&Exists{}, &SubqueryExpr{}} {
		if got := CollectExprParams(e); len(got) != 0 {
			t.Errorf("CollectExprParams(%T with nil select) = %v", e, got)
		}
	}
	if got := CollectParams([]Statement{&Query{}}); len(got) != 0 {
		t.Errorf("CollectParams(Query with nil select) = %v", got)
	}
}

// TestCollectParamsLongestChain: the longest operator and accessor chains
// the parser accepts (maxChainLinks links) walk to the end.
func TestCollectParamsLongestChain(t *testing.T) {
	for _, link := range []string{"+$p", ".a", "[$p]"} {
		e, err := ParseExpr("$p" + strings.Repeat(link, maxChainLinks))
		if err != nil {
			t.Fatalf("%q × %d: %v", link, maxChainLinks, err)
		}
		if got := CollectExprParams(e); !slices.Equal(got, []string{"p"}) {
			t.Errorf("%q × %d: CollectExprParams = %v", link, maxChainLinks, got)
		}
	}
}
