package sqlpp

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/ideadb/idea/internal/adm"
)

// Parse parses a sequence of semicolon-separated statements.
func Parse(src string) ([]Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for !p.at(TokEOF, "") {
		if p.at(TokOp, ";") {
			p.next()
			continue
		}
		at := p.cur().Pos
		p.links = 0
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		s.setPos(at)
		stmts = append(stmts, s)
		if !p.at(TokOp, ";") && !p.at(TokEOF, "") {
			return nil, p.errorf("expected ';' after statement")
		}
	}
	return stmts, nil
}

// ParseExpr parses a single expression (used for UDF bodies supplied
// programmatically and in tests).
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseQueryOrExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errorf("trailing input after expression")
	}
	return e, nil
}

type parser struct {
	toks  []Token
	pos   int
	depth int // expression nesting, bounded by maxNesting
	links int // chain links of the current statement, bounded by maxChainLinks
}

// maxNesting bounds how deep expressions may nest (parentheses,
// constructors, subqueries, call arguments, NOT and unary-minus chains).
// The parser is recursive descent and statements arrive from the
// network, so without a bound a few megabytes of '(' overflow the stack,
// which no recover can catch. At adm.MaxDepth, a constructor that
// parses never builds a value nested deeper than storage accepts.
const maxNesting = adm.MaxDepth

// nested runs the production parse one nesting level down. Every
// recursive cycle of the grammar passes through a call to it: NOT and
// unary minus recurse on themselves, and all else re-enters the
// expression grammar through a primary.
func (p *parser) nested(parse func() (Expr, error)) (Expr, error) {
	if p.depth >= maxNesting {
		return nil, p.errorf("expression nested deeper than %d", maxNesting)
	}
	p.depth++
	e, err := parse()
	p.depth--
	return e, err
}

// maxChainLinks bounds the operator and accessor chain links of one
// statement (a+b+c, x AND y AND z, r.a.b[0]). The loops that parse them
// build a left-deep tree as deep as the chain is long without passing
// through nested, and eval and Inspect recurse once per link: a
// megabyte of "+1" used to parse and then overflow the stack. With this
// cap no tree is deeper than maxNesting + maxChainLinks.
const maxChainLinks = 10_000

// link counts one chain link; every chain loop calls it per iteration.
func (p *parser) link() error {
	if p.links++; p.links > maxChainLinks {
		return p.errorf("more than %d chained operators and accessors in one statement", maxChainLinks)
	}
	return nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) atKeyword(kw string) bool { return p.at(TokKeyword, kw) }

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return Token{}, p.errorf("expected %q", text)
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().Kind == TokIdent {
		return p.next().Text, nil
	}
	return "", p.errorf("expected identifier")
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("sqlpp: parse error at offset %d (near %q): %s",
		t.Pos, t.Text, fmt.Sprintf(format, args...))
}

// --- statements ---

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("CREATE"):
		return p.parseCreate()
	case p.atKeyword("CONNECT"):
		return p.parseConnectFeed()
	case p.atKeyword("START"):
		p.next()
		if _, err := p.expect(TokKeyword, "FEED"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &StartFeed{Name: name}, nil
	case p.atKeyword("STOP"):
		p.next()
		if _, err := p.expect(TokKeyword, "FEED"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &StopFeed{Name: name}, nil
	case p.atKeyword("INSERT"), p.atKeyword("UPSERT"):
		return p.parseInsert()
	case p.atKeyword("SELECT"), p.atKeyword("LET"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Query{Sel: sel}, nil
	}
	return nil, p.errorf("expected a statement")
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.atKeyword("TYPE"):
		return p.parseCreateType()
	case p.atKeyword("DATASET"):
		return p.parseCreateDataset()
	case p.atKeyword("INDEX"):
		return p.parseCreateIndex()
	case p.atKeyword("FUNCTION"):
		return p.parseCreateFunction()
	case p.atKeyword("FEED"):
		return p.parseCreateFeed()
	}
	return nil, p.errorf("expected TYPE, DATASET, INDEX, FUNCTION, or FEED after CREATE")
}

func (p *parser) parseCreateType() (Statement, error) {
	p.next() // TYPE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "AS"); err != nil {
		return nil, err
	}
	open := true
	if p.accept(TokKeyword, "CLOSED") {
		open = false
	} else {
		p.accept(TokKeyword, "OPEN")
	}
	if _, err := p.expect(TokOp, "{"); err != nil {
		return nil, err
	}
	var fields []adm.FieldDef
	for !p.at(TokOp, "}") {
		fname, err := p.fieldName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ":"); err != nil {
			return nil, err
		}
		tname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, ok := adm.KindFromName(strings.ToLower(tname))
		if !ok {
			return nil, p.errorf("unknown type %q", tname)
		}
		optional := p.accept(TokOp, "?")
		fields = append(fields, adm.FieldDef{Name: fname, Kind: kind, Optional: optional})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, "}"); err != nil {
		return nil, err
	}
	return &CreateType{Name: name, Open: open, Fields: fields}, nil
}

// fieldName accepts identifiers, strings, and keywords as record field
// names (tweets have a "text" field; TYPE is a keyword but a fine field).
func (p *parser) fieldName() (string, error) {
	t := p.cur()
	switch t.Kind {
	case TokIdent, TokString:
		p.next()
		return t.Text, nil
	case TokKeyword:
		p.next()
		return strings.ToLower(t.Text), nil
	}
	return "", p.errorf("expected field name")
}

func (p *parser) parseCreateDataset() (Statement, error) {
	p.next() // DATASET
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	typeName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "PRIMARY"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "KEY"); err != nil {
		return nil, err
	}
	pk, err := p.fieldName()
	if err != nil {
		return nil, err
	}
	return &CreateDataset{Name: name, TypeName: typeName, PrimaryKey: pk}, nil
}

func (p *parser) parseCreateIndex() (Statement, error) {
	p.next() // INDEX
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	ds, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	field, err := p.fieldName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	kind := "BTREE"
	if p.accept(TokKeyword, "TYPE") {
		t := p.cur()
		if t.Kind != TokIdent || (strings.ToUpper(t.Text) != "BTREE" && strings.ToUpper(t.Text) != "RTREE") {
			return nil, p.errorf("expected BTREE or RTREE")
		}
		kind = strings.ToUpper(p.next().Text)
	}
	return &CreateIndex{Name: name, Dataset: ds, Field: field, Kind: kind}, nil
}

func (p *parser) parseCreateFunction() (Statement, error) {
	p.next() // FUNCTION
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(TokOp, ")") {
		param, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params = append(params, param)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "{"); err != nil {
		return nil, err
	}
	body, err := p.parseQueryOrExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "}"); err != nil {
		return nil, err
	}
	return &CreateFunction{Name: name, Params: params, Body: body}, nil
}

func (p *parser) parseCreateFeed() (Statement, error) {
	p.next() // FEED
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "WITH"); err != nil {
		return nil, err
	}
	cfgExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	cfg, err := constEval(cfgExpr)
	if err != nil {
		return nil, p.errorf("feed config must be constant: %v", err)
	}
	return &CreateFeed{Name: name, Config: cfg}, nil
}

func (p *parser) parseConnectFeed() (Statement, error) {
	p.next() // CONNECT
	if _, err := p.expect(TokKeyword, "FEED"); err != nil {
		return nil, err
	}
	feed, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "TO"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "DATASET"); err != nil {
		return nil, err
	}
	ds, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	fn := ""
	if p.accept(TokKeyword, "APPLY") {
		if _, err := p.expect(TokKeyword, "FUNCTION"); err != nil {
			return nil, err
		}
		fn, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	}
	return &ConnectFeed{Feed: feed, Dataset: ds, Function: fn}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	upsert := p.atKeyword("UPSERT")
	p.next() // INSERT | UPSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	ds, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	src, err := p.parseQueryOrExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return &Insert{Dataset: ds, Source: src, Upsert: upsert}, nil
}

// --- queries ---

// parseQueryOrExpr parses either a query block (starting with SELECT or
// LET) or a plain expression.
func (p *parser) parseQueryOrExpr() (Expr, error) {
	if p.atKeyword("SELECT") || p.atKeyword("LET") {
		return p.parseSelect()
	}
	return p.parseExpr()
}

func (p *parser) parseSelect() (*SelectExpr, error) {
	sel := &SelectExpr{}
	if p.atKeyword("LET") {
		lets, err := p.parseLets()
		if err != nil {
			return nil, err
		}
		sel.Lets = lets
	}
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel.Distinct = p.accept(TokKeyword, "DISTINCT")
	if p.accept(TokKeyword, "VALUE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.SelectValue = e
	} else {
		for {
			proj, err := p.parseProjection()
			if err != nil {
				return nil, err
			}
			sel.Projections = append(sel.Projections, proj)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "FROM") {
		for {
			fc, err := p.parseFromClause()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, fc)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.atKeyword("LET") {
		lets, err := p.parseLets()
		if err != nil {
			return nil, err
		}
		sel.FromLets = lets
	}
	if p.accept(TokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.atKeyword("GROUP") {
		p.next()
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			gk := GroupKey{Expr: e}
			if p.accept(TokKeyword, "AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				gk.Alias = alias
			}
			sel.GroupBy = append(sel.GroupBy, gk)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.atKeyword("ORDER") {
		p.next()
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ok := OrderKey{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				ok.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, ok)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	return sel, nil
}

func (p *parser) parseLets() ([]LetBinding, error) {
	if _, err := p.expect(TokKeyword, "LET"); err != nil {
		return nil, err
	}
	var lets []LetBinding
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lets = append(lets, LetBinding{Name: name, Expr: e})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return lets, nil
}

func (p *parser) parseProjection() (Projection, error) {
	// Bare `*`: project the whole binding record.
	if p.at(TokOp, "*") {
		p.next()
		return Projection{Star: true}, nil
	}
	e, star, err := p.parseExprAllowStar()
	if err != nil {
		return Projection{}, err
	}
	proj := Projection{Expr: e, Star: star}
	if star {
		return proj, nil
	}
	if p.accept(TokKeyword, "AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return Projection{}, err
		}
		proj.Alias = alias
	} else if p.cur().Kind == TokIdent {
		// Implicit alias: `count(tweet) Num`.
		proj.Alias = p.next().Text
	}
	return proj, nil
}

func (p *parser) parseFromClause() (FromClause, error) {
	e, err := p.parsePostfixOnlyExpr()
	if err != nil {
		return FromClause{}, err
	}
	fc := FromClause{Source: e}
	if p.accept(TokKeyword, "AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return FromClause{}, err
		}
		fc.Alias = alias
	} else if p.cur().Kind == TokIdent {
		fc.Alias = p.next().Text
	} else {
		// Default alias: trailing identifier of the source path.
		switch src := e.(type) {
		case *Ident:
			fc.Alias = src.Name
		case *FieldAccess:
			fc.Alias = src.Field
		default:
			return FromClause{}, p.errorf("FROM clause needs an alias")
		}
	}
	return fc, nil
}

// --- expressions ---

func (p *parser) parseExpr() (Expr, error) {
	e, star, err := p.parseExprAllowStar()
	if err != nil {
		return nil, err
	}
	if star {
		return nil, p.errorf(".* is only allowed in a SELECT list")
	}
	return e, nil
}

// parseExprAllowStar parses an expression, additionally accepting a
// trailing `.*` (returned via the star flag) for SELECT lists.
func (p *parser) parseExprAllowStar() (Expr, bool, error) {
	e, err := p.parseOr()
	if err != nil {
		return nil, false, err
	}
	if p.at(TokOp, ".") && p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "*" {
		p.next()
		p.next()
		return e, true, nil
	}
	return e, false, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		if err := p.link(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		if err := p.link(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		x, err := p.nested(p.parseNot)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokOp {
		switch op := p.cur().Text; op {
		case "=", "!=", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	if p.atKeyword("IN") {
		p.next()
		coll, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &In{X: l, Coll: coll}, nil
	}
	if p.atKeyword("NOT") && p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "IN" {
		p.next()
		p.next()
		coll, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &In{Not: true, X: l, Coll: coll}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "+") || p.at(TokOp, "-") {
		if err := p.link(); err != nil {
			return nil, err
		}
		op := p.next().Text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "*") || p.at(TokOp, "/") || p.at(TokOp, "%") {
		if err := p.link(); err != nil {
			return nil, err
		}
		op := p.next().Text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.at(TokOp, "-") {
		p.next()
		x, err := p.nested(p.parseUnary)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePostfix()
}

// parsePostfixOnlyExpr parses a primary expression with postfix
// accessors but no binary operators (FROM sources).
func (p *parser) parsePostfixOnlyExpr() (Expr, error) {
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.nested(p.parsePrimary)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokOp, "."):
			// Stop before `.*` — handled by parseExprAllowStar.
			if p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "*" {
				return e, nil
			}
			if err := p.link(); err != nil {
				return nil, err
			}
			p.next()
			name, err := p.fieldName()
			if err != nil {
				return nil, err
			}
			e = &FieldAccess{Base: e, Field: name}
		case p.at(TokOp, "["):
			if err := p.link(); err != nil {
				return nil, err
			}
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, "]"); err != nil {
				return nil, err
			}
			e = &IndexAccess{Base: e, Index: idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal")
		}
		return &Literal{Val: adm.Int(i)}, nil
	case TokDouble:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad double literal")
		}
		return &Literal{Val: adm.Double(f)}, nil
	case TokString:
		p.next()
		return &Literal{Val: adm.String(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &Literal{Val: adm.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: adm.Bool(false)}, nil
		case "NULL":
			p.next()
			return &Literal{Val: adm.Null()}, nil
		case "MISSING":
			p.next()
			return &Literal{Val: adm.Missing()}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.next()
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &Exists{Sub: sel}, nil
		}
		return nil, p.errorf("unexpected keyword %s", t.Text)
	case TokIdent:
		return p.parseIdentOrCall()
	case TokOp:
		switch t.Text {
		case "(":
			p.next()
			inner, err := p.parseQueryOrExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			if sel, isSel := inner.(*SelectExpr); isSel {
				return &SubqueryExpr{Sel: sel}, nil
			}
			return inner, nil
		case "[":
			p.next()
			var elems []Expr
			for !p.at(TokOp, "]") {
				e, err := p.parseQueryOrExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, "]"); err != nil {
				return nil, err
			}
			return &ArrayCtor{Elems: elems}, nil
		case "{":
			return p.parseObjectCtor()
		}
	}
	return nil, p.errorf("expected an expression")
}

func (p *parser) parseIdentOrCall() (Expr, error) {
	tok := p.next()
	name := tok.Text
	if strings.HasPrefix(name, "$") {
		// A statement parameter: $name or $1. Lone `$` is malformed.
		if len(name) == 1 {
			p.pos--
			return nil, p.errorf("empty parameter name")
		}
		return &Param{Name: name[1:], Off: tok.Pos}, nil
	}
	ns := ""
	if p.at(TokOp, "#") {
		p.next()
		fn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ns, name = name, fn
	}
	if p.at(TokOp, "(") {
		p.next()
		call := &Call{Ns: ns, Name: name}
		if p.at(TokOp, "*") {
			p.next()
			call.Star = true
		} else {
			for !p.at(TokOp, ")") {
				arg, err := p.parseQueryOrExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.accept(TokOp, ",") {
					break
				}
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if ns != "" {
		return nil, p.errorf("namespaced reference %s#%s must be a call", ns, name)
	}
	return &Ident{Name: name}, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	ce := &CaseExpr{}
	if !p.atKeyword("WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = operand
	}
	for p.accept(TokKeyword, "WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{When: when, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(TokKeyword, "ELSE") {
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = els
	}
	if _, err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseObjectCtor() (Expr, error) {
	p.next() // {
	obj := &ObjectCtor{}
	for !p.at(TokOp, "}") {
		key, err := p.fieldName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ":"); err != nil {
			return nil, err
		}
		val, err := p.parseQueryOrExpr()
		if err != nil {
			return nil, err
		}
		obj.Fields = append(obj.Fields, ObjectField{Key: key, Val: val})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, "}"); err != nil {
		return nil, err
	}
	return obj, nil
}

// constEval evaluates constant expressions (literals, arrays, objects,
// unary minus) — enough for feed configs.
func constEval(e Expr) (adm.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *Unary:
		if n.Op == "-" {
			v, err := constEval(n.X)
			if err != nil {
				return adm.Value{}, err
			}
			switch v.Kind() {
			case adm.KindInt64:
				return adm.Int(-v.IntVal()), nil
			case adm.KindDouble:
				return adm.Double(-v.DoubleVal()), nil
			}
		}
	case *ArrayCtor:
		elems := make([]adm.Value, len(n.Elems))
		for i, el := range n.Elems {
			v, err := constEval(el)
			if err != nil {
				return adm.Value{}, err
			}
			elems[i] = v
		}
		return adm.Array(elems), nil
	case *ObjectCtor:
		o := adm.NewObject(len(n.Fields))
		for _, f := range n.Fields {
			v, err := constEval(f.Val)
			if err != nil {
				return adm.Value{}, err
			}
			o.Set(f.Key, v)
		}
		return adm.ObjectValue(o), nil
	}
	return adm.Value{}, fmt.Errorf("not a constant expression")
}
