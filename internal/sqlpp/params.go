package sqlpp

// CollectParams returns the distinct parameter names referenced by the
// statements, in first-appearance order. Executors use it to validate a
// binding set before running anything: every referenced $name must be
// bound, and every bound argument must be referenced. Parameters inside
// string literals are just text — the lexer has already folded them
// into TokString — so they are never reported.
func CollectParams(stmts []Statement) []string {
	c := &paramCollector{seen: make(map[string]bool)}
	for _, s := range stmts {
		switch n := s.(type) {
		case *Insert:
			Inspect(n.Source, c.visit)
		case *Query:
			if n.Sel != nil {
				Inspect(n.Sel, c.visit)
			}
		}
		// CreateFunction bodies are deliberately NOT walked: a stored
		// function outlives the Execute call, so a binding supplied now
		// could not be honored later. Executors reject $params there
		// (via CollectExprParams) instead of silently dropping them.
	}
	return c.names
}

// CollectExprParams is CollectParams for a bare expression. Executors
// use it to reject parameters in positions with no binding lifetime
// (stored CREATE FUNCTION bodies).
func CollectExprParams(e Expr) []string {
	c := &paramCollector{seen: make(map[string]bool)}
	Inspect(e, c.visit)
	return c.names
}

type paramCollector struct {
	names []string
	seen  map[string]bool
}

func (c *paramCollector) visit(e Expr) bool {
	if p, ok := e.(*Param); ok && !c.seen[p.Name] {
		c.seen[p.Name] = true
		c.names = append(c.names, p.Name)
	}
	return true
}
