package adm

// Parser is a reusable JSON parser for record streams whose records
// share a schema shape, like the feed hot path: millions of tweet-shaped
// records with the same handful of field names. It keeps two pieces of
// state across ParseInto calls:
//
//   - a field-name intern table, so repeated object keys ("id", "text",
//     "geo", ...) share one string allocation for the life of the parser
//     instead of re-allocating per record, and
//   - per-nesting-depth field-count hints taken from previously parsed
//     records, so objects are pre-sized to their expected width instead
//     of growing from a fixed default.
//
// A Parser is not safe for concurrent use; the feed keeps one per
// collector partition. The zero value is NOT usable — call NewParser.
type Parser struct {
	intern map[string]string
	hints  []int
	// arrayHints mirrors hints for array lengths per array-nesting
	// depth, so parseArray can carve element spines of the right size
	// from the frame arena instead of growing heap slices.
	arrayHints []int
}

const (
	// maxInternedNames bounds the intern table so adversarial inputs
	// with unbounded distinct keys cannot grow it without limit; keys
	// past the bound are still parsed, just not retained.
	maxInternedNames = 1 << 12
	// maxInternedNameLen bounds each retained key, so the table's worst
	// case is maxInternedNames × maxInternedNameLen bytes (4MB) even
	// when an untrusted feed sends multi-megabyte field names.
	maxInternedNameLen = 1 << 10
	// maxHintDepth bounds the per-depth size-hint table.
	maxHintDepth = 32
	// maxFieldHint caps how large a pre-size hint can get, so one wide
	// outlier record does not pin large allocations for every record
	// that follows.
	maxFieldHint = 64
)

// NewParser returns a parser with an empty intern table.
func NewParser() *Parser {
	return &Parser{intern: make(map[string]string, 32)}
}

// ParseInto parses one JSON value and appends it to dst, the
// caller-owned record spine (typically a pooled frame slice), returning
// the extended slice. When arena is non-nil, string payloads, objects,
// and field spines are carved from it instead of the heap: the value
// stays valid for as long as it is referenced, unless its holder Resets
// the arena. A nil arena parses to the heap. On a parse error dst is
// returned unchanged (the arena may still have grown).
func (pp *Parser) ParseInto(data []byte, dst []Value, arena *Arena) ([]Value, error) {
	p := jsonParser{data: data, owner: pp, arena: arena}
	v, err := p.parseDocument()
	if err != nil {
		return dst, err
	}
	return append(dst, v), nil
}

// internBytes returns the canonical string for a field name given as raw
// bytes, allocating only the first time a name is seen. The m[string(b)]
// lookup form compiles to a no-allocation map access.
func (pp *Parser) internBytes(b []byte) string {
	if s, ok := pp.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternedNameLen && len(pp.intern) < maxInternedNames {
		pp.intern[s] = s
	}
	return s
}

// internString is internBytes for names that needed escape decoding.
func (pp *Parser) internString(s string) string {
	if v, ok := pp.intern[s]; ok {
		return v
	}
	if len(s) <= maxInternedNameLen && len(pp.intern) < maxInternedNames {
		pp.intern[s] = s
	}
	return s
}

// hint returns the expected field count for an object at the given
// nesting depth, from the widest object seen there so far.
func (pp *Parser) hint(depth int) int {
	if depth < len(pp.hints) && pp.hints[depth] > 0 {
		return pp.hints[depth]
	}
	return defaultObjectHint
}

// observe records the field count of a finished object at depth.
func (pp *Parser) observe(depth, n int) {
	if depth >= maxHintDepth {
		return
	}
	for len(pp.hints) <= depth {
		pp.hints = append(pp.hints, 0)
	}
	if n > maxFieldHint {
		n = maxFieldHint
	}
	if n > pp.hints[depth] {
		pp.hints[depth] = n
	}
}

// arrayHint returns the expected element count for an array at the
// given array-nesting depth, from the longest array seen there so far.
func (pp *Parser) arrayHint(depth int) int {
	if depth < len(pp.arrayHints) && pp.arrayHints[depth] > 0 {
		return pp.arrayHints[depth]
	}
	return defaultArrayHint
}

// observeArray records the element count of a finished array at depth.
// The hint is capped like object hints so one huge outlier array does
// not pin large spans for every record that follows (longer arrays
// simply fall back to heap growth past the span).
func (pp *Parser) observeArray(depth, n int) {
	if depth >= maxHintDepth {
		return
	}
	for len(pp.arrayHints) <= depth {
		pp.arrayHints = append(pp.arrayHints, 0)
	}
	if n > maxFieldHint {
		n = maxFieldHint
	}
	if n > pp.arrayHints[depth] {
		pp.arrayHints[depth] = n
	}
}
