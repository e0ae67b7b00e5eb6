package adm

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// ParseJSON parses a single JSON value into an ADM Value. Numbers
// without a fraction or exponent become int64; everything else becomes
// double. The parser is hand-rolled because it sits on the feed's hot
// path: every ingested record passes through it once per computing job.
func ParseJSON(data []byte) (Value, error) {
	p := jsonParser{data: data}
	return p.parseDocument()
}

// defaultObjectHint is the pre-size for objects when no Parser hint is
// available.
const defaultObjectHint = 8

// defaultArrayHint is the pre-size for array element spines when no
// Parser hint is available.
const defaultArrayHint = 4

type jsonParser struct {
	data []byte
	pos  int
	// depth and arrDepth count the objects and the arrays around the
	// value being parsed: separately they index the Parser's size hints,
	// together they are the nesting MaxDepth bounds.
	depth    int
	arrDepth int
	// owner, when non-nil, supplies the field-name intern table and
	// object size hints of a reusable Parser.
	owner *Parser
	// arena, when non-nil, receives string payloads, objects, and field
	// spines: parsed values share its slabs instead of owning one heap
	// allocation each.
	arena *Arena
}

func (p *jsonParser) parseDocument() (Value, error) {
	p.skipSpace()
	v, err := p.parseValue()
	if err != nil {
		return Value{}, err
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		return Value{}, p.errorf("trailing data after JSON value")
	}
	return v, nil
}

func (p *jsonParser) errorf(format string, args ...any) error {
	return fmt.Errorf("adm: json at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *jsonParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) parseValue() (Value, error) {
	if p.pos >= len(p.data) {
		return Value{}, p.errorf("unexpected end of input")
	}
	if p.depth+p.arrDepth > MaxDepth {
		return Value{}, p.errorf("value nested deeper than %d", MaxDepth)
	}
	switch c := p.data[p.pos]; {
	case c == '{':
		return p.parseObject()
	case c == '[':
		return p.parseArray()
	case c == '"':
		return p.parseStringValue()
	case c == 't':
		if err := p.expect("true"); err != nil {
			return Value{}, err
		}
		return Bool(true), nil
	case c == 'f':
		if err := p.expect("false"); err != nil {
			return Value{}, err
		}
		return Bool(false), nil
	case c == 'n':
		if err := p.expect("null"); err != nil {
			return Value{}, err
		}
		return Null(), nil
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		return Value{}, p.errorf("unexpected character %q", c)
	}
}

func (p *jsonParser) expect(lit string) error {
	if p.pos+len(lit) > len(p.data) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errorf("invalid literal, expected %q", lit)
	}
	p.pos += len(lit)
	return nil
}

func (p *jsonParser) parseObject() (Value, error) {
	p.pos++ // consume '{'
	hint := defaultObjectHint
	depth := p.depth
	p.depth++
	if p.owner != nil {
		hint = p.owner.hint(depth)
	}
	var obj *Object
	if p.arena != nil {
		obj = p.arena.newObject(hint)
	} else {
		obj = NewObject(hint)
	}
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		p.depth--
		return ObjectValue(obj), nil
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return Value{}, p.errorf("expected object key string")
		}
		key, err := p.parseKey()
		if err != nil {
			return Value{}, err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return Value{}, p.errorf("expected ':' after object key")
		}
		p.pos++
		p.skipSpace()
		v, err := p.parseValue()
		if err != nil {
			return Value{}, err
		}
		obj.Set(key, v)
		p.skipSpace()
		if p.pos >= len(p.data) {
			return Value{}, p.errorf("unterminated object")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			p.depth--
			if p.owner != nil {
				p.owner.observe(depth, obj.Len())
			}
			return ObjectValue(obj), nil
		default:
			return Value{}, p.errorf("expected ',' or '}' in object")
		}
	}
}

// parseKey parses an object field name. Escape-free names (the common
// case by far) are interned straight from the input bytes without an
// intermediate allocation; an interning Parser's canonical names are
// stable heap strings shared across records, so names never view an
// arena.
func (p *jsonParser) parseKey() (string, error) {
	start := p.pos + 1
	for i := start; i < len(p.data); i++ {
		c := p.data[i]
		if c == '"' {
			b := p.data[start:i]
			p.pos = i + 1
			if p.owner != nil {
				return p.owner.internBytes(b), nil
			}
			return string(b), nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
	}
	s, err := p.parseString()
	if err != nil {
		return "", err
	}
	if p.owner != nil {
		return p.owner.internString(s), nil
	}
	return s, nil
}

// parseStringValue parses a JSON string into a Value. Escape-free
// strings parsed with an arena become zero-allocation views of arena
// memory; escape-heavy strings decode straight into the arena's byte
// buffer (no per-string heap scratch, no final copy). Only the
// arena-less path falls back to heap strings.
func (p *jsonParser) parseStringValue() (Value, error) {
	start := p.pos + 1
	for i := start; i < len(p.data); i++ {
		c := p.data[i]
		if c == '"' {
			b := p.data[start:i]
			p.pos = i + 1
			if p.arena != nil {
				return String(p.arena.appendView(b)), nil
			}
			return String(string(b)), nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
	}
	if p.arena != nil {
		s, err := p.parseStringIntoArena()
		return String(s), err
	}
	s, err := p.parseString()
	return String(s), err
}

// parseStringIntoArena decodes a string (escapes included) directly
// into the arena's byte buffer and returns a view of it — the
// arena-backed unescape buffer that keeps escape-dense corpora off the
// per-string heap path.
func (p *jsonParser) parseStringIntoArena() (string, error) {
	a := p.arena
	p.pos++ // consume opening quote
	start := p.pos
	// Copy the escape-free prefix, then decode the rest in place.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' || c == '\\' || c < 0x20 {
			break
		}
		p.pos++
	}
	// Decoding never lengthens a string, so its raw extent — up to the
	// closing quote — is room enough to keep the decoded bytes in one slab.
	end := p.pos
	for end < len(p.data) && p.data[end] != '"' {
		if p.data[end] == '\\' {
			end++
		}
		end++
	}
	a.reserve(min(end, len(p.data)) - start)
	mark := a.Len()
	buf, err := p.decodeStringTail(append(a.buf, p.data[start:p.pos]...))
	if err != nil {
		return "", err
	}
	a.buf = buf
	return a.viewFrom(mark), nil
}

func (p *jsonParser) parseArray() (Value, error) {
	p.pos++ // consume '['
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return EmptyArray(), nil
	}
	depth := p.arrDepth
	p.arrDepth++
	// With an arena, the element spine is carved from the value slab at
	// the hinted length; arrays that outgrow the span fall back to heap
	// growth (the hints make that rare), which is correct, just slower.
	var elems []Value
	if p.arena != nil {
		hint := defaultArrayHint
		if p.owner != nil {
			hint = p.owner.arrayHint(depth)
		}
		elems = p.arena.valueSpan(hint)
	}
	for {
		p.skipSpace()
		v, err := p.parseValue()
		if err != nil {
			p.arrDepth--
			return Value{}, err
		}
		elems = append(elems, v)
		p.skipSpace()
		if p.pos >= len(p.data) {
			p.arrDepth--
			return Value{}, p.errorf("unterminated array")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			p.arrDepth--
			if p.owner != nil {
				p.owner.observeArray(depth, len(elems))
			}
			return Array(elems), nil
		default:
			p.arrDepth--
			return Value{}, p.errorf("expected ',' or ']' in array")
		}
	}
}

func (p *jsonParser) parseString() (string, error) {
	p.pos++ // consume opening quote
	start := p.pos
	// Fast path: no escapes.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			s := string(p.data[start:p.pos])
			p.pos++
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		p.pos++
	}
	// Slow path with escape handling into a heap scratch.
	buf, err := p.decodeStringTail(append([]byte(nil), p.data[start:p.pos]...))
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// decodeStringTail appends the remainder of the current string —
// p.pos sits at the first escape (or closing quote) — to buf, decoding
// escapes, and returns the extended buffer. The caller chooses where
// the decoded bytes accumulate: a throwaway heap scratch (parseString)
// or the frame arena's byte buffer (parseStringIntoArena).
func (p *jsonParser) decodeStringTail(buf []byte) ([]byte, error) {
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return buf, nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return nil, p.errorf("unterminated escape")
			}
			esc := p.data[p.pos]
			p.pos++
			switch esc {
			case '"', '\\', '/':
				buf = append(buf, esc)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := p.parseUnicodeEscape()
				if err != nil {
					return nil, err
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, p.errorf("invalid escape '\\%c'", esc)
			}
		case c < 0x20:
			return nil, p.errorf("control character in string")
		default:
			buf = append(buf, c)
			p.pos++
		}
	}
	return nil, p.errorf("unterminated string")
}

// hex4 decodes four hex digits straight from bytes, avoiding the
// string conversion (and its allocation) strconv.ParseUint would force
// on every \u escape.
func hex4(b []byte) (uint32, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var u uint32
	for i := 0; i < 4; i++ {
		c := b[i]
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, false
		}
		u = u<<4 | d
	}
	return u, true
}

func (p *jsonParser) parseUnicodeEscape() (rune, error) {
	if p.pos+4 > len(p.data) {
		return 0, p.errorf("truncated \\u escape")
	}
	u, ok := hex4(p.data[p.pos:])
	if !ok {
		return 0, p.errorf("invalid \\u escape")
	}
	p.pos += 4
	r := rune(u)
	if utf16.IsSurrogate(r) && p.pos+6 <= len(p.data) &&
		p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
		if u2, ok := hex4(p.data[p.pos+2:]); ok {
			if combined := utf16.DecodeRune(r, rune(u2)); combined != utf8.RuneError {
				p.pos += 6
				return combined, nil
			}
		}
	}
	return r, nil
}

func (p *jsonParser) parseNumber() (Value, error) {
	start := p.pos
	isFloat := false
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c >= '0' && c <= '9':
			p.pos++
		case c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-':
			isFloat = true
			p.pos++
		default:
			goto done
		}
	}
done:
	b := p.data[start:p.pos]
	if !isFloat {
		if i, ok := parseIntBytes(b); ok {
			return Int(i), nil
		}
		// Out-of-range integers fall back to double, like encoding/json.
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return Value{}, p.errorf("invalid number %q", b)
	}
	return Double(f), nil
}

// parseIntBytes decodes a decimal int64 from raw digits without the
// string conversion strconv.ParseInt would force; integers are the most
// common number kind on the feed path. ok is false for malformed or
// out-of-range input (the caller falls back to the float path).
func parseIntBytes(b []byte) (int64, bool) {
	i := 0
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	// ≤ 19 digits cannot overflow uint64; larger magnitudes fall back.
	if i >= len(b) || len(b)-i > 19 {
		return 0, false
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > math.MaxInt64 {
		return 0, false
	}
	return int64(n), true
}

// AppendJSON appends the canonical JSON serialization of v to dst and
// returns the extended slice. Temporal and spatial kinds are encoded as
// tagged strings/arrays that the Datatype coercion layer knows how to
// read back: datetime → ISO-8601 string, duration → ISO-8601 duration
// string, point → [x,y], rectangle → [x1,y1,x2,y2], circle → [cx,cy,r].
// A view is transcoded from its bytes (appendJSONView), to the same
// JSON its decoded object writes.
func AppendJSON(dst []byte, v Value) []byte {
	switch v.kind {
	case KindMissing, KindNull:
		return append(dst, "null"...)
	case KindBoolean:
		return appendJSONBool(dst, v.i != 0)
	case KindInt64:
		return strconv.AppendInt(dst, v.i, 10)
	case KindDouble:
		return appendJSONDouble(dst, v.f)
	case KindString:
		return appendJSONString(dst, v.s)
	case KindDateTime:
		return appendJSONDateTime(dst, v.i)
	case KindDuration:
		return appendJSONDuration(dst, v.aux, v.i)
	case KindPoint:
		return appendJSONCoords(dst, v.geo, 2)
	case KindCircle:
		return appendJSONCoords(dst, v.geo, 3)
	case KindRectangle:
		return appendJSONCoords(dst, v.geo, 4)
	case KindArray:
		dst = append(dst, '[')
		for i, e := range v.arr {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSON(dst, e)
		}
		return append(dst, ']')
	case KindObject:
		if v.isView() {
			return appendJSONView(dst, v.encoded())
		}
		dst = append(dst, '{')
		if o := v.obj; o != nil {
			for i := 0; i < o.Len(); i++ {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONString(dst, o.Name(i))
				dst = append(dst, ':')
				dst = AppendJSON(dst, o.At(i))
			}
		}
		return append(dst, '}')
	}
	return append(dst, "null"...)
}

// SerializeJSON returns the JSON encoding of v as a fresh byte slice.
func SerializeJSON(v Value) []byte { return AppendJSON(nil, v) }

func appendJSONBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendJSONDouble writes NaN and ±Inf, which JSON cannot spell, as null.
func appendJSONDouble(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendJSONCoords writes the first n coordinates of a spatial value as
// an array.
func appendJSONCoords(dst []byte, geo *[4]float64, n int) []byte {
	var zero [4]float64
	if geo == nil {
		geo = &zero
	}
	dst = append(dst, '[')
	for i, f := range geo[:n] {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	return append(dst, ']')
}

// appendJSONDateTime quotes FormatISODateTime's text, which needs no
// escape, formatted straight into dst.
func appendJSONDateTime(dst []byte, ms int64) []byte {
	dst = append(dst, '"')
	dst = time.UnixMilli(ms).UTC().AppendFormat(dst, isoDateTimeLayout)
	return append(dst, '"')
}

// appendJSONDuration quotes FormatISODuration's text, which needs no
// escape, formatted straight into dst.
func appendJSONDuration(dst []byte, months int32, millis int64) []byte {
	dst = append(dst, '"')
	dst = appendISODuration(dst, months, millis)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// appendJSONString writes s quoted, copying the runs between the bytes
// that need an escape.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	from := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[from:i]...)
		from = i + 1
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	dst = append(dst, s[from:]...)
	return append(dst, '"')
}

const isoDateTimeLayout = "2006-01-02T15:04:05.000Z"

// FormatISODateTime renders epoch milliseconds as an ISO-8601 UTC
// timestamp string.
func FormatISODateTime(ms int64) string {
	return time.UnixMilli(ms).UTC().Format(isoDateTimeLayout)
}

// ParseISODateTime parses an ISO-8601 timestamp into epoch milliseconds.
// It accepts both millisecond and second precision.
func ParseISODateTime(s string) (int64, bool) {
	for _, layout := range [...]string{
		isoDateTimeLayout,
		"2006-01-02T15:04:05Z",
		"2006-01-02T15:04:05.000-07:00",
		"2006-01-02T15:04:05-07:00",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMilli(), true
		}
	}
	return 0, false
}

// FormatISODuration renders a (months, millis) duration as an ISO-8601
// duration string, e.g. P2M, P1Y2M, PT4.250S, P2MT12H.
func FormatISODuration(months int32, millis int64) string {
	return string(appendISODuration(nil, months, millis))
}

func appendISODuration(dst []byte, months int32, millis int64) []byte {
	start := len(dst)
	neg := months < 0 || millis < 0
	if neg {
		dst = append(dst, '-')
		if months < 0 {
			months = -months
		}
		if millis < 0 {
			millis = -millis
		}
	}
	dst = append(dst, 'P')
	years := months / 12
	months %= 12
	if years > 0 {
		dst = strconv.AppendInt(dst, int64(years), 10)
		dst = append(dst, 'Y')
	}
	if months > 0 {
		dst = strconv.AppendInt(dst, int64(months), 10)
		dst = append(dst, 'M')
	}
	if millis > 0 {
		dst = append(dst, 'T')
		dst = strconv.AppendInt(dst, millis/1000, 10)
		if frac := millis % 1000; frac > 0 {
			dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
		}
		dst = append(dst, 'S')
	}
	if n := len(dst) - start; n == 1 || (neg && n == 2) {
		dst = append(dst, 'T', '0', 'S')
	}
	return dst
}

// ParseISODuration parses a subset of ISO-8601 durations covering what
// the paper's queries use (PnYnMnDTnHnMn.nS). It returns the calendar
// months and the millisecond remainder.
func ParseISODuration(s string) (months int32, millis int64, ok bool) {
	if len(s) == 0 {
		return 0, 0, false
	}
	neg := false
	i := 0
	if s[i] == '-' {
		neg = true
		i++
	}
	if i >= len(s) || s[i] != 'P' {
		return 0, 0, false
	}
	i++
	inTime := false
	seen := false
	for i < len(s) {
		if s[i] == 'T' {
			inTime = true
			i++
			continue
		}
		start := i
		for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.') {
			i++
		}
		if start == i || i >= len(s) {
			return 0, 0, false
		}
		num, err := strconv.ParseFloat(s[start:i], 64)
		if err != nil {
			return 0, 0, false
		}
		unit := s[i]
		i++
		seen = true
		switch {
		case !inTime && unit == 'Y':
			months += int32(num) * 12
		case !inTime && unit == 'M':
			months += int32(num)
		case !inTime && unit == 'W':
			millis += int64(num * 7 * 24 * 3600 * 1000)
		case !inTime && unit == 'D':
			millis += int64(num * 24 * 3600 * 1000)
		case inTime && unit == 'H':
			millis += int64(num * 3600 * 1000)
		case inTime && unit == 'M':
			millis += int64(num * 60 * 1000)
		case inTime && unit == 'S':
			millis += int64(num * 1000)
		default:
			return 0, 0, false
		}
	}
	if !seen {
		return 0, 0, false
	}
	if neg {
		months, millis = -months, -millis
	}
	return months, millis, true
}
