package adm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Value is a single ADM value: a compact tagged union covering every
// kind in the data model. Values are cheap to copy (the struct is a few
// machine words); the heap payloads (strings, arrays, objects, geometry)
// are shared on copy, so callers must treat reachable data as immutable.
type Value struct {
	kind Kind
	// stable marks a view of bytes that never change (ViewAlias): the
	// strings it hands up alias them. It rides in kind's padding.
	stable bool
	aux    int32       // Duration: months component
	i      int64       // Int64, Boolean (0/1), DateTime millis, Duration millis
	f      float64     // Double
	s      string      // String; the encoded bytes of an object view (view.go)
	arr    []Value     // Array elements
	obj    *Object     // Object fields (nil for a view)
	geo    *[4]float64 // Point(x,y), Rectangle(x1,y1,x2,y2), Circle(cx,cy,r)
}

// Canonical singletons for the two unknown values and the booleans.
var (
	missingValue = Value{kind: KindMissing}
	nullValue    = Value{kind: KindNull}
	trueValue    = Value{kind: KindBoolean, i: 1}
	falseValue   = Value{kind: KindBoolean, i: 0}
)

// Missing returns the MISSING value (absent field).
func Missing() Value { return missingValue }

// Null returns the NULL value.
func Null() Value { return nullValue }

// Bool returns the boolean value b.
func Bool(b bool) Value {
	if b {
		return trueValue
	}
	return falseValue
}

// Int returns an int64 value.
func Int(v int64) Value { return Value{kind: KindInt64, i: v} }

// Double returns a double value.
func Double(v float64) Value { return Value{kind: KindDouble, f: v} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// DateTime returns a datetime value from a time.Time (truncated to
// millisecond precision, stored as UTC epoch milliseconds).
func DateTime(t time.Time) Value {
	return Value{kind: KindDateTime, i: t.UnixMilli()}
}

// DateTimeMillis returns a datetime value from epoch milliseconds.
func DateTimeMillis(ms int64) Value { return Value{kind: KindDateTime, i: ms} }

// Duration returns a calendar duration of the given months and
// milliseconds, mirroring ADM's year-month + day-time duration split.
func Duration(months int32, millis int64) Value {
	return Value{kind: KindDuration, aux: months, i: millis}
}

// Point returns a 2-D point value.
func Point(x, y float64) Value {
	return Value{kind: KindPoint, geo: &[4]float64{x, y}}
}

// Rectangle returns an axis-aligned rectangle value. The corners are
// normalized so (x1,y1) is the lower-left and (x2,y2) the upper-right.
func Rectangle(x1, y1, x2, y2 float64) Value {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Value{kind: KindRectangle, geo: &[4]float64{x1, y1, x2, y2}}
}

// Circle returns a circle value centered at (cx,cy) with radius r.
func Circle(cx, cy, r float64) Value {
	return Value{kind: KindCircle, geo: &[4]float64{cx, cy, r}}
}

// Array returns an array value wrapping elems (not copied).
func Array(elems []Value) Value { return Value{kind: KindArray, arr: elems} }

// EmptyArray returns an array value with no elements.
func EmptyArray() Value { return Value{kind: KindArray} }

// ObjectValue wraps an Object as a Value (not copied).
func ObjectValue(o *Object) Value { return Value{kind: KindObject, obj: o} }

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsMissing reports whether v is MISSING.
func (v Value) IsMissing() bool { return v.kind == KindMissing }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsUnknown reports whether v is MISSING or NULL.
func (v Value) IsUnknown() bool { return v.kind.IsUnknown() }

// BoolVal returns the boolean payload; false for non-booleans.
func (v Value) BoolVal() bool { return v.kind == KindBoolean && v.i != 0 }

// IntVal returns the int64 payload (only meaningful for KindInt64).
func (v Value) IntVal() int64 { return v.i }

// DoubleVal returns the double payload (only meaningful for KindDouble).
func (v Value) DoubleVal() float64 { return v.f }

// AsDouble promotes a numeric value to float64. The second result is
// false if the value is not numeric.
func (v Value) AsDouble() (float64, bool) {
	switch v.kind {
	case KindInt64:
		return float64(v.i), true
	case KindDouble:
		return v.f, true
	}
	return 0, false
}

// AsInt converts a numeric value to int64 (doubles are truncated). The
// second result is false if the value is not numeric.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt64:
		return v.i, true
	case KindDouble:
		return int64(v.f), true
	}
	return 0, false
}

// StringVal returns the string payload; "" for non-strings.
func (v Value) StringVal() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// DateTimeVal returns the timestamp as epoch milliseconds.
func (v Value) DateTimeVal() int64 { return v.i }

// Time returns the timestamp as a time.Time in UTC.
func (v Value) Time() time.Time { return time.UnixMilli(v.i).UTC() }

// DurationVal returns the (months, millis) parts of a duration.
func (v Value) DurationVal() (months int32, millis int64) { return v.aux, v.i }

// PointVal returns the (x, y) coordinates of a point.
func (v Value) PointVal() (x, y float64) {
	if v.geo == nil {
		return 0, 0
	}
	return v.geo[0], v.geo[1]
}

// RectVal returns the normalized corners of a rectangle.
func (v Value) RectVal() (x1, y1, x2, y2 float64) {
	if v.geo == nil {
		return 0, 0, 0, 0
	}
	return v.geo[0], v.geo[1], v.geo[2], v.geo[3]
}

// CircleVal returns the center and radius of a circle.
func (v Value) CircleVal() (cx, cy, r float64) {
	if v.geo == nil {
		return 0, 0, 0
	}
	return v.geo[0], v.geo[1], v.geo[2]
}

// ArrayVal returns the element slice of an array (shared, do not mutate).
func (v Value) ArrayVal() []Value {
	return v.arr
}

// ObjectVal returns the object payload, or nil for non-objects. A view
// decodes on every call, into an Object the caller owns.
func (v Value) ObjectVal() *Object {
	if v.kind != KindObject {
		return nil
	}
	return v.object()
}

// Index returns element i of an array, or MISSING when v is not an
// array or the index is out of range — matching SQL++'s forgiving
// subscript semantics.
func (v Value) Index(i int) Value {
	if v.kind != KindArray || i < 0 || i >= len(v.arr) {
		return missingValue
	}
	return v.arr[i]
}

// Field returns the named field of an object, or MISSING when v is not
// an object or the field is absent — SQL++ path-access semantics.
func (v Value) Field(name string) Value {
	if v.isView() {
		return v.viewField(name)
	}
	if v.kind != KindObject || v.obj == nil {
		return missingValue
	}
	f, ok := v.obj.Get(name)
	if !ok {
		return missingValue
	}
	return f
}

// String renders the value in ADM literal syntax; it is meant for
// logging and test failure messages, not for wire serialization (see
// SerializeJSON for that).
func (v Value) String() string {
	var b strings.Builder
	v.format(&b)
	return b.String()
}

func (v Value) format(b *strings.Builder) {
	switch v.kind {
	case KindMissing:
		b.WriteString("missing")
	case KindNull:
		b.WriteString("null")
	case KindBoolean:
		if v.i != 0 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case KindInt64:
		b.WriteString(strconv.FormatInt(v.i, 10))
	case KindDouble:
		b.WriteString(formatDouble(v.f))
	case KindString:
		b.WriteString(strconv.Quote(v.s))
	case KindDateTime:
		b.WriteString("datetime(\"")
		b.WriteString(v.Time().Format("2006-01-02T15:04:05.000Z"))
		b.WriteString("\")")
	case KindDuration:
		fmt.Fprintf(b, "duration(months=%d, millis=%d)", v.aux, v.i)
	case KindPoint:
		x, y := v.PointVal()
		fmt.Fprintf(b, "point(%s, %s)", formatDouble(x), formatDouble(y))
	case KindRectangle:
		x1, y1, x2, y2 := v.RectVal()
		fmt.Fprintf(b, "rectangle(%s, %s, %s, %s)",
			formatDouble(x1), formatDouble(y1), formatDouble(x2), formatDouble(y2))
	case KindCircle:
		cx, cy, r := v.CircleVal()
		fmt.Fprintf(b, "circle(%s, %s, %s)",
			formatDouble(cx), formatDouble(cy), formatDouble(r))
	case KindArray:
		b.WriteByte('[')
		for i, e := range v.arr {
			if i > 0 {
				b.WriteString(", ")
			}
			e.format(b)
		}
		b.WriteByte(']')
	case KindObject:
		b.WriteByte('{')
		if o := v.object(); o != nil {
			for i := 0; i < o.Len(); i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(strconv.Quote(o.Name(i)))
				b.WriteString(": ")
				o.At(i).format(b)
			}
		}
		b.WriteByte('}')
	}
}

func formatDouble(f float64) string {
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Keep doubles visually distinct from ints in ADM literal output.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// AddMonths returns the datetime shifted by the given number of calendar
// months (used by datetime + duration arithmetic).
func AddMonths(dt Value, months int32) Value {
	if dt.kind != KindDateTime {
		return nullValue
	}
	t := dt.Time().AddDate(0, int(months), 0)
	return DateTime(t)
}

// AddDuration returns dt + dur, applying calendar-month then millisecond
// arithmetic, matching ADM's duration semantics.
func AddDuration(dt, dur Value) Value {
	if dt.kind != KindDateTime || dur.kind != KindDuration {
		return nullValue
	}
	months, millis := dur.DurationVal()
	out := dt
	if months != 0 {
		out = AddMonths(out, months)
	}
	return DateTimeMillis(out.DateTimeVal() + millis)
}
