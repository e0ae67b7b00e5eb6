package idea

import (
	"fmt"
	"time"

	"github.com/ideadb/idea/internal/adm"
)

// Value is a public handle on an ADM value (the system's data model: a
// superset of JSON with datetime, duration, and spatial types). Values
// are immutable; accessors on absent fields return MISSING values rather
// than errors, matching SQL++'s forgiving path semantics.
//
// A record read from a dataset is read where it is stored: a string
// field of it (Field, Str, Native) shares the bytes of the stored block
// it lies in. That is always correct — stored bytes never change — but
// a string kept for long keeps that whole block alive; keep a
// strings.Clone of it instead.
type Value struct {
	v adm.Value
}

// WrapADM and UnwrapADM convert between Value and the engine's value
// type. Their signatures name an internal package, so only this module
// — the wire server and the database/sql driver, which sit on top of
// the public API but speak adm.Value on the wire — can call them.
func WrapADM(v adm.Value) Value { return Value{v} }

// UnwrapADM — see WrapADM.
func UnwrapADM(v Value) adm.Value { return v.v }

// FromJSON parses a JSON document into a Value.
func FromJSON(data []byte) (Value, error) {
	v, err := adm.ParseJSON(data)
	if err != nil {
		return Value{}, err
	}
	return Value{v}, nil
}

// MustJSON is FromJSON that panics on malformed input (literals in
// examples and tests).
func MustJSON(data string) Value {
	v, err := FromJSON([]byte(data))
	if err != nil {
		panic(err)
	}
	return v
}

// JSON serializes the value (datetime → ISO string, point → [x,y], ...).
func (v Value) JSON() []byte { return adm.SerializeJSON(v.v) }

// String renders the value in ADM literal syntax.
func (v Value) String() string { return v.v.String() }

// Kind names the value's runtime type ("int64", "object", "point", ...).
func (v Value) Kind() string { return v.v.Kind().String() }

// IsMissing reports whether the value is MISSING (e.g. an absent field).
func (v Value) IsMissing() bool { return v.v.IsMissing() }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.v.IsNull() }

// Field returns the named field of an object (MISSING when absent). A
// field of a stored record shares its bytes (see Value).
func (v Value) Field(name string) Value { return Value{v.v.Field(name)} }

// Index returns element i of an array (MISSING when out of range).
func (v Value) Index(i int) Value { return Value{v.v.Index(i)} }

// Len returns the element count of an array or the field count of an
// object; 0 otherwise.
func (v Value) Len() int {
	switch v.v.Kind() {
	case adm.KindArray:
		return len(v.v.ArrayVal())
	case adm.KindObject:
		if o := v.v.ObjectVal(); o != nil {
			return o.Len()
		}
	}
	return 0
}

// Str returns the string payload ("" for non-strings). A string read
// from a stored record shares its bytes: use strings.Clone to keep one
// apart from them.
func (v Value) Str() string { return v.v.StringVal() }

// Int returns the value as int64 (0 when not numeric).
func (v Value) Int() int64 {
	i, _ := v.v.AsInt()
	return i
}

// Float returns the value as float64 (0 when not numeric).
func (v Value) Float() float64 {
	f, _ := v.v.AsDouble()
	return f
}

// Bool returns the boolean payload (false for non-booleans).
func (v Value) Bool() bool { return v.v.BoolVal() }

// Time returns a datetime value as time.Time (zero time otherwise).
func (v Value) Time() time.Time {
	if v.v.Kind() != adm.KindDateTime {
		return time.Time{}
	}
	return v.v.Time()
}

// Elems returns the elements of an array value (nil otherwise).
func (v Value) Elems() []Value {
	arr := v.v.ArrayVal()
	if arr == nil {
		return nil
	}
	out := make([]Value, len(arr))
	for i, e := range arr {
		out[i] = Value{e}
	}
	return out
}

// Native converts the value into plain Go data: nil, bool, int64,
// float64, string, time.Time, []any, or map[string]any. Its strings
// share a stored record's bytes as Str's do.
func (v Value) Native() any { return toNative(v.v) }

func toNative(v adm.Value) any {
	switch v.Kind() {
	case adm.KindArray:
		arr := v.ArrayVal()
		out := make([]any, len(arr))
		for i, e := range arr {
			out[i] = toNative(e)
		}
		return out
	case adm.KindObject:
		o := v.ObjectVal()
		out := make(map[string]any, o.Len())
		for i := 0; i < o.Len(); i++ {
			out[o.Name(i)] = toNative(o.At(i))
		}
		return out
	}
	if x, ok := v.Scalar(); ok {
		return x
	}
	return v.String()
}

// Obj builds an object Value from alternating field-name / value pairs;
// values may be Value, string, int, int64, float64, bool, time.Time,
// nil, or []byte (JSON). It panics on malformed input — it exists for
// literals.
func Obj(pairs ...any) Value {
	if len(pairs)%2 != 0 {
		panic("idea: Obj requires name/value pairs")
	}
	o := adm.NewObject(len(pairs) / 2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("idea: Obj field names must be strings")
		}
		o.Set(name, fromAny(pairs[i+1]))
	}
	return Value{adm.ObjectValue(o)}
}

// Arr builds an array Value from elements (same conversions as Obj).
func Arr(elems ...any) Value {
	out := make([]adm.Value, len(elems))
	for i, e := range elems {
		out[i] = fromAny(e)
	}
	return Value{adm.Array(out)}
}

// Str builds a string Value.
func Str(s string) Value { return Value{adm.String(s)} }

// Int64 builds an int64 Value.
func Int64(i int64) Value { return Value{adm.Int(i)} }

// Float64 builds a double Value.
func Float64(f float64) Value { return Value{adm.Double(f)} }

// BoolVal builds a boolean Value.
func BoolVal(b bool) Value { return Value{adm.Bool(b)} }

// PointVal builds a 2-D point Value.
func PointVal(x, y float64) Value { return Value{adm.Point(x, y)} }

// TimeVal builds a datetime Value.
func TimeVal(t time.Time) Value { return Value{adm.DateTime(t)} }

func fromAny(x any) adm.Value {
	v, err := valueFromAny(x)
	if err != nil {
		panic(fmt.Sprintf("idea: %v", err))
	}
	return v
}

// valueFromAny is the non-panicking conversion behind the builders and
// statement-parameter binding: a Value passes through, anything else
// goes through the engine's one Go → ADM table.
func valueFromAny(x any) (adm.Value, error) {
	if v, ok := x.(Value); ok {
		return v.v, nil
	}
	return adm.FromGo(x)
}
