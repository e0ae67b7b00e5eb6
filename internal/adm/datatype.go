package adm

import (
	"errors"
	"fmt"
)

// FieldDef describes one declared field of a Datatype.
type FieldDef struct {
	Name     string
	Kind     Kind
	Optional bool // declared with '?' in DDL
}

// Datatype is the declared shape of records stored in a Dataset,
// mirroring AsterixDB's CREATE TYPE. An *open* datatype only constrains
// its declared fields; records may carry arbitrary additional fields. A
// *closed* datatype rejects undeclared fields.
type Datatype struct {
	Name   string
	Open   bool
	Fields []FieldDef

	byName map[string]int
}

// NewDatatype builds a datatype, validating field uniqueness.
func NewDatatype(name string, open bool, fields []FieldDef) (*Datatype, error) {
	dt := &Datatype{Name: name, Open: open, Fields: fields,
		byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("adm: datatype %s: empty field name", name)
		}
		if _, dup := dt.byName[f.Name]; dup {
			return nil, fmt.Errorf("adm: datatype %s: duplicate field %q", name, f.Name)
		}
		dt.byName[f.Name] = i
	}
	return dt, nil
}

// MustDatatype is NewDatatype that panics on error, for tests and
// statically-known types.
func MustDatatype(name string, open bool, fields []FieldDef) *Datatype {
	dt, err := NewDatatype(name, open, fields)
	if err != nil {
		panic(err)
	}
	return dt
}

// ErrNotObject is returned when a non-object record reaches validation.
var ErrNotObject = errors.New("adm: record is not an object")

// Validate checks v against the datatype and coerces loosely-typed JSON
// payloads into their declared ADM kinds in place: ISO strings become
// datetimes/durations, numeric pairs/triples/quads become points,
// circles, and rectangles. It returns the (possibly rewritten) record.
//
// This is the feed parser's second half: JSON only has strings, numbers,
// arrays, and objects; the datatype supplies the richer ADM typing.
func (dt *Datatype) Validate(v Value) (Value, error) {
	obj := v.ObjectVal()
	if obj == nil {
		return v, ErrNotObject
	}
	// A view validates as its decoded copy, which coercion may rewrite.
	v = ObjectValue(obj)
	for _, f := range dt.Fields {
		fv, ok := obj.Get(f.Name)
		if !ok || fv.IsMissing() {
			if f.Optional {
				continue
			}
			return v, fmt.Errorf("adm: datatype %s: required field %q missing", dt.Name, f.Name)
		}
		if fv.IsNull() {
			continue
		}
		coerced, err := CoerceKind(fv, f.Kind)
		if err != nil {
			return v, fmt.Errorf("adm: datatype %s: field %q: %w", dt.Name, f.Name, err)
		}
		if coerced.Kind() != fv.Kind() {
			obj.Set(f.Name, coerced)
		}
	}
	if !dt.Open {
		for i := 0; i < obj.Len(); i++ {
			if _, ok := dt.byName[obj.Name(i)]; !ok {
				return v, fmt.Errorf("adm: closed datatype %s: undeclared field %q", dt.Name, obj.Name(i))
			}
		}
	}
	return v, nil
}

// CoerceKind converts v to the target kind where a faithful conversion
// exists (int↔double, string→datetime/duration, [x,y]→point, ...). It
// returns v unchanged when it already has the target kind, and an error
// when no conversion applies.
func CoerceKind(v Value, target Kind) (Value, error) {
	if v.Kind() == target || target == KindMissing {
		return v, nil
	}
	switch target {
	case KindInt64:
		if i, ok := v.AsInt(); ok {
			return Int(i), nil
		}
	case KindDouble:
		if f, ok := v.AsDouble(); ok {
			return Double(f), nil
		}
	case KindString:
		if v.Kind() == KindString {
			return v, nil
		}
	case KindDateTime:
		switch v.Kind() {
		case KindString:
			if ms, ok := ParseISODateTime(v.StringVal()); ok {
				return DateTimeMillis(ms), nil
			}
		case KindInt64:
			return DateTimeMillis(v.IntVal()), nil
		}
	case KindDuration:
		if v.Kind() == KindString {
			if months, millis, ok := ParseISODuration(v.StringVal()); ok {
				return Duration(months, millis), nil
			}
		}
	case KindPoint:
		if fs, ok := floatElems(v, 2); ok {
			return Point(fs[0], fs[1]), nil
		}
	case KindRectangle:
		if fs, ok := floatElems(v, 4); ok {
			return Rectangle(fs[0], fs[1], fs[2], fs[3]), nil
		}
	case KindCircle:
		if fs, ok := floatElems(v, 3); ok {
			return Circle(fs[0], fs[1], fs[2]), nil
		}
	case KindBoolean, KindArray, KindObject, KindNull:
		// No lossy coercions for these kinds.
	}
	return v, fmt.Errorf("cannot coerce %s to %s", v.Kind(), target)
}

func floatElems(v Value, n int) ([]float64, bool) {
	if v.Kind() != KindArray {
		return nil, false
	}
	elems := v.ArrayVal()
	if len(elems) != n {
		return nil, false
	}
	out := make([]float64, n)
	for i, e := range elems {
		f, ok := e.AsDouble()
		if !ok {
			return nil, false
		}
		out[i] = f
	}
	return out, true
}
