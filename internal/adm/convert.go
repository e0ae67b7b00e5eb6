package adm

import (
	"fmt"
	"time"
)

// FromGo is the module's one Go → ADM conversion table: nil, bool, int,
// int64, float64, string, time.Time, and []byte holding JSON text (how
// composites travel through database/sql). The public builders
// (idea.Obj/Arr), statement-parameter binding, idea.Value.Scan and the
// driver's argument encoding all convert here and add their own prefix
// to the error.
func FromGo(x any) (Value, error) {
	switch t := x.(type) {
	case nil:
		return Null(), nil
	case bool:
		return Bool(t), nil
	case int:
		return Int(int64(t)), nil
	case int64:
		return Int(t), nil
	case float64:
		return Double(t), nil
	case string:
		return String(t), nil
	case time.Time:
		return DateTime(t), nil
	case []byte:
		v, err := ParseJSON(t)
		if err != nil {
			return Value{}, fmt.Errorf("[]byte is not valid JSON: %w", err)
		}
		return v, nil
	default:
		return Value{}, fmt.Errorf("cannot convert %T to an ADM value", x)
	}
}

// Scalar is the inverse table: the native Go form of a value that has
// one — nil for MISSING and NULL, bool, int64, float64, string,
// time.Time, which are also database/sql/driver's value types — and
// ok=false for objects, arrays and the extended (spatial, duration)
// kinds, which each caller renders its own way.
func (v Value) Scalar() (x any, ok bool) {
	switch v.kind {
	case KindMissing, KindNull:
		return nil, true
	case KindBoolean:
		return v.BoolVal(), true
	case KindInt64:
		return v.IntVal(), true
	case KindDouble:
		return v.DoubleVal(), true
	case KindString:
		return v.StringVal(), true
	case KindDateTime:
		return v.Time(), true
	}
	return nil, false
}

// DriverValue is what database/sql sees of a value: its Scalar form, or
// JSON bytes for everything else — FromGo parses those back, so
// composites round-trip structurally through columns and arguments.
func (v Value) DriverValue() any {
	if x, ok := v.Scalar(); ok {
		return x
	}
	return SerializeJSON(v)
}
