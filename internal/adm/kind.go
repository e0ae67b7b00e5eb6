// Package adm implements the AsterixDB Data Model (ADM): a superset of
// JSON with ordered open records, temporal types, and spatial types.
//
// ADM values are the currency of the whole system: feed parsers produce
// them, UDFs transform them, the query evaluator computes over them, and
// LSM storage partitions persist them. A Value is an immutable-by-
// convention tagged union; Objects are ordered field collections that may
// carry fields beyond their declared Datatype ("open" records).
//
// # Arenas
//
// On the feed hot path, values are parsed into an Arena: string
// payloads, object structs, and field spines share a few per-frame
// slabs instead of costing one heap allocation each. They are ordinary
// values — the garbage collector reclaims a slab with the last value in
// it — and no pipeline step invalidates them; see the Arena type.
package adm

// Kind identifies the runtime type of a Value. The order of the
// constants defines the cross-kind total order used by Compare: MISSING
// sorts before NULL, which sorts before every typed value, mirroring
// AsterixDB's ordering semantics.
type Kind uint8

const (
	// KindMissing is the absence of a field (distinct from null).
	KindMissing Kind = iota
	// KindNull is an explicit JSON null.
	KindNull
	// KindBoolean is true/false.
	KindBoolean
	// KindInt64 is a 64-bit signed integer.
	KindInt64
	// KindDouble is a 64-bit IEEE float.
	KindDouble
	// KindString is an immutable UTF-8 string.
	KindString
	// KindDateTime is a millisecond-precision UTC timestamp.
	KindDateTime
	// KindDuration is a calendar duration (months + milliseconds).
	KindDuration
	// KindPoint is a 2-D point (x, y).
	KindPoint
	// KindRectangle is an axis-aligned rectangle (two corner points).
	KindRectangle
	// KindCircle is a circle (center point + radius).
	KindCircle
	// KindArray is an ordered collection of values.
	KindArray
	// KindObject is an ordered (possibly open) record.
	KindObject

	numKinds
)

var kindNames = [numKinds]string{
	KindMissing:   "missing",
	KindNull:      "null",
	KindBoolean:   "boolean",
	KindInt64:     "int64",
	KindDouble:    "double",
	KindString:    "string",
	KindDateTime:  "datetime",
	KindDuration:  "duration",
	KindPoint:     "point",
	KindRectangle: "rectangle",
	KindCircle:    "circle",
	KindArray:     "array",
	KindObject:    "object",
}

// String returns the lower-case ADM name of the kind ("int64", "point" ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// KindFromName resolves a type name as written in DDL (CREATE TYPE ...)
// to a Kind. It accepts the ADM spellings plus common aliases.
func KindFromName(name string) (Kind, bool) {
	switch name {
	case "missing":
		return KindMissing, true
	case "null":
		return KindNull, true
	case "boolean", "bool":
		return KindBoolean, true
	case "int64", "int", "bigint", "integer":
		return KindInt64, true
	case "double", "float", "float64":
		return KindDouble, true
	case "string":
		return KindString, true
	case "datetime", "timestamp":
		return KindDateTime, true
	case "duration":
		return KindDuration, true
	case "point":
		return KindPoint, true
	case "rectangle":
		return KindRectangle, true
	case "circle":
		return KindCircle, true
	case "array", "multiset":
		return KindArray, true
	case "object", "record":
		return KindObject, true
	}
	return KindMissing, false
}

// IsNumeric reports whether the kind participates in numeric promotion
// (int64 and double compare and compute with each other).
func (k Kind) IsNumeric() bool { return k == KindInt64 || k == KindDouble }

// IsSpatial reports whether the kind is one of the geometry types.
func (k Kind) IsSpatial() bool {
	return k == KindPoint || k == KindRectangle || k == KindCircle
}

// IsUnknown reports whether the kind is MISSING or NULL, the two
// "unknown" values that propagate through most scalar functions.
func (k Kind) IsUnknown() bool { return k == KindMissing || k == KindNull }
