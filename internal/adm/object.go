package adm

// Object is an ordered collection of named fields: the ADM record type.
// Field order is insertion order (matching how AsterixDB lays out closed
// fields first, then open fields). Lookup is O(1) once the object grows
// past indexThreshold fields; smaller objects use linear scans to avoid
// the map allocation that would otherwise dominate tweet-sized records.
type Object struct {
	names  []string
	values []Value
	index  map[string]int // built by the Set that grows names past indexThreshold
}

// indexThreshold is the field count up to which lookups scan the names.
// BenchmarkObjectGet/BenchmarkObjectBuild set it: through 16 fields the
// map saves at most ≈ 7 ns on a lookup (last-field hit 21 vs 18 ns, miss
// 22 vs 15 ns) and costs ≈ 0.8 µs and ≈ 1 KB to build for every object
// parsed or decoded, most of which are never looked up at all; at 32
// fields the scan takes twice the map's time. The map is built when the
// object is, never on first lookup: decoded records are shared between
// goroutines through the memtable and the block cache, and a read that
// wrote the index would race.
const indexThreshold = 16

// NewObject returns an empty object with capacity for n fields.
func NewObject(n int) *Object {
	return &Object{
		names:  make([]string, 0, n),
		values: make([]Value, 0, n),
	}
}

// ObjectFromPairs builds an object from alternating name/value pairs,
// primarily a convenience for tests and examples. It panics when the
// argument list is malformed, as that is always a programming error.
func ObjectFromPairs(pairs ...any) *Object {
	if len(pairs)%2 != 0 {
		panic("adm: ObjectFromPairs requires an even number of arguments")
	}
	o := NewObject(len(pairs) / 2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("adm: ObjectFromPairs field names must be strings")
		}
		val, ok := pairs[i+1].(Value)
		if !ok {
			panic("adm: ObjectFromPairs field values must be adm.Value")
		}
		o.Set(name, val)
	}
	return o
}

// Len returns the number of fields.
func (o *Object) Len() int { return len(o.names) }

// Name returns the name of field i.
func (o *Object) Name(i int) string { return o.names[i] }

// At returns the value of field i.
func (o *Object) At(i int) Value { return o.values[i] }

// Get returns the value of the named field and whether it exists.
func (o *Object) Get(name string) (Value, bool) {
	if i := o.find(name); i >= 0 {
		return o.values[i], true
	}
	return Value{}, false
}

// Set adds the field or replaces an existing field of the same name,
// preserving its position.
func (o *Object) Set(name string, v Value) {
	if i := o.find(name); i >= 0 {
		o.values[i] = v
		return
	}
	o.names = append(o.names, name)
	o.values = append(o.values, v)
	if o.index != nil {
		o.index[name] = len(o.names) - 1
	} else if len(o.names) > indexThreshold {
		o.buildIndex()
	}
}

func (o *Object) find(name string) int {
	if o.index != nil {
		if i, ok := o.index[name]; ok {
			return i
		}
		return -1
	}
	for i, n := range o.names {
		if n == name {
			return i
		}
	}
	return -1
}

func (o *Object) buildIndex() {
	o.index = make(map[string]int, len(o.names))
	for i, n := range o.names {
		o.index[n] = i
	}
}
