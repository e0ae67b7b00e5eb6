package server

import (
	"fmt"
	"reflect"
	"strings"
	"unicode"

	"github.com/ideadb/idea/internal/adm"
)

// statsValue renders a snapshot as the STATS verb's ADM value. The reply
// is generated from the Go declarations, so a field added to a snapshot
// struct (server.Stats, idea.StorageStats, idea.FeedStats) reaches the
// wire without a second edit: a struct becomes an object holding each
// exported field under its snake_case name, a struct-typed field —
// named or embedded — contributes its fields to the enclosing object
// (which keeps the storage counters' flat names), a slice becomes an
// array, and a time.Duration is integer nanoseconds like any other
// integer.
func statsValue(v reflect.Value) adm.Value {
	switch v.Kind() {
	case reflect.Struct:
		o := adm.NewObject(v.NumField())
		appendStatsFields(o, v)
		return adm.ObjectValue(o)
	case reflect.Slice:
		elems := make([]adm.Value, v.Len())
		for i := range elems {
			elems[i] = statsValue(v.Index(i))
		}
		return adm.Array(elems)
	case reflect.Bool:
		return adm.Bool(v.Bool())
	case reflect.String:
		return adm.String(v.String())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return adm.Int(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return adm.Int(int64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		return adm.Double(v.Float())
	}
	return adm.String(fmt.Sprint(v.Interface()))
}

func appendStatsFields(o *adm.Object, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			appendStatsFields(o, v.Field(i))
		default:
			o.Set(snakeCase(f.Name), statsValue(v.Field(i)))
		}
	}
}

// snakeCase turns a Go field name into its wire key: BlockCacheHits →
// block_cache_hits, UptimeMs → uptime_ms, WALCommits → wal_commits.
func snakeCase(name string) string {
	rs := []rune(name)
	var b strings.Builder
	for i, r := range rs {
		if i > 0 && unicode.IsUpper(r) &&
			(!unicode.IsUpper(rs[i-1]) || i+1 < len(rs) && unicode.IsLower(rs[i+1])) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
