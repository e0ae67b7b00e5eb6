package adm

import (
	"strings"
	"testing"
)

func tweetType(t *testing.T) *Datatype {
	t.Helper()
	dt, err := NewDatatype("TweetType", true, []FieldDef{
		{Name: "id", Kind: KindInt64},
		{Name: "text", Kind: KindString},
		{Name: "created_at", Kind: KindDateTime, Optional: true},
		{Name: "location", Kind: KindPoint, Optional: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestDatatypeValidateOpen(t *testing.T) {
	dt := tweetType(t)
	rec := mustParse(t, `{"id": 5, "text": "hi", "extra": "allowed", "created_at": "2019-08-23T00:00:00Z"}`)
	out, err := dt.Validate(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Field("created_at").Kind() != KindDateTime {
		t.Errorf("created_at not coerced: %v", out.Field("created_at").Kind())
	}
	if out.Field("extra").StringVal() != "allowed" {
		t.Error("open datatype must keep undeclared fields")
	}
}

func TestDatatypeValidateMissingRequired(t *testing.T) {
	dt := tweetType(t)
	_, err := dt.Validate(mustParse(t, `{"id": 5}`))
	if err == nil || !strings.Contains(err.Error(), "text") {
		t.Errorf("expected missing-field error, got %v", err)
	}
	// Optional fields may be absent.
	if _, err := dt.Validate(mustParse(t, `{"id": 5, "text": "x"}`)); err != nil {
		t.Errorf("optional fields should be skippable: %v", err)
	}
	// Null satisfies a declared field.
	if _, err := dt.Validate(mustParse(t, `{"id": 5, "text": null}`)); err != nil {
		t.Errorf("null should satisfy declared field: %v", err)
	}
}

func TestDatatypeValidateClosed(t *testing.T) {
	dt := MustDatatype("Closed", false, []FieldDef{{Name: "a", Kind: KindInt64}})
	if _, err := dt.Validate(mustParse(t, `{"a": 1}`)); err != nil {
		t.Fatalf("closed validate: %v", err)
	}
	if _, err := dt.Validate(mustParse(t, `{"a": 1, "b": 2}`)); err == nil {
		t.Error("closed datatype must reject undeclared fields")
	}
}

func TestDatatypeValidateNonObject(t *testing.T) {
	dt := tweetType(t)
	if _, err := dt.Validate(Int(1)); err == nil {
		t.Error("non-object must fail validation")
	}
}

func TestDatatypeRejectsDuplicates(t *testing.T) {
	if _, err := NewDatatype("D", true, []FieldDef{
		{Name: "a", Kind: KindInt64}, {Name: "a", Kind: KindString},
	}); err == nil {
		t.Error("duplicate fields must be rejected")
	}
	if _, err := NewDatatype("D", true, []FieldDef{{Name: "", Kind: KindInt64}}); err == nil {
		t.Error("empty field name must be rejected")
	}
}

func TestCoerceKind(t *testing.T) {
	for _, tc := range []struct {
		in     Value
		target Kind
		want   Value
	}{
		{Int(3), KindDouble, Double(3)},
		{Double(3.0), KindInt64, Int(3)},
		{String("2019-08-23T00:00:00Z"), KindDateTime, DateTimeMillis(1_566_518_400_000)},
		{String("P2M"), KindDuration, Duration(2, 0)},
		{Array([]Value{Double(1), Double(2)}), KindPoint, Point(1, 2)},
		{Array([]Value{Int(0), Int(0), Int(2), Int(2)}), KindRectangle, Rectangle(0, 0, 2, 2)},
		{Array([]Value{Int(1), Int(1), Int(5)}), KindCircle, Circle(1, 1, 5)},
		{Int(1_000), KindDateTime, DateTimeMillis(1_000)},
	} {
		got, err := CoerceKind(tc.in, tc.target)
		if err != nil {
			t.Errorf("CoerceKind(%v, %v): %v", tc.in, tc.target, err)
			continue
		}
		if Compare(got, tc.want) != 0 {
			t.Errorf("CoerceKind(%v, %v) = %v, want %v", tc.in, tc.target, got, tc.want)
		}
	}
}

func TestCoerceKindFailures(t *testing.T) {
	bad := []struct {
		in     Value
		target Kind
	}{
		{String("hello"), KindInt64},
		{String("not a date"), KindDateTime},
		{Array([]Value{Int(1)}), KindPoint},
		{Array([]Value{String("x"), String("y")}), KindPoint},
		{Bool(true), KindDouble},
	}
	for _, tc := range bad {
		if _, err := CoerceKind(tc.in, tc.target); err == nil {
			t.Errorf("CoerceKind(%v, %v) should fail", tc.in, tc.target)
		}
	}
}

func TestDatatypeFieldLookup(t *testing.T) {
	dt := tweetType(t)
	i, ok := dt.byName["text"]
	if !ok || dt.Fields[i].Name != "text" || dt.Fields[i].Kind != KindString {
		t.Error("Field lookup failed")
	}
	if _, ok := dt.byName["nope"]; ok {
		t.Error("Field lookup should miss")
	}
}
