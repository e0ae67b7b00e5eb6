package adm

import (
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindMissing: "missing", KindNull: "null", KindBoolean: "boolean",
		KindInt64: "int64", KindDouble: "double", KindString: "string",
		KindDateTime: "datetime", KindDuration: "duration", KindPoint: "point",
		KindRectangle: "rectangle", KindCircle: "circle",
		KindArray: "array", KindObject: "object",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(200).String() != "invalid" {
		t.Errorf("out-of-range kind should stringify as invalid")
	}
}

func TestKindFromName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{
		{"int64", KindInt64}, {"int", KindInt64}, {"bigint", KindInt64},
		{"double", KindDouble}, {"string", KindString}, {"bool", KindBoolean},
		{"datetime", KindDateTime}, {"point", KindPoint}, {"rectangle", KindRectangle},
		{"circle", KindCircle}, {"duration", KindDuration},
	} {
		got, ok := KindFromName(tc.name)
		if !ok || got != tc.want {
			t.Errorf("KindFromName(%q) = %v,%v want %v", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := KindFromName("nosuch"); ok {
		t.Error("KindFromName should reject unknown names")
	}
}

func TestScalarConstructorsAndAccessors(t *testing.T) {
	if !Bool(true).BoolVal() || Bool(false).BoolVal() {
		t.Error("boolean round trip failed")
	}
	if Int(42).IntVal() != 42 {
		t.Error("int round trip failed")
	}
	if Double(2.5).DoubleVal() != 2.5 {
		t.Error("double round trip failed")
	}
	if String("hi").StringVal() != "hi" {
		t.Error("string round trip failed")
	}
	if !Missing().IsMissing() || !Missing().IsUnknown() {
		t.Error("missing identity failed")
	}
	if !Null().IsNull() || !Null().IsUnknown() {
		t.Error("null identity failed")
	}
	if Int(1).IsUnknown() {
		t.Error("int should not be unknown")
	}
}

func TestNumericPromotion(t *testing.T) {
	if f, ok := Int(3).AsDouble(); !ok || f != 3.0 {
		t.Errorf("Int(3).AsDouble() = %v,%v", f, ok)
	}
	if i, ok := Double(3.9).AsInt(); !ok || i != 3 {
		t.Errorf("Double(3.9).AsInt() = %v,%v", i, ok)
	}
	if _, ok := String("x").AsDouble(); ok {
		t.Error("string should not promote to double")
	}
}

func TestDateTime(t *testing.T) {
	at := time.Date(2019, 8, 23, 12, 30, 45, 250e6, time.UTC)
	v := DateTime(at)
	if v.Kind() != KindDateTime {
		t.Fatalf("kind = %v", v.Kind())
	}
	if !v.Time().Equal(at) {
		t.Errorf("Time() = %v, want %v", v.Time(), at)
	}
	if v.DateTimeVal() != at.UnixMilli() {
		t.Errorf("millis mismatch")
	}
}

func TestDurationAndAddDuration(t *testing.T) {
	d := Duration(2, 500)
	months, millis := d.DurationVal()
	if months != 2 || millis != 500 {
		t.Fatalf("DurationVal = %d,%d", months, millis)
	}
	base := DateTime(time.Date(2019, 1, 31, 0, 0, 0, 0, time.UTC))
	sum := AddDuration(base, Duration(1, 0))
	// Go's AddDate normalizes Jan 31 + 1 month to Mar 3.
	want := time.Date(2019, 1, 31, 0, 0, 0, 0, time.UTC).AddDate(0, 1, 0)
	if !sum.Time().Equal(want) {
		t.Errorf("AddDuration month = %v, want %v", sum.Time(), want)
	}
	sum2 := AddDuration(base, Duration(0, 1500))
	if sum2.DateTimeVal() != base.DateTimeVal()+1500 {
		t.Errorf("AddDuration millis failed")
	}
	if AddDuration(Int(1), d).Kind() != KindNull {
		t.Error("AddDuration on non-datetime should yield null")
	}
}

func TestSpatialAccessors(t *testing.T) {
	p := Point(1, 2)
	if x, y := p.PointVal(); x != 1 || y != 2 {
		t.Errorf("PointVal = %v,%v", x, y)
	}
	r := Rectangle(3, 4, 1, 2) // deliberately swapped corners
	x1, y1, x2, y2 := r.RectVal()
	if x1 != 1 || y1 != 2 || x2 != 3 || y2 != 4 {
		t.Errorf("Rectangle should normalize corners, got %v %v %v %v", x1, y1, x2, y2)
	}
	c := Circle(5, 6, 7)
	if cx, cy, rad := c.CircleVal(); cx != 5 || cy != 6 || rad != 7 {
		t.Errorf("CircleVal = %v %v %v", cx, cy, rad)
	}
}

func TestIndexAndField(t *testing.T) {
	arr := Array([]Value{Int(10), Int(20)})
	if arr.Index(0).IntVal() != 10 || arr.Index(1).IntVal() != 20 {
		t.Error("array index failed")
	}
	if !arr.Index(5).IsMissing() || !arr.Index(-1).IsMissing() {
		t.Error("out-of-range index should be missing")
	}
	if !Int(1).Index(0).IsMissing() {
		t.Error("index on non-array should be missing")
	}

	obj := ObjectValue(ObjectFromPairs("a", Int(1), "b", String("x")))
	if obj.Field("a").IntVal() != 1 {
		t.Error("field access failed")
	}
	if !obj.Field("zzz").IsMissing() {
		t.Error("absent field should be missing")
	}
	if !String("s").Field("a").IsMissing() {
		t.Error("field on non-object should be missing")
	}
}

func TestNestedPathAccess(t *testing.T) {
	user := ObjectFromPairs("screen_name", String("Ali_ce!"))
	tweet := ObjectValue(ObjectFromPairs("id", Int(7), "user", ObjectValue(user)))
	if got := tweet.Field("user").Field("screen_name").StringVal(); got != "Ali_ce!" {
		t.Errorf("nested access = %q", got)
	}
}

func TestValueStringRendering(t *testing.T) {
	v := ObjectValue(ObjectFromPairs(
		"i", Int(1),
		"d", Double(1.5),
		"s", String("a\"b"),
		"p", Point(1, 2),
		"n", Null(),
		"arr", Array([]Value{Bool(true), Missing()}),
	))
	got := v.String()
	want := `{"i": 1, "d": 1.5, "s": "a\"b", "p": point(1.0, 2.0), "n": null, "arr": [true, missing]}`
	if got != want {
		t.Errorf("String() = %s\nwant      %s", got, want)
	}
}

func TestObjectSetReplaceKeepsPosition(t *testing.T) {
	o := NewObject(2)
	o.Set("x", Int(1))
	o.Set("y", Int(2))
	o.Set("x", Int(3)) // replace keeps position
	if o.Len() != 2 || o.Name(0) != "x" || o.At(0).IntVal() != 3 {
		t.Errorf("replace failed: %v", ObjectValue(o))
	}
}

func TestObjectLargeUsesIndex(t *testing.T) {
	o := NewObject(0)
	for i := 0; i < 40; i++ {
		o.Set(string(rune('a'+i)), Int(int64(i)))
	}
	if o.index == nil {
		t.Fatal("large object should have built its index")
	}
	for i := 0; i < 40; i++ {
		v, ok := o.Get(string(rune('a' + i)))
		if !ok || v.IntVal() != int64(i) {
			t.Fatalf("lookup %d failed", i)
		}
	}
}

func TestObjectFromPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on odd pair count")
		}
	}()
	ObjectFromPairs("only-name")
}
