package udf

import (
	"errors"
	"testing"

	"github.com/ideadb/idea/internal/adm"
)

func TestResourceStore(t *testing.T) {
	s := NewResourceStore()
	if _, ok := s.Get("missing"); ok {
		t.Error("missing resource should not be found")
	}
	s.Put("keywords", []byte("US|bomb\nUS|attack\nFR|attaque\n"))
	data, ok := s.Get("keywords")
	if !ok || len(data) == 0 {
		t.Fatal("Get failed")
	}
	// Mutating the returned slice must not affect the store.
	data[0] = 'X'
	again, _ := s.Get("keywords")
	if again[0] != 'U' {
		t.Error("Get must return a copy")
	}
	lines, ok := s.Lines("keywords")
	if !ok || len(lines) != 3 || lines[2] != "FR|attaque" {
		t.Errorf("Lines = %v, %v", lines, ok)
	}
	if _, ok := s.Lines("nope"); ok {
		t.Error("Lines on missing resource")
	}
	// Replacement is visible.
	s.Put("keywords", []byte("DE|anschlag\n"))
	lines, _ = s.Lines("keywords")
	if len(lines) != 1 || lines[0] != "DE|anschlag" {
		t.Errorf("after replace: %v", lines)
	}
}

func TestFuncInstanceDefaults(t *testing.T) {
	// Zero-value FuncInstance is an identity UDF.
	inst := &FuncInstance{}
	if err := inst.Initialize(0); err != nil {
		t.Fatal(err)
	}
	in := adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(1)))
	out, err := inst.Evaluate(in)
	if err != nil || !adm.Equal(in, out) {
		t.Errorf("identity evaluate = %v, %v", out, err)
	}
}

func TestFuncInstanceLifecycle(t *testing.T) {
	initNode := -1
	boom := errors.New("boom")
	inst := &FuncInstance{
		InitFn: func(node int) error {
			initNode = node
			return nil
		},
		EvalFn: func(rec adm.Value) (adm.Value, error) {
			if rec.Field("id").IntVal() == 13 {
				return adm.Value{}, boom
			}
			o := copyFields(rec)
			o.Set("seen", adm.Bool(true))
			return adm.ObjectValue(o), nil
		},
	}
	if err := inst.Initialize(5); err != nil || initNode != 5 {
		t.Fatalf("Initialize: %v, node=%d", err, initNode)
	}
	out, err := inst.Evaluate(adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(1))))
	if err != nil || !out.Field("seen").BoolVal() {
		t.Errorf("Evaluate = %v, %v", out, err)
	}
	if _, err := inst.Evaluate(adm.ObjectValue(adm.ObjectFromPairs("id", adm.Int(13)))); !errors.Is(err, boom) {
		t.Errorf("error passthrough = %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	n := &Native{
		Name: "clean",
		New:  func() Instance { return &FuncInstance{} },
	}
	if err := r.Register(n); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(n); err == nil {
		t.Error("duplicate registration should fail")
	}
	got, ok := r.Lookup("clean")
	if !ok || got != n {
		t.Error("lookup failed")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("lookup miss expected")
	}
	// Instances are independent.
	a, b := got.New(), got.New()
	if a == b {
		t.Error("New must build fresh instances")
	}
}

// TestPaperKeywordUDF builds the paper's Java UDF 2 (Figure 7): a
// keyword list loaded from a resource file at Initialize, probed per
// record at Evaluate.
func TestPaperKeywordUDF(t *testing.T) {
	store := NewResourceStore()
	store.Put("keywords", []byte("1|US|bomb\n2|US|attack\n3|FR|attaque\n"))

	newInstance := func() Instance {
		keywords := map[string][]string{}
		return &FuncInstance{
			InitFn: func(int) error {
				lines, ok := store.Lines("keywords")
				if !ok {
					return errors.New("keyword list missing")
				}
				for _, line := range lines {
					var id, country, word string
					parts := splitPipe(line)
					if len(parts) != 3 {
						continue
					}
					id, country, word = parts[0], parts[1], parts[2]
					_ = id
					keywords[country] = append(keywords[country], word)
				}
				return nil
			},
			EvalFn: func(rec adm.Value) (adm.Value, error) {
				flag := "Green"
				for _, w := range keywords[rec.Field("country").StringVal()] {
					if containsStr(rec.Field("text").StringVal(), w) {
						flag = "Red"
						break
					}
				}
				o := copyFields(rec)
				o.Set("safety_check_flag", adm.String(flag))
				return adm.ObjectValue(o), nil
			},
		}
	}

	inst := newInstance()
	if err := inst.Initialize(0); err != nil {
		t.Fatal(err)
	}
	red, _ := inst.Evaluate(adm.ObjectValue(adm.ObjectFromPairs(
		"country", adm.String("US"), "text", adm.String("a bomb threat"))))
	if red.Field("safety_check_flag").StringVal() != "Red" {
		t.Errorf("US bomb should be Red: %v", red)
	}
	green, _ := inst.Evaluate(adm.ObjectValue(adm.ObjectFromPairs(
		"country", adm.String("FR"), "text", adm.String("a bomb threat"))))
	if green.Field("safety_check_flag").StringVal() != "Green" {
		t.Errorf("FR bomb is not in the FR list: %v", green)
	}

	// The dynamic framework re-initializes per batch: a new instance
	// observes the updated resource file.
	store.Put("keywords", []byte("1|FR|bomb\n"))
	inst2 := newInstance()
	inst2.Initialize(0)
	now, _ := inst2.Evaluate(adm.ObjectValue(adm.ObjectFromPairs(
		"country", adm.String("FR"), "text", adm.String("a bomb threat"))))
	if now.Field("safety_check_flag").StringVal() != "Red" {
		t.Error("fresh instance should see updated keywords")
	}
	// The stale instance still uses the old list (static-pipeline
	// behaviour).
	stale, _ := inst.Evaluate(adm.ObjectValue(adm.ObjectFromPairs(
		"country", adm.String("FR"), "text", adm.String("a bomb threat"))))
	if stale.Field("safety_check_flag").StringVal() != "Green" {
		t.Error("stale instance must not see the update")
	}
}

// copyFields returns a new object holding rec's fields.
func copyFields(rec adm.Value) *adm.Object {
	in := rec.ObjectVal()
	out := adm.NewObject(in.Len() + 1)
	for i := 0; i < in.Len(); i++ {
		out.Set(in.Name(i), in.At(i))
	}
	return out
}

func splitPipe(s string) []string {
	var parts []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
