package sqlvalue

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Type() != Int || v.Int() != 42 {
		t.Fatalf("NewInt: got %v", v)
	}
	if v := NewReal(2.5); v.Type() != Real || v.Real() != 2.5 {
		t.Fatalf("NewReal: got %v", v)
	}
	if v := NewText("hi"); v.Type() != Text || v.Text() != "hi" {
		t.Fatalf("NewText: got %v", v)
	}
	if v := NewBool(true); v.Type() != Bool || !v.Bool() {
		t.Fatalf("NewBool: got %v", v)
	}
	if v := NewNull(); !v.IsNull() {
		t.Fatalf("NewNull: got %v", v)
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
}

// TestPointerAccessors pins TypeOf, IntOf, RealOf, BoolOf and TextOf to
// the accessors they read through a pointer, on every class.
func TestPointerAccessors(t *testing.T) {
	for _, v := range []Value{NewNull(), NewInt(-7), NewReal(2.5), NewReal(math.NaN()), NewText("hi"), NewBool(true), NewBool(false)} {
		r := RealOf(&v)
		if TypeOf(&v) != v.Type() || IntOf(&v) != v.Int() || r != v.Real() && !math.IsNaN(r) ||
			BoolOf(&v) != v.Bool() || TextOf(&v) != v.Text() {
			t.Errorf("%#v: pointer accessors %v %v %v %v %q", v, TypeOf(&v), IntOf(&v), r, BoolOf(&v), TextOf(&v))
		}
	}
}

func TestFromAny(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{nil, NewNull()},
		{7, NewInt(7)},
		{int8(7), NewInt(7)},
		{int16(7), NewInt(7)},
		{int32(7), NewInt(7)},
		{int64(7), NewInt(7)},
		{3.5, NewReal(3.5)},
		{float32(2), NewReal(2)},
		{"x", NewText("x")},
		{true, NewBool(true)},
		{NewInt(9), NewInt(9)},
	}
	for _, c := range cases {
		got, err := FromAny(c.in)
		if err != nil {
			t.Fatalf("FromAny(%v): %v", c.in, err)
		}
		if !Identical(got, c.want) {
			t.Errorf("FromAny(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := FromAny(struct{}{}); err == nil {
		t.Error("FromAny(struct{}{}) should fail")
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"int": Int, "INTEGER": Int, "BigInt": Int,
		"real": Real, "DOUBLE": Real,
		"text": Text, "VARCHAR": Text,
		"boolean": Bool,
	} {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v,%v want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("BLOB9"); err == nil {
		t.Error("ParseType should reject unknown names")
	}
}

func TestStringLiterals(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewNull(), "NULL"},
		{NewInt(-3), "-3"},
		{NewReal(1.5), "1.5"},
		{NewText("a'b"), "'a''b'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{NewInt(1), NewInt(2), -1, true},
		{NewInt(2), NewInt(2), 0, true},
		{NewInt(3), NewInt(2), 1, true},
		{NewInt(2), NewReal(2.0), 0, true},
		{NewReal(1.5), NewInt(2), -1, true},
		{NewText("a"), NewText("b"), -1, true},
		{NewBool(false), NewBool(true), -1, true},
		{NewNull(), NewInt(1), 0, false},
		{NewInt(1), NewNull(), 0, false},
		{NewText("1"), NewInt(1), 0, false},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v,%v) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestEqualTristate(t *testing.T) {
	if Equal(NewNull(), NewInt(1)) != Unknown {
		t.Error("NULL = 1 should be UNKNOWN")
	}
	if Equal(NewInt(1), NewInt(1)) != True {
		t.Error("1 = 1 should be TRUE")
	}
	if Equal(NewInt(1), NewInt(2)) != False {
		t.Error("1 = 2 should be FALSE")
	}
	if Equal(NewText("1"), NewInt(1)) != False {
		t.Error("'1' = 1 should be FALSE (distinct classes)")
	}
}

func TestTristateLogic(t *testing.T) {
	vals := []Tristate{False, True, Unknown}
	for _, a := range vals {
		for _, b := range vals {
			and := a.And(b)
			or := a.Or(b)
			// Kleene logic truth tables.
			wantAnd := Unknown
			switch {
			case a == False || b == False:
				wantAnd = False
			case a == True && b == True:
				wantAnd = True
			}
			wantOr := Unknown
			switch {
			case a == True || b == True:
				wantOr = True
			case a == False && b == False:
				wantOr = False
			}
			if and != wantAnd {
				t.Errorf("%v AND %v = %v, want %v", a, b, and, wantAnd)
			}
			if or != wantOr {
				t.Errorf("%v OR %v = %v, want %v", a, b, or, wantOr)
			}
		}
	}
	if Unknown.Not() != Unknown || True.Not() != False || False.Not() != True {
		t.Error("NOT truth table wrong")
	}
}

func TestDeMorganProperty(t *testing.T) {
	// NOT(a AND b) == (NOT a) OR (NOT b) over all tristates.
	vals := []Tristate{False, True, Unknown}
	for _, a := range vals {
		for _, b := range vals {
			if a.And(b).Not() != a.Not().Or(b.Not()) {
				t.Errorf("De Morgan fails for %v,%v", a, b)
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Add(NewInt(2), NewInt(3))); !Identical(got, NewInt(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Sub(NewInt(2), NewInt(3))); !Identical(got, NewInt(-1)) {
		t.Errorf("2-3 = %v", got)
	}
	if got := mustV(Mul(NewInt(2), NewReal(1.5))); !Identical(got, NewReal(3)) {
		t.Errorf("2*1.5 = %v", got)
	}
	if got := mustV(Div(NewInt(7), NewInt(2))); !Identical(got, NewInt(3)) {
		t.Errorf("7/2 = %v", got)
	}
	if got := mustV(Div(NewInt(7), NewInt(0))); !got.IsNull() {
		t.Errorf("7/0 = %v, want NULL", got)
	}
	if got := mustV(Mod(NewInt(7), NewInt(4))); !Identical(got, NewInt(3)) {
		t.Errorf("7%%4 = %v", got)
	}
	if got := mustV(Add(NewNull(), NewInt(1))); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
	if _, err := Add(NewText("a"), NewInt(1)); err == nil {
		t.Error("'a'+1 should error")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		got := Like(NewText(c.s), NewText(c.p))
		if got != TristateOf(c.want) {
			t.Errorf("LIKE(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if Like(NewNull(), NewText("%")) != Unknown {
		t.Error("NULL LIKE should be UNKNOWN")
	}
}

func TestCoerceTo(t *testing.T) {
	got, err := CoerceTo(NewText("42"), Int)
	if err != nil || !Identical(got, NewInt(42)) {
		t.Errorf("coerce '42' to INT = %v,%v", got, err)
	}
	got, err = CoerceTo(NewReal(3.0), Int)
	if err != nil || !Identical(got, NewInt(3)) {
		t.Errorf("coerce 3.0 to INT = %v,%v", got, err)
	}
	if _, err := CoerceTo(NewReal(3.5), Int); err == nil {
		t.Error("coerce 3.5 to INT should fail")
	}
	got, err = CoerceTo(NewInt(3), Real)
	if err != nil || !Identical(got, NewReal(3)) {
		t.Errorf("coerce 3 to REAL = %v,%v", got, err)
	}
	if v, err := CoerceTo(NewNull(), Int); err != nil || !v.IsNull() {
		t.Error("NULL coerces to anything")
	}
}

func TestKeyGroupsEqualNumerics(t *testing.T) {
	if NewInt(2).Key() != NewReal(2.0).Key() {
		t.Error("2 and 2.0 should share a key")
	}
	if NewInt(2).Key() == NewText("2").Key() {
		t.Error("2 and '2' must not share a key")
	}
	if NewNull().Key() != NewNull().Key() {
		t.Error("NULL keys must match for grouping")
	}
}

// Property: Compare is antisymmetric and consistent with Equal on
// random integer pairs.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ca, oka := Compare(NewInt(a), NewInt(b))
		cb, okb := Compare(NewInt(b), NewInt(a))
		if !oka || !okb {
			return false
		}
		return ca == -cb && (ca == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Less is a strict weak order over random mixed values.
func TestLessStrictOrderProperty(t *testing.T) {
	gen := func(sel uint8, i int64, f float64, s string) Value {
		switch sel % 5 {
		case 0:
			return NewNull()
		case 1:
			return NewInt(i)
		case 2:
			if math.IsNaN(f) {
				f = 0
			}
			return NewReal(f)
		case 3:
			return NewText(s)
		default:
			return NewBool(i%2 == 0)
		}
	}
	f := func(s1, s2 uint8, i1, i2 int64, f1, f2 float64, t1, t2 string) bool {
		a, b := gen(s1, i1, f1, t1), gen(s2, i2, f2, t2)
		// Irreflexivity and asymmetry.
		if Less(a, a) || Less(b, b) {
			return false
		}
		if Less(a, b) && Less(b, a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: likeMatch with pattern == the string itself (no wildcards
// in input alphabet) always matches.
func TestLikeSelfMatchProperty(t *testing.T) {
	f := func(s string) bool {
		for _, r := range s {
			if r == '%' || r == '_' {
				return true // skip wildcard-bearing inputs
			}
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// AppendKey must emit byte-for-byte what Key returns; the checker's
// warm path builds cache keys through it without allocating.
func TestAppendKeyMatchesKey(t *testing.T) {
	vals := []Value{
		NewNull(), NewInt(0), NewInt(-42), NewInt(1 << 60),
		NewReal(2.0), NewReal(3.25), NewReal(-1e300),
		NewText(""), NewText("alice"), NewBool(true), NewBool(false),
	}
	for _, v := range vals {
		if got := string(v.AppendKey(nil)); got != v.Key() {
			t.Errorf("AppendKey(%s) = %q, Key = %q", v, got, v.Key())
		}
	}
}

func TestAppendKeyMatchesKeyProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, pick uint8) bool {
		var v Value
		switch pick % 5 {
		case 0:
			v = NewNull()
		case 1:
			v = NewInt(i)
		case 2:
			v = NewReal(fl)
		case 3:
			v = NewText(s)
		case 4:
			v = NewBool(b)
		}
		return string(v.AppendKey(nil)) == v.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueJSON pins Value's JSON form for every kind and its round
// trip: a REAL that is integral decodes as the INTEGER it renders as.
// The crash and failover parity tests compare result rows as JSON, so
// this form is what they compare.
func TestValueJSON(t *testing.T) {
	for _, c := range []struct {
		v    Value
		js   string
		back Value
	}{
		{NewNull(), `null`, NewNull()},
		{NewInt(7), `7`, NewInt(7)},
		{NewInt(math.MinInt64), `-9223372036854775808`, NewInt(math.MinInt64)},
		{NewReal(2.5), `2.5`, NewReal(2.5)},
		{NewReal(3), `3`, NewInt(3)},
		{NewReal(1e16), `1e+16`, NewInt(1e16)},
		{NewReal(-1e300), `-1e+300`, NewReal(-1e300)},
		{NewText("x"), `"x"`, NewText("x")},
		{NewText("quote\" tab\t ü"), `"quote\" tab\t ü"`, NewText("quote\" tab\t ü")},
		{NewBool(true), `true`, NewBool(true)},
		{NewBool(false), `false`, NewBool(false)},
	} {
		b, err := json.Marshal(c.v)
		if err != nil || string(b) != c.js {
			t.Errorf("Marshal(%s) = %s, %v; want %s", c.v, b, err, c.js)
		}
		var got Value
		if err := json.Unmarshal(b, &got); err != nil || got != c.back {
			t.Errorf("Unmarshal(%s) = %#v, %v; want %#v", b, got, err, c.back)
		}
	}
	b, err := json.Marshal([][]Value{{NewInt(7), NewText("x")}})
	if err != nil || string(b) != `[[7,"x"]]` {
		t.Errorf("rows marshal to %s, %v", b, err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := json.Marshal(NewReal(x)); err == nil {
			t.Errorf("REAL %v marshalled; it has no JSON form", x)
		}
	}
	// Numbers another encoder could send decode by the same rule.
	for js, want := range map[string]Value{
		`2e3`:                  NewInt(2000),
		`-0.0`:                 NewInt(0),
		`18446744073709551615`: NewReal(18446744073709551615),
		`9223372036854775808`:  NewReal(9223372036854775808),
		`1e19`:                 NewReal(1e19),
	} {
		var got Value
		if err := got.UnmarshalJSON([]byte(js)); err != nil || got != want {
			t.Errorf("UnmarshalJSON(%s) = %#v, %v; want %#v", js, got, err, want)
		}
	}
	for _, js := range []string{`1e999`, `{}`, `[1]`, `"unterminated`} {
		var got Value
		if err := got.UnmarshalJSON([]byte(js)); err == nil {
			t.Errorf("UnmarshalJSON(%s) = %#v, want an error", js, got)
		}
	}
}

// Unsigned Go values convert: into INTEGER when they fit, degrading
// to REAL past int64 range (the wire decoder produces uint64 for
// tokens above MaxInt64).
func TestFromAnyUnsigned(t *testing.T) {
	v := MustFromAny(uint64(7))
	if v.Type() != Int || v.Int() != 7 {
		t.Errorf("uint64(7) -> %v", v)
	}
	v = MustFromAny(uint(1 << 40))
	if v.Type() != Int || v.Int() != 1<<40 {
		t.Errorf("uint(1<<40) -> %v", v)
	}
	big := uint64(1<<63) + 10
	v = MustFromAny(big)
	if v.Type() != Real || v.Real() != float64(big) {
		t.Errorf("uint64 beyond int64 -> %v, want REAL %g", v, float64(big))
	}
}
