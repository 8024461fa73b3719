// Package sqlvalue implements the typed value system shared by the SQL
// parser, the relational engine, and the compliance checker.
//
// Values follow SQL semantics: five storage types (NULL, INTEGER, REAL,
// TEXT, BOOLEAN), three-valued logic for predicates, and numeric
// coercion between INTEGER and REAL on comparison and arithmetic.
package sqlvalue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the storage class of a Value.
type Type uint8

// Storage classes.
const (
	Null Type = iota
	Int
	Real
	Text
	Bool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Int:
		return "INTEGER"
	case Real:
		return "REAL"
	case Text:
		return "TEXT"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType maps a SQL type name to a Type. It accepts the common
// aliases found in CREATE TABLE statements.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return Int, nil
	case "REAL", "FLOAT", "DOUBLE", "NUMERIC", "DECIMAL":
		return Real, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CLOB":
		return Text, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	}
	return Null, fmt.Errorf("sqlvalue: unknown type name %q", name)
}

// Value is an immutable SQL value. The zero Value is NULL.
//
// A Value is 32 bytes: the class, one 8-byte payload and a string. n
// holds an INTEGER's bits, a BOOLEAN's 0 or 1, or a REAL's
// math.Float64bits, so two Values with the same fields need not be
// equal under SQL (NaN) and two equal ones need not have the same
// fields (0.0 and -0.0). The zero-size func array makes == on Values a
// compile error: compare with Identical, Equal or Compare.
type Value struct {
	_   [0]func()
	typ Type
	n   uint64 // Int, Bool (0/1), Real (math.Float64bits)
	s   string // Text
}

// i is the INTEGER or BOOLEAN payload.
func (v Value) i() int64 { return int64(v.n) }

// f is the REAL payload.
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{typ: Int, n: uint64(v)} }

// NewReal returns a REAL value.
func NewReal(v float64) Value { return Value{typ: Real, n: math.Float64bits(v)} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{typ: Text, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{typ: Bool, n: 1}
	}
	return Value{typ: Bool}
}

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// FromAny converts a native Go value to a Value. Supported inputs are
// nil, bool, the signed integer types, float32/float64, and string.
func FromAny(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return NewNull(), nil
	case bool:
		return NewBool(x), nil
	case int:
		return NewInt(int64(x)), nil
	case int8:
		return NewInt(int64(x)), nil
	case int16:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case uint:
		return fromUint64(uint64(x)), nil
	case uint8:
		return NewInt(int64(x)), nil
	case uint16:
		return NewInt(int64(x)), nil
	case uint32:
		return NewInt(int64(x)), nil
	case uint64:
		return fromUint64(x), nil
	case float32:
		return NewReal(float64(x)), nil
	case float64:
		return NewReal(x), nil
	case string:
		return NewText(x), nil
	case Value:
		return x, nil
	}
	return Value{}, fmt.Errorf("sqlvalue: unsupported Go type %T", v)
}

// fromUint64 maps an unsigned value into the INTEGER class when it
// fits; beyond int64 range it degrades to REAL (the value system has
// no unsigned class, and the pre-existing JSON path already treated
// such magnitudes as float64).
func fromUint64(x uint64) Value {
	if x <= math.MaxInt64 {
		return NewInt(int64(x))
	}
	return NewReal(float64(x))
}

// MustFromAny is FromAny, panicking on error. It is intended for
// literals in tests and seed data.
func MustFromAny(v any) Value {
	val, err := FromAny(v)
	if err != nil {
		panic(err)
	}
	return val
}

// Type reports the storage class.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.typ == Null }

// Int returns the INTEGER payload; it is only meaningful when Type()==Int.
func (v Value) Int() int64 { return v.i() }

// Real returns the REAL payload; for an INTEGER value it returns the
// integer converted to float64.
func (v Value) Real() float64 {
	if v.typ == Int {
		return float64(v.i())
	}
	return v.f()
}

// Text returns the TEXT payload; it is only meaningful when Type()==Text.
func (v Value) Text() string { return v.s }

// Bool returns the BOOLEAN payload; it is only meaningful when Type()==Bool.
func (v Value) Bool() bool { return v.i() != 0 }

// TypeOf, IntOf, RealOf, BoolOf and TextOf are Type, Int, Real, Bool
// and Text read through a pointer: each reads one field of a stored
// cell where a value-receiver accessor may first copy the whole Value.
// The scans and encoders that read stored cells one by one use these.
func TypeOf(v *Value) Type { return v.typ }

// IntOf is Int through a pointer (see TypeOf).
func IntOf(v *Value) int64 { return v.i() }

// RealOf is Real through a pointer (see TypeOf).
func RealOf(v *Value) float64 {
	if v.typ == Int {
		return float64(v.i())
	}
	return v.f()
}

// BoolOf is Bool through a pointer (see TypeOf).
func BoolOf(v *Value) bool { return v.i() != 0 }

// TextOf is Text through a pointer (see TypeOf).
func TextOf(v *Value) string { return v.s }

// Any returns the value as a native Go value (nil, int64, float64,
// string, or bool).
func (v Value) Any() any {
	switch v.typ {
	case Null:
		return nil
	case Int:
		return v.i()
	case Real:
		return v.f()
	case Text:
		return v.s
	case Bool:
		return v.i() != 0
	}
	return nil
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i(), 10)
	case Real:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case Text:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case Bool:
		if v.i() != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Key returns a string usable as a map key: Key(a)==Key(b) only if
// Equal(a,b) is TRUE, except that all NULLs share one key (they compare
// unequal to everything under SQL =, but group together). Integral
// REALs within int64 key as the INTEGER they equal, so 2.0 groups with
// 2; two numerics Equal only after rounding to float64 (2^53+1 and
// 2^53.0) keep distinct keys.
func (v Value) Key() string {
	var b [32]byte
	return string(v.AppendKey(b[:0]))
}

// AppendKey appends v's Key to buf without allocating. It exists for
// hot paths that build composite cache keys into reused buffers (the
// checker's warm decide path).
func (v Value) AppendKey(buf []byte) []byte {
	switch v.typ {
	case Null:
		return append(buf, 'n')
	case Int:
		buf = append(buf, 'i')
		return strconv.AppendInt(buf, v.i(), 10)
	case Real:
		// -2^63 is an int64 and 2^63 is not: the upper bound is strict,
		// against 2^63 itself (math.MaxInt64 rounds up to it as a float).
		if x := v.f(); x == math.Trunc(x) && x >= -(1<<63) && x < 1<<63 {
			buf = append(buf, 'i')
			return strconv.AppendInt(buf, int64(x), 10)
		}
		buf = append(buf, 'f')
		return strconv.AppendFloat(buf, v.f(), 'b', -1, 64)
	case Text:
		buf = append(buf, 't')
		return append(buf, v.s...)
	case Bool:
		buf = append(buf, 'b')
		return strconv.AppendInt(buf, v.i(), 10)
	}
	return append(buf, '?')
}

// AppendJSON appends v's JSON form to buf — the form a result cell
// takes on the proxy's v2 wire: null, true or false, a decimal
// INTEGER, a REAL in strconv's shortest 'g' form (as an integer when it
// is integral within ±1e15), or a JSON string. NaN and ±Inf have no
// JSON form: ok is false and buf comes back unchanged.
func (v Value) AppendJSON(buf []byte) (_ []byte, ok bool) {
	switch v.typ {
	case Int:
		return strconv.AppendInt(buf, v.i(), 10), true
	case Real:
		x := v.f()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return buf, false
		}
		if x >= -1e15 && x <= 1e15 && x == math.Trunc(x) {
			return strconv.AppendInt(buf, int64(x), 10), true
		}
		return strconv.AppendFloat(buf, x, 'g', -1, 64), true
	case Text:
		return appendJSONString(buf, v.s), true
	case Bool:
		return strconv.AppendBool(buf, v.i() != 0), true
	}
	return append(buf, "null"...), true
}

// appendJSONString appends s quoted, escaping through encoding/json
// only when s needs it.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			b, _ := json.Marshal(s)
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// MarshalJSON implements json.Marshaler with AppendJSON's form, so a
// response encoded reflectively renders its cells as the hand-rolled
// encoder does.
func (v Value) MarshalJSON() ([]byte, error) {
	if b, ok := v.AppendJSON(nil); ok {
		return b, nil
	}
	return nil, fmt.Errorf("sqlvalue: REAL %v has no JSON form", v.f())
}

// UnmarshalJSON implements json.Unmarshaler for MarshalJSON's form. A
// number whose token is a plain integer becomes INTEGER (REAL past
// MaxInt64, as FromAny treats a uint64); any other number becomes
// INTEGER when its value is integral and in int64 range, else REAL.
func (v *Value) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case "null":
		*v = NewNull()
		return nil
	case "true", "false":
		*v = NewBool(data[0] == 't')
		return nil
	}
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*v = NewText(s)
		return nil
	}
	if !bytes.ContainsAny(data, ".eE") { // a plain integer token
		if i, err := strconv.ParseInt(string(data), 10, 64); err == nil {
			*v = NewInt(i)
			return nil
		}
		if u, err := strconv.ParseUint(string(data), 10, 64); err == nil {
			*v = fromUint64(u)
			return nil
		}
	}
	f, err := strconv.ParseFloat(string(data), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("sqlvalue: cannot decode JSON %q", data)
	}
	if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
		*v = NewInt(int64(f))
	} else {
		*v = NewReal(f)
	}
	return nil
}

// Tristate is the result of a SQL predicate: TRUE, FALSE, or UNKNOWN.
type Tristate uint8

// Three-valued logic constants.
const (
	False Tristate = iota
	True
	Unknown
)

// String returns the SQL spelling of the tristate.
func (t Tristate) String() string {
	switch t {
	case False:
		return "FALSE"
	case True:
		return "TRUE"
	}
	return "UNKNOWN"
}

// TristateOf converts a Go bool to a Tristate.
func TristateOf(b bool) Tristate {
	if b {
		return True
	}
	return False
}

// And implements SQL three-valued AND.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or implements SQL three-valued OR.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not implements SQL three-valued NOT.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// comparable reports whether the two storage classes can be ordered
// against each other.
func comparable2(a, b Type) bool {
	if a == b {
		return true
	}
	num := func(t Type) bool { return t == Int || t == Real }
	return num(a) && num(b)
}

// Compare orders a before b (-1), equal (0), or after (1). The second
// result is False when the comparison is undefined: either operand is
// NULL (SQL UNKNOWN) or the storage classes are incomparable.
func Compare(a, b Value) (int, bool) {
	if a.typ == Null || b.typ == Null {
		return 0, false
	}
	if !comparable2(a.typ, b.typ) {
		return 0, false
	}
	switch {
	case a.typ == Int && b.typ == Int:
		switch {
		case a.i() < b.i():
			return -1, true
		case a.i() > b.i():
			return 1, true
		}
		return 0, true
	case a.typ == Text:
		return strings.Compare(a.s, b.s), true
	case a.typ == Bool:
		switch {
		case a.i() < b.i():
			return -1, true
		case a.i() > b.i():
			return 1, true
		}
		return 0, true
	default: // numeric with at least one Real
		af, bf := a.Real(), b.Real()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	}
}

// Equal implements SQL '=' with three-valued semantics.
func Equal(a, b Value) Tristate {
	c, ok := Compare(a, b)
	if !ok {
		if a.typ == Null || b.typ == Null {
			return Unknown
		}
		return False // incomparable classes are simply unequal
	}
	return TristateOf(c == 0)
}

// Identical reports Go-level equality: same class and same payload.
// Unlike Equal, NULL is identical to NULL. Used for grouping, DISTINCT,
// and index keys.
func Identical(a, b Value) bool {
	if a.typ != b.typ {
		// Allow INTEGER/REAL grouping of equal numerics.
		if comparable2(a.typ, b.typ) {
			c, ok := Compare(a, b)
			return ok && c == 0
		}
		return false
	}
	switch a.typ {
	case Null:
		return true
	case Real:
		return a.f() == b.f()
	case Text:
		return a.s == b.s
	default:
		return a.i() == b.i()
	}
}

// Less is a total order over all values (NULL first, then BOOLEAN,
// numeric, TEXT) used for ORDER BY and deterministic output. It is a
// total order: incomparable classes are ordered by class rank.
func Less(a, b Value) bool {
	ra, rb := classRank(a.typ), classRank(b.typ)
	if ra != rb {
		return ra < rb
	}
	c, ok := Compare(a, b)
	if !ok {
		return false // both NULL
	}
	return c < 0
}

func classRank(t Type) int {
	switch t {
	case Null:
		return 0
	case Bool:
		return 1
	case Int, Real:
		return 2
	case Text:
		return 3
	}
	return 4
}

// Arithmetic errors.
var errArith = fmt.Errorf("sqlvalue: invalid operands for arithmetic")

// Add returns a+b with SQL NULL propagation.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b with SQL NULL propagation.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b with SQL NULL propagation.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b with SQL NULL propagation. Division by zero yields
// NULL, matching SQLite's permissive behaviour.
func Div(a, b Value) (Value, error) { return arith(a, b, '/') }

// Mod returns a%b for integers with SQL NULL propagation.
func Mod(a, b Value) (Value, error) { return arith(a, b, '%') }

func arith(a, b Value, op byte) (Value, error) {
	if a.typ == Null || b.typ == Null {
		return NewNull(), nil
	}
	num := func(t Type) bool { return t == Int || t == Real }
	if !num(a.typ) || !num(b.typ) {
		return Value{}, fmt.Errorf("%w: %s %c %s", errArith, a.typ, op, b.typ)
	}
	if a.typ == Int && b.typ == Int {
		switch op {
		case '+':
			return NewInt(a.i() + b.i()), nil
		case '-':
			return NewInt(a.i() - b.i()), nil
		case '*':
			return NewInt(a.i() * b.i()), nil
		case '/':
			if b.i() == 0 {
				return NewNull(), nil
			}
			return NewInt(a.i() / b.i()), nil
		case '%':
			if b.i() == 0 {
				return NewNull(), nil
			}
			return NewInt(a.i() % b.i()), nil
		}
	}
	af, bf := a.Real(), b.Real()
	switch op {
	case '+':
		return NewReal(af + bf), nil
	case '-':
		return NewReal(af - bf), nil
	case '*':
		return NewReal(af * bf), nil
	case '/':
		if bf == 0 {
			return NewNull(), nil
		}
		return NewReal(af / bf), nil
	case '%':
		if bf == 0 {
			return NewNull(), nil
		}
		return NewReal(math.Mod(af, bf)), nil
	}
	return Value{}, errArith
}

// Like implements the SQL LIKE operator with % and _ wildcards.
// Matching is case-sensitive, as in PostgreSQL.
func Like(v, pattern Value) Tristate {
	if v.typ == Null || pattern.typ == Null {
		return Unknown
	}
	if v.typ != Text || pattern.typ != Text {
		return False
	}
	return TristateOf(likeMatch(v.s, pattern.s))
}

func likeMatch(s, p string) bool {
	// Iterative matching with backtracking on '%'.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star != -1:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// CoerceTo converts v to type t if a lossless-enough conversion exists
// (the conversions a forgiving SQL engine performs on INSERT):
// NULL passes through; Int<->Real; numeric strings parse; bool to int.
func CoerceTo(v Value, t Type) (Value, error) {
	if v.typ == Null || v.typ == t {
		return v, nil
	}
	switch t {
	case Int:
		switch v.typ {
		case Real:
			if x := v.f(); x == math.Trunc(x) {
				return NewInt(int64(x)), nil
			}
		case Bool:
			return NewInt(v.i()), nil
		case Text:
			if n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64); err == nil {
				return NewInt(n), nil
			}
		}
	case Real:
		switch v.typ {
		case Int:
			return NewReal(float64(v.i())), nil
		case Text:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil {
				return NewReal(f), nil
			}
		}
	case Text:
		return NewText(v.String()), nil
	case Bool:
		if v.typ == Int {
			return NewBool(v.i() != 0), nil
		}
	}
	return Value{}, fmt.Errorf("sqlvalue: cannot coerce %s to %s", v.typ, t)
}
