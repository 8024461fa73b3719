package sqlvalue

import (
	"math"
	"testing"
	"unsafe"
)

// pinValues are the values whose answers and bytes TestValueAnswersPinned
// holds fixed: each class, the integer extremes, and the REALs whose
// bits and whose value part ways (-0.0, NaN) or that sit at the edge of
// the integer range (2^63).
func pinValues() []Value {
	return []Value{
		NewNull(), NewBool(false), NewBool(true),
		NewInt(0), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewReal(0), NewReal(math.Copysign(0, -1)), NewReal(2.5), NewReal(math.NaN()), NewReal(1 << 63), NewReal(1e300),
		NewText(""), NewText("x"),
	}
}

// TestValueAnswersPinned holds what a Value's layout must not change:
// each value's cache key, SQL literal, TEXT payload and JSON form, and
// Identical, Equal, Compare and Less over every pair. The expected
// outputs are literals, so a change of representation that moves any
// of them fails here. The WAL and pgwire encodings of the same values
// are pinned beside their encoders (internal/durable, internal/pgwire).
func TestValueAnswersPinned(t *testing.T) {
	vals := pinValues()
	want := []struct{ key, sql, text, json string }{
		{"n", "NULL", "", "null"},
		{"b0", "FALSE", "", "false"},
		{"b1", "TRUE", "", "true"},
		{"i0", "0", "", "0"},
		{"i-1", "-1", "", "-1"},
		{"i-9223372036854775808", "-9223372036854775808", "", "-9223372036854775808"},
		{"i9223372036854775807", "9223372036854775807", "", "9223372036854775807"},
		{"i0", "0", "", "0"},
		{"i0", "-0", "", "0"},
		{"f5629499534213120p-51", "2.5", "", "2.5"},
		{"fNaN", "NaN", "", "!"}, // no JSON form
		{"f4503599627370496p+11", "9.223372036854776e+18", "", "9.223372036854776e+18"},
		{"f6724873095247260p+944", "1e+300", "", "1e+300"},
		{"t", "''", "", `""`},
		{"tx", "'x'", "x", `"x"`},
	}
	for i, v := range vals {
		js, ok := v.AppendJSON(nil)
		if !ok {
			js = []byte("!")
		}
		if got := (struct{ key, sql, text, json string }{string(v.AppendKey(nil)), v.String(), v.Text(), string(js)}); got != want[i] {
			t.Errorf("value %d (%s): key, literal, text, JSON = %q; want %q", i, v, got, want[i])
		}
	}
	// Row a, column b: the answer for (vals[a], vals[b]).
	tables := []struct {
		name string
		f    func(a, b Value) byte
		want []string
	}{
		{"Identical", func(a, b Value) byte { return "01"[b2i(Identical(a, b))] }, []string{
			"100000000000000",
			"010000000000000",
			"001000000000000",
			"000100011010000",
			"000010000010000",
			"000001000010000",
			"000000100011000",
			"000100011000000",
			"000100011000000",
			"000000000100000",
			"000111100000000",
			"000000100001000",
			"000000000000100",
			"000000000000010",
			"000000000000001",
		}},
		{"Equal", func(a, b Value) byte { return "FTU"[Equal(a, b)] }, []string{
			"UUUUUUUUUUUUUUU",
			"UTFFFFFFFFFFFFF",
			"UFTFFFFFFFFFFFF",
			"UFFTFFFTTFTFFFF",
			"UFFFTFFFFFTFFFF",
			"UFFFFTFFFFTFFFF",
			"UFFFFFTFFFTTFFF",
			"UFFTFFFTTFTFFFF",
			"UFFTFFFTTFTFFFF",
			"UFFFFFFFFTTFFFF",
			"UFFTTTTTTTTTTFF",
			"UFFFFFTFFFTTFFF",
			"UFFFFFFFFFTFTFF",
			"UFFFFFFFFFFFFTF",
			"UFFFFFFFFFFFFFT",
		}},
		{"Compare", func(a, b Value) byte {
			if c, ok := Compare(a, b); ok {
				return "<=>"[c+1]
			}
			return '.'
		}, []string{
			"...............",
			".=<............",
			".>=............",
			"...=>><==<=<<..",
			"...<=><<<<=<<..",
			"...<<=<<<<=<<..",
			"...>>>=>>>==<..",
			"...=>><==<=<<..",
			"...=>><==<=<<..",
			"...>>><>>==<<..",
			"...==========..",
			"...>>>=>>>==<..",
			"...>>>>>>>=>=..",
			".............=<",
			".............>=",
		}},
		{"Less", func(a, b Value) byte { return "01"[b2i(Less(a, b))] }, []string{
			"011111111111111",
			"001111111111111",
			"000111111111111",
			"000000100101111",
			"000100111101111",
			"000110111101111",
			"000000000000111",
			"000000100101111",
			"000000100101111",
			"000000100001111",
			"000000000000011",
			"000000000000111",
			"000000000000011",
			"000000000000001",
			"000000000000000",
		}},
	}
	for _, tb := range tables {
		for i, a := range vals {
			row := make([]byte, len(vals))
			for j, b := range vals {
				row[j] = tb.f(a, b)
			}
			if string(row) != tb.want[i] {
				t.Errorf("%s(%s, ·) = %s; want %s", tb.name, a, row, tb.want[i])
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestValueSize pins the compact layout: the class, one 8-byte payload
// and a string. Every stored cell, index key, trace row and fact
// constant is a Value, so a wider one costs memory everywhere.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("a Value is %d bytes; want 32", n)
	}
}
