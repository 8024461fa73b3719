package durable

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/sqlvalue"
)

// TestWALValueBytesPinned holds the WAL's value encoding fixed over the
// values sqlvalue pins its own answers on (TestValueAnswersPinned): a
// change of the Value's layout must leave every byte, and what decoding
// those bytes gives back, as they were.
func TestWALValueBytesPinned(t *testing.T) {
	for _, c := range []struct {
		v    sqlvalue.Value
		want string
	}{
		{sqlvalue.NewNull(), "00"},
		{sqlvalue.NewBool(false), "0400"},
		{sqlvalue.NewBool(true), "0401"},
		{sqlvalue.NewInt(0), "010000000000000000"},
		{sqlvalue.NewInt(-1), "01ffffffffffffffff"},
		{sqlvalue.NewInt(math.MinInt64), "010000000000000080"},
		{sqlvalue.NewInt(math.MaxInt64), "01ffffffffffffff7f"},
		{sqlvalue.NewReal(0), "020000000000000000"},
		{sqlvalue.NewReal(math.Copysign(0, -1)), "020000000000000080"},
		{sqlvalue.NewReal(2.5), "020000000000000440"},
		{sqlvalue.NewReal(math.NaN()), "02010000000000f87f"},
		{sqlvalue.NewReal(1 << 63), "02000000000000e043"},
		{sqlvalue.NewReal(1e300), "029c7500883ce4377e"},
		{sqlvalue.NewText(""), "0300"},
		{sqlvalue.NewText("x"), "030178"},
	} {
		b := appendValue(nil, c.v)
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("appendValue(%s) = %s; want %s", c.v, got, c.want)
		}
		r := payloadReader{b: b}
		back := r.value()
		if r.err != nil || len(r.b) != 0 || hex.EncodeToString(appendValue(nil, back)) != c.want {
			t.Errorf("%s decodes to %s (%v, %d bytes left); want the value it encodes", c.want, back, r.err, len(r.b))
		}
	}
}
