package pgwire

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/sqlvalue"
)

// TestDataRowCellsPinned holds the DataRow bytes of a one-cell row
// fixed over the values sqlvalue pins its own answers on
// (TestValueAnswersPinned): a change of the Value's layout must leave
// every cell's length and text as they were.
func TestDataRowCellsPinned(t *testing.T) {
	for _, c := range []struct {
		v    sqlvalue.Value
		want string
	}{
		{sqlvalue.NewNull(), "440000000a0001ffffffff"},
		{sqlvalue.NewBool(false), "440000000b00010000000166"},
		{sqlvalue.NewBool(true), "440000000b00010000000174"},
		{sqlvalue.NewInt(0), "440000000b00010000000130"},
		{sqlvalue.NewInt(-1), "440000000c0001000000022d31"},
		{sqlvalue.NewInt(math.MinInt64), "440000001e0001000000142d39323233333732303336383534373735383038"},
		{sqlvalue.NewInt(math.MaxInt64), "440000001d00010000001339323233333732303336383534373735383037"},
		{sqlvalue.NewReal(0), "440000000b00010000000130"},
		{sqlvalue.NewReal(math.Copysign(0, -1)), "440000000c0001000000022d30"},
		{sqlvalue.NewReal(2.5), "440000000d000100000003322e35"},
		{sqlvalue.NewReal(math.NaN()), "440000000d0001000000034e614e"},
		{sqlvalue.NewReal(1 << 63), "440000001f000100000015392e323233333732303336383534373736652b3138"},
		{sqlvalue.NewReal(1e300), "440000001000010000000631652b333030"},
		{sqlvalue.NewText(""), "440000000a000100000000"},
		{sqlvalue.NewText("x"), "440000000b00010000000178"},
	} {
		if got := hex.EncodeToString(appendDataRow(nil, []sqlvalue.Value{c.v})); got != c.want {
			t.Errorf("DataRow(%s) = %s; want %s", c.v, got, c.want)
		}
	}
}
