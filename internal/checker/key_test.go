package checker

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqlvalue"
)

// Keys concatenate value keys; framing each behind its length is what
// keeps a text value from spelling a boundary and passing for two
// values (or two for one).
func TestAppendKeyedFramesValues(t *testing.T) {
	for _, v := range []sqlvalue.Value{
		sqlvalue.NewNull(), sqlvalue.NewInt(-7), sqlvalue.NewReal(0.5), sqlvalue.NewText(""),
		sqlvalue.NewText(strings.Repeat("x", 126)), sqlvalue.NewText(strings.Repeat("y", 127)), sqlvalue.NewText(strings.Repeat("z", 20000)),
	} {
		got := appendKeyed([]byte("pre"), v)
		n, k := binary.Uvarint(got[3:])
		if want := v.AppendKey(nil); k <= 0 || !bytes.Equal(got[3+k:], want) || int(n) != len(want) {
			t.Errorf("%.20s: framed as %d %q", v.String(), n, got)
		}
	}
	one := sqlparser.Args{Positional: []sqlvalue.Value{sqlvalue.NewText("a\x02tb")}}
	two := sqlparser.Args{Positional: []sqlvalue.Value{sqlvalue.NewText("a"), sqlvalue.NewText("b")}}
	a, _ := appendArgsSig(nil, nil, one)
	b, _ := appendArgsSig(nil, nil, two)
	if bytes.Equal(a, b) {
		t.Fatalf("one argument and two render the same signature %q", a)
	}
}
