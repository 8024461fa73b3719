package checker

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

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
	// The one-attribute session's text spells the rest of the
	// two-attribute rendering; only the framing tells them apart.
	one := map[string]sqlvalue.Value{"A": sqlvalue.NewText("aB=\x02tb")}
	two := map[string]sqlvalue.Value{"A": sqlvalue.NewText("a"), "B": sqlvalue.NewText("b")}
	a := appendSessionSig(nil, []string{"A"}, one)
	b := appendSessionSig(nil, []string{"A", "B"}, two)
	if bytes.Equal(a, b) {
		t.Fatalf("one attribute and two render the same signature %q", a)
	}
}
