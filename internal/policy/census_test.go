package policy_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/cq"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/sqlvalue"
)

// TestIndexes pins the policy census of secondary indexes: the shape of
// the benchmark's cold workload, sixteen views per table each pinning
// Owner to the principal and Kind to a constant, declares (Owner, Kind);
// every bundled fixture declares nothing, so serving them changes no
// access path; a pinned REAL column and a column one view leaves
// unpinned are dropped, a key that leads with the pinned columns, or
// that they hold whole, leaves its table without an index, and a
// malformed view (no SQL view is one), which the checker leaves out,
// pins nothing.
func TestIndexes(t *testing.T) {
	cold := func(keyed ...string) *schema.Schema {
		return schema.NewBuilder().Table("R00").
			NotNullCol("Kind", sqlvalue.Int).NotNullCol("Id", sqlvalue.Int).NotNullCol("Owner", sqlvalue.Int).
			NotNullCol("Score", sqlvalue.Real).NotNullCol("B", sqlvalue.Text).
			PK("Id").Done().
			Table("Keyed").NotNullCol("Owner", sqlvalue.Int).NotNullCol("Kind", sqlvalue.Int).NotNullCol("Id", sqlvalue.Int).
			PK(keyed...).Done().MustBuild()
	}
	coldViews := map[string]string{}
	for k := 0; k < 16; k++ {
		coldViews[fmt.Sprintf("V%02d", k)] = fmt.Sprintf("SELECT Id, B FROM R00 WHERE Kind = %d AND Owner = ?MyUId AND Score = 1.5", k)
	}
	withView := func(name, sql string) map[string]string {
		out := map[string]string{name: sql}
		for n, v := range coldViews {
			out[n] = v
		}
		return out
	}
	// Atoms of two arities, neither R00's, ahead of the cold views.
	malformed := policy.MustNew(cold("Id"), coldViews)
	malformed.Views = append([]*policy.View{{Name: "Bad", CQs: cq.UCQ{{
		Head: []cq.Term{cq.V("a")},
		Atoms: []cq.Atom{
			{Table: "r00", Args: []cq.Term{cq.V("a")}},
			{Table: "r00", Args: []cq.Term{cq.V("a"), cq.V("b"), cq.V("c")}},
		},
	}}}}, malformed.Views...)
	cases := []struct {
		name string
		pol  *policy.Policy
		want string
	}{
		{"cold shape", policy.MustNew(cold("Id"), coldViews), "map[R00:[Owner Kind]]"},
		{"a malformed view", malformed, "map[R00:[Owner Kind]]"},
		{"one view pins less", policy.MustNew(cold("Id"), withView("Mine", "SELECT Id FROM R00 WHERE Owner = ?MyUId")), "map[R00:[Owner]]"},
		{"one view pins nothing", policy.MustNew(cold("Id"), withView("All", "SELECT Id FROM R00")), "map[]"},
		{"key leads with another column", policy.MustNew(cold("Kind", "Id"), map[string]string{
			"K": "SELECT Id FROM Keyed WHERE Owner = ?MyUId AND Kind = 2",
		}), "map[Keyed:[Owner Kind]]"},
		{"key leads with the pinned columns", policy.MustNew(cold("Kind", "Owner", "Id"), map[string]string{
			"K": "SELECT Id FROM Keyed WHERE Kind = 2 AND Owner = ?MyUId",
		}), "map[]"},
		{"key pinned whole", policy.MustNew(cold("Id", "Owner"), map[string]string{
			"K": "SELECT Kind FROM Keyed WHERE Id = 2 AND Owner = ?MyUId",
		}), "map[]"},
	}
	for _, f := range apps.All() {
		cases = append(cases, struct {
			name string
			pol  *policy.Policy
			want string
		}{f.Name, f.Policy(), "map[]"})
	}
	for _, c := range cases {
		if got := fmt.Sprint(c.pol.Indexes()); got != c.want {
			t.Errorf("%s: indexes %s, want %s", c.name, got, c.want)
		}
	}
}
