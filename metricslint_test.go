package beyond_test

import (
	"context"
	"os"
	"sort"
	"strings"
	"testing"

	beyond "repro"
	"repro/internal/apps"
	"repro/internal/proxy"
)

// TestMetricNamesDocumented is `make metricslint`: the instrument
// inventory in DESIGN.md §9.2 and the names a full serving stack
// registers must be the same set. It brings up every surface that
// registers instruments — v2 and Postgres listeners, a WAL and a
// staged shadow candidate — over one registry, runs one
// request, and compares both directions, so a new instrument needs its
// line in §9.2 and a documented name needs its instrument.
func TestMetricNamesDocumented(t *testing.T) {
	f := apps.Calendar()
	wide := make(map[string]string, len(f.PolicySQL)+1)
	for k, v := range f.PolicySQL {
		wide[k] = v
	}
	wide["VAllEvents"] = "SELECT * FROM Events"
	svc, err := beyond.Serve(f.MustNewDB(5), beyond.NewChecker(f.Policy()), beyond.Enforce,
		beyond.WithV2Listener("127.0.0.1:0",
			beyond.WithDurability(t.TempDir(), beyond.WithFsync(beyond.FsyncOff)),
			func(s *beyond.ProxyServer) { s.Logf = t.Logf }),
		beyond.WithPgListener("127.0.0.1:0"),
		beyond.WithShadowPolicy(wide))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cl, err := proxy.Dial(svc.V2Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.HelloDurable(ctx, "lint", map[string]any{"MyUId": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, "SELECT EId FROM Attendance WHERE UId = 1"); err != nil {
		t.Fatal(err)
	}

	registered := map[string]bool{}
	for name := range svc.Metrics().Snapshot() {
		registered[name] = true
	}
	documented := documentedMetrics(t)
	var undocumented, unregistered []string
	for name := range registered {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			unregistered = append(unregistered, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("registered but missing from DESIGN.md §9.2:\n  %s", strings.Join(undocumented, "\n  "))
	}
	if len(unregistered) > 0 {
		t.Errorf("listed in DESIGN.md §9.2 but never registered:\n  %s", strings.Join(unregistered, "\n  "))
	}
}

// documentedMetrics reads the inventory block of DESIGN.md §9.2 — the
// section's first fenced block, one or more name patterns per line, `#`
// starting a comment — and expands its brace groups.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	start := strings.Index(doc, "\n### 9.2 ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §9.2")
	}
	doc = doc[start+1:]
	if next := strings.Index(doc, "\n##"); next >= 0 {
		doc = doc[:next]
	}
	open := strings.Index(doc, "\n```")
	if open < 0 {
		t.Fatal("DESIGN.md §9.2 has no inventory block")
	}
	doc = doc[open+4:]
	doc = doc[strings.Index(doc, "\n")+1:] // the fence's info string
	end := strings.Index(doc, "\n```")
	if end < 0 {
		t.Fatal("DESIGN.md §9.2 inventory block is not closed")
	}
	names := map[string]bool{}
	for _, line := range strings.Split(doc[:end], "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		for _, pat := range strings.Fields(line) {
			for _, name := range expandBraces(pat) {
				names[name] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md §9.2 inventory block lists no names")
	}
	return names
}

// expandBraces expands every {a,b,...} group of a pattern, left to
// right: "x.{a,b}.{c,d}" is x.a.c, x.a.d, x.b.c and x.b.d. Groups do
// not nest.
func expandBraces(pat string) []string {
	open := strings.Index(pat, "{")
	if open < 0 {
		return []string{pat}
	}
	end := open + strings.Index(pat[open:], "}")
	var out []string
	for _, alt := range strings.Split(pat[open+1:end], ",") {
		out = append(out, expandBraces(pat[:open]+alt+pat[end+1:])...)
	}
	return out
}
