// Command diagnosis demonstrates the paper's §5: a query gets blocked,
// and the tool produces everything Dora needs — the two-database proof
// of violation, contained-rewriting patches, the synthesized access
// check from Example 2.1, and a policy patch proposal — then verifies
// that applying the access check unblocks the query.
package main

import (
	"context"
	"fmt"
	"log"

	beyond "repro"
	"repro/internal/diagnose"
	"repro/internal/policy"
)

func main() {
	ctx := context.Background()
	fixture, err := beyond.FixtureByName("calendar")
	if err != nil {
		log.Fatal(err)
	}
	chk := beyond.NewChecker(fixture.Policy())
	sess := beyond.Session(map[string]any{"MyUId": 1})

	blocked := "SELECT * FROM Events WHERE EId=2"
	diag, err := beyond.DiagnoseBlocked(ctx, chk, sess, blocked, beyond.Args(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(diag)

	// Apply the first synthesized access check as the application
	// patch: run the probe, record its result, and re-check.
	if len(diag.Checks) == 0 {
		log.Fatal("no access check synthesized")
	}
	fmt.Printf("applying patch: run %q before the query\n", diag.Checks[0].CheckSQL)

	db := fixture.MustNewDB(8)
	svc, err := beyond.Serve(db, chk, beyond.Enforce, beyond.WithV2Listener("127.0.0.1:0"))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	cl, err := beyond.DialProxy(svc.V2Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		log.Fatal(err)
	}
	// The patched application issues the probe first (seeded data has
	// user 1 attending event 2).
	if _, err := cl.Query(ctx, "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 1, 2); err != nil {
		log.Fatal(err)
	}
	rows, err := cl.Query(ctx, blocked)
	if err != nil {
		log.Fatalf("patched flow should be allowed: %v", err)
	}
	fmt.Printf("patched flow allowed; fetched event %q\n", rows.Rows[0][1].Text())

	// Policy-patch route (§5.2.1): extract from the app augmented with
	// the offending behaviour and diff against the current policy.
	broadened := fixture.Policy().Clone()
	extracted := policy.MustNew(fixture.Schema, map[string]string{
		"XEvents": "SELECT EId, Title, Notes FROM Events",
	})
	patches := diagnose.SuggestPolicyPatches(broadened, extracted)
	fmt.Printf("\npolicy patches suggested by re-extraction: %d\n", len(patches))
	for _, v := range patches {
		fmt.Printf("  add %s: %s\n", v.Name, v.SQL)
	}
	ok, err := diagnose.PatchAllowsQuery(ctx, broadened, patches, sess, blocked, beyond.Args(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applying the policy patch would allow the query: %v\n", ok)
	fmt.Println("(every patch that looks unreasonable — like exposing all events — tells Dora the app, not the policy, is the culprit)")
}
