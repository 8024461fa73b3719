// Command calendar runs the paper's calendar application behind the
// network enforcement proxy, drives Listing 1's handler over TCP, and
// then extracts the policy back out of the handler code (Example 3.1's
// round trip).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	beyond "repro"
	"repro/internal/proxy"
)

func main() {
	ctx := context.Background()
	fixture, err := beyond.FixtureByName("calendar")
	if err != nil {
		log.Fatal(err)
	}
	db := fixture.MustNewDB(8)
	chk := beyond.NewChecker(fixture.Policy())

	// Start the proxy on a loopback socket.
	svc, err := beyond.Serve(db, chk, beyond.Enforce, beyond.WithV2Listener("127.0.0.1:0"))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	addr := svc.V2Addr()
	fmt.Printf("proxy listening on %s (mode %s)\n", addr, beyond.Enforce)

	cl, err := beyond.DialProxy(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(ctx, map[string]any{"MyUId": 1}); err != nil {
		log.Fatal(err)
	}

	// The application tries to fetch an event directly: blocked.
	_, err = cl.Query(ctx, "SELECT * FROM Events WHERE EId = ?", 2)
	if errors.Is(err, proxy.ErrBlocked) {
		fmt.Printf("direct fetch blocked: %v\n", err)
	} else {
		log.Fatalf("expected a policy block, got %v", err)
	}

	// Listing 1's discipline: access check first, then fetch.
	check, err := cl.Query(ctx, "SELECT 1 FROM Attendance WHERE UId = ? AND EId = ?", 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	if check.Empty() {
		fmt.Println("user 1 does not attend event 2; rendering 404")
		return
	}
	event, err := cl.Query(ctx, "SELECT * FROM Events WHERE EId = ?", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event fetched after access check: %s\n", event.Rows[0][1].Text())

	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proxy stats: %d queries, %d allowed, %d blocked, %d cache hits\n",
		st.Queries, st.Allowed, st.Blocked, st.CacheHits)

	// Example 3.1: extract the policy from the handler code and
	// compare with the operator's hand-written one.
	extracted, err := beyond.ExtractPolicy(fixture.Schema, fixture.App)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextracted policy (symbolic execution of the handlers):\n%s", extracted)
	acc := beyond.CompareExtraction(extracted, fixture.AppTruth())
	fmt.Printf("vs hand-written policy: recall %.2f, precision %.2f, exact=%v\n",
		acc.Recall(), acc.Precision(), acc.Exact())
}
