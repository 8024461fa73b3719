// Command accluster inspects a running enforcement cluster
// (DESIGN.md §16) through any member's v2 listener.
//
// Usage:
//
//	accluster -addr 127.0.0.1:7070 status     # full view: members, leases, forwarding, ship lag
//	accluster -addr 127.0.0.1:7070 members    # membership table only
//	accluster -addr 127.0.0.1:7070 ping       # is the node up and clustered?
//
// status answers from the contacted node's local view: each peer's
// liveness, the leases it has granted (sessions it follows), and its
// own forwarding and WAL-ship counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/proxy"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "any cluster member's v2 address")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("accluster"))
		return
	}
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "status"
	}
	var op string
	switch cmd {
	case "status", "members":
		op = "cluster.status"
	case "ping":
		op = "cluster.ping"
	default:
		fmt.Fprintf(os.Stderr, "accluster: unknown command %q (want status|members|ping)\n", cmd)
		os.Exit(2)
	}

	c, err := proxy.Dial(*addr)
	if err != nil {
		log.Fatalf("accluster: dial %s: %v", *addr, err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	resp, err := c.Do(ctx, &proxy.Request{Op: op})
	if err != nil {
		log.Fatalf("accluster: %s: %v", cmd, err)
	}
	if resp.Error != "" {
		log.Fatalf("accluster: %s: %s", cmd, resp.Error)
	}
	b := resp.Cluster
	if b == nil {
		log.Fatalf("accluster: %s: node answered without a cluster body (cluster mode off?)", cmd)
	}

	switch cmd {
	case "ping":
		fmt.Printf("node %s is up\n", b.Self)
	case "members":
		printMembers(b)
	default: // status
		fmt.Printf("node %s\n", b.Self)
		printMembers(b)
		if len(b.Leases) > 0 {
			fmt.Println("leases granted (sessions this node follows):")
			for _, l := range b.Leases {
				state := "expired"
				if l.ExpiresInMillis > 0 {
					state = fmt.Sprintf("expires in %dms", l.ExpiresInMillis)
				}
				fmt.Printf("  %-12s term %-4d %s\n", l.Origin, l.Term, state)
			}
		}
		fmt.Printf("forwarding: open-sessions=%d relayed=%d errors=%d takeovers=%d\n",
			b.ForwardedSessions, b.ForwardedOps, b.ForwardErrors, b.Takeovers)
		fmt.Printf("wal ship:   enqueued=%d acked=%d dropped=%d bytes=%d (lag %d records)\n",
			b.ShipEnqueued, b.ShipAcked, b.ShipDropped, b.ShipBytes, b.ShipEnqueued-b.ShipAcked-b.ShipDropped)
	}
}

func printMembers(b *proxy.ClusterBody) {
	fmt.Println("members:")
	for _, m := range b.Members {
		mark := " "
		if m.Self {
			mark = "*"
		}
		state := "alive"
		if !m.Alive {
			state = "dead"
		}
		fmt.Printf("  %s %-12s %-21s %s\n", mark, m.ID, m.Addr, state)
	}
}
