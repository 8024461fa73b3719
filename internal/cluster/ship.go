package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/proxy"
)

// shipper is the owner half of WAL shipping. The durable manager's
// ship hook hands it every session/append record this node logs (the
// exact WAL payload bytes); it batches them per follower — each
// session ships to ITS ring successor, so failover rehashing lands
// every session on the node holding its records — and a single
// flusher goroutine streams the batches over the pooled peer clients.
// The hook path is one mutex-guarded append; nothing on the decide
// path waits for the network.
type shipRec struct {
	name    string
	typ     byte
	payload []byte
}

type shipper struct {
	n *Node

	mu     sync.Mutex
	queues map[string][]shipRec
	queued int
	closed bool

	wake chan struct{}
	done chan struct{}
}

const (
	// shipBatchWake flushes early once this many records are queued.
	shipBatchWake = 256
	// maxShipQueue bounds one follower's pending queue; beyond it the
	// oldest records drop (counted — the follower restarts the
	// affected session's history at the gap).
	maxShipQueue = 1 << 16
)

func newShipper(n *Node) *shipper {
	return &shipper{
		n:      n,
		queues: make(map[string][]shipRec),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// enqueue is the durable ship hook: route the record to the session's
// follower and signal the flusher. Records for sessions with no
// follower (single-node ring) drop silently — there is no one to ship
// to.
func (sh *shipper) enqueue(name string, typ byte, payload []byte) {
	follower := sh.n.ring.Load().Follower(name)
	if follower == "" || follower == sh.n.cfg.Self {
		return
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	q := sh.queues[follower]
	if len(q) >= maxShipQueue {
		q = q[1:]
		sh.n.mShipDropped.Inc()
	}
	sh.queues[follower] = append(q, shipRec{name: name, typ: typ, payload: payload})
	sh.queued++
	queued := sh.queued
	sh.mu.Unlock()
	sh.n.mShipEnqueued.Inc()
	sh.n.mShipBytes.Add(int64(len(payload)))
	if queued >= shipBatchWake {
		sh.signal()
	}
}

func (sh *shipper) signal() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// run is the flusher loop: every ShipFlush (or sooner when a batch
// builds up) it takes the pending queues and streams each to its
// follower. A batch that fails transport goes back to the FRONT of
// its queue — order within a session must hold — and retries next
// tick.
func (sh *shipper) run() {
	t := time.NewTicker(sh.n.cfg.ShipFlush)
	defer t.Stop()
	for {
		select {
		case <-sh.done:
			sh.flush() // best effort on shutdown
			return
		case <-t.C:
		case <-sh.wake:
		}
		sh.flush()
	}
}

func (sh *shipper) flush() {
	sh.mu.Lock()
	if sh.queued == 0 {
		sh.mu.Unlock()
		return
	}
	batches := sh.queues
	sh.queues = make(map[string][]shipRec, len(batches))
	sh.queued = 0
	sh.mu.Unlock()

	for follower, recs := range batches {
		if err := sh.send(follower, recs); err != nil {
			sh.n.logf("cluster: ship to %s failed (%d records requeued): %v", follower, len(recs), err)
			sh.n.mShipErrors.Inc()
			sh.requeue(follower, recs)
		} else {
			sh.n.mShipAcked.Add(int64(len(recs)))
		}
	}
}

func (sh *shipper) send(follower string, recs []shipRec) error {
	c, err := sh.n.client(follower)
	if err != nil {
		return err
	}
	ship := make([]proxy.ShipRecord, len(recs))
	for i, r := range recs {
		ship[i] = proxy.ShipRecord{Session: r.name, Type: r.typ, Payload: r.payload}
	}
	ctx, cancel := context.WithTimeout(context.Background(), peerTimeout)
	defer cancel()
	resp, err := c.Do(ctx, &proxy.Request{
		Op:        "cluster.ship",
		Node:      sh.n.cfg.Self,
		Term:      sh.n.term.Load(),
		TTLMillis: sh.n.cfg.LeaseTTL.Milliseconds(),
		Ship:      ship,
	})
	if err != nil {
		sh.n.dropClient(follower, c)
		return err
	}
	if resp.Error != "" {
		return fmt.Errorf("%s", resp.Error)
	}
	return nil
}

// requeue puts a failed batch back at the front of its queue, within
// the bound (newest-first truncation would reorder, so the bound cuts
// from the front — oldest — like enqueue does).
func (sh *shipper) requeue(follower string, recs []shipRec) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return
	}
	q := append(recs, sh.queues[follower]...)
	if over := len(q) - maxShipQueue; over > 0 {
		q = q[over:]
		sh.n.mShipDropped.Add(int64(over))
	}
	sh.queues[follower] = q
	sh.queued += len(q)
}

func (sh *shipper) close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	sh.mu.Unlock()
	close(sh.done)
}
