package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obsv"
	"repro/internal/proxy"
)

// Member is one cluster node: a stable id and its v2 listener address.
type Member struct {
	ID   string
	Addr string
}

// Config parameterizes a Node. Self and Members are required;
// everything else has serviceable defaults.
type Config struct {
	// Self is this node's member id; Members must contain it.
	Self string
	// Members is the static member set.
	Members []Member
	// LeaseTTL is how long one ship batch's lease assertion holds; 0
	// means 1500ms.
	LeaseTTL time.Duration
	// ProbeInterval paces peer health probes and bounds each probe's
	// round trip; 0 means 500ms.
	ProbeInterval time.Duration
	// ShipFlush paces the WAL-ship flusher; 0 means 5ms.
	ShipFlush time.Duration
	// Logf receives diagnostics; nil means the attached server's.
	Logf func(format string, args ...any)
}

const (
	// peerTimeout bounds one ship batch.
	peerTimeout = 2 * time.Second
	// suspectAfter is how many consecutive probe failures mark a peer
	// dead (subject to the lease gate).
	suspectAfter = 2
)

func (c *Config) normalize() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 1500 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ShipFlush <= 0 {
		c.ShipFlush = 5 * time.Millisecond
	}
}

// memberState is the node's live view of one peer.
type memberState struct {
	Member
	alive bool
	fails int // consecutive probe failures
}

// Node implements proxy.ClusterHandler: it owns the membership view,
// the routing ring, the lease table, and the ship stream. One Node
// attaches to one proxy.Server.
type Node struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*memberState
	order   []string // member ids, sorted, for stable iteration

	// ring is the immutable routing view, set in New and swapped
	// wholesale on any membership change; the per-request Owner check
	// is one atomic load.
	ring atomic.Pointer[Ring]

	// term is the lease term this node asserts as an owner; it
	// advances past any persisted term at WAL open, so a restarted
	// owner's ships outrank its pre-crash self.
	term atomic.Uint64

	leases *leaseTable
	ship   *shipper
	wal    atomic.Pointer[durable.Manager]

	// clients pools one pipelined v2 connection per peer.
	cmu     sync.Mutex
	clients map[string]*proxy.Client

	// sids are the peer-connection session ids in use by forwarded
	// sessions; a closed handle's id is reused, so an owner keeps one
	// lane per session forwarded at once, not one per forwarded hello.
	sidMu    sync.Mutex
	freeSIDs []uint64
	nextSID  uint64

	proberDone chan struct{}
	proberWG   sync.WaitGroup
	started    atomic.Bool
	closed     atomic.Bool

	// forwardedSessions counts the open forwarded-session handles.
	forwardedSessions atomic.Int64

	// obsv instruments (forward latency, ship lag, lease transitions).
	// cluster.status reads its counts from these same counters.
	mForwardMicros *obsv.Histogram
	mForwards      *obsv.Counter
	mForwardErrs   *obsv.Counter
	mShipEnqueued  *obsv.Counter
	mShipAcked     *obsv.Counter
	mShipDropped   *obsv.Counter
	mShipErrors    *obsv.Counter
	mShipBytes     *obsv.Counter
	mLeaseGrants   *obsv.Counter
	mLeaseRenewals *obsv.Counter
	mLeaseRejects  *obsv.Counter
	mTakeovers     *obsv.Counter
}

// New builds a Node. Call Attach before the server Listens, then
// Start once the member addresses are final (SetMembers can install
// them later when listeners bind ephemeral ports).
func New(cfg Config) (*Node, error) {
	cfg.normalize()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	n := &Node{
		cfg:        cfg,
		members:    make(map[string]*memberState),
		leases:     newLeaseTable(),
		clients:    make(map[string]*proxy.Client),
		proberDone: make(chan struct{}),
	}
	n.ship = newShipper(n)
	n.SetMembers(cfg.Members)
	if _, ok := n.members[cfg.Self]; !ok && len(cfg.Members) > 0 {
		return nil, fmt.Errorf("cluster: member set does not contain self %q", cfg.Self)
	}
	return n, nil
}

// Attach wires the node into a proxy server: the server routes
// durable hellos and cluster.* ops through it, and the node installs
// its ship hook when the server's WAL opens. Call before Listen.
func (n *Node) Attach(srv *proxy.Server) {
	srv.Cluster = n
	if n.cfg.Logf == nil {
		n.cfg.Logf = srv.Logf
	}
	reg := srv.MetricsRegistry()
	if !reg.Enabled() {
		// cluster.status reports these counts, so they count even when
		// the server exports no metrics.
		reg = obsv.NewRegistry()
	}
	n.mForwardMicros = reg.Histogram("cluster.forward.micros")
	n.mForwards = reg.Counter("cluster.forwards")
	n.mForwardErrs = reg.Counter("cluster.forward.errors")
	n.mShipEnqueued = reg.Counter("cluster.ship.enqueued")
	n.mShipAcked = reg.Counter("cluster.ship.acked")
	n.mShipDropped = reg.Counter("cluster.ship.dropped")
	n.mShipErrors = reg.Counter("cluster.ship.errors")
	n.mShipBytes = reg.Counter("cluster.ship.bytes")
	n.mLeaseGrants = reg.Counter("cluster.lease.grants")
	n.mLeaseRenewals = reg.Counter("cluster.lease.renewals")
	n.mLeaseRejects = reg.Counter("cluster.lease.rejects")
	n.mTakeovers = reg.Counter("cluster.lease.takeovers")
}

// Start launches the prober and ship flusher.
func (n *Node) Start() {
	if n.started.Swap(true) {
		return
	}
	n.proberWG.Add(2)
	go func() { defer n.proberWG.Done(); n.ship.run() }()
	go func() { defer n.proberWG.Done(); n.probeLoop() }()
}

// Close stops the prober and flusher and closes peer connections.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	if n.started.Load() {
		close(n.proberDone)
	}
	n.ship.close()
	if n.started.Load() {
		n.proberWG.Wait()
	}
	n.cmu.Lock()
	for id, c := range n.clients {
		c.Close()
		delete(n.clients, id)
	}
	n.cmu.Unlock()
	return nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// SetMembers replaces the member set, preserving known peers' liveness
// state, then rebuilds the ring. Tests and in-process clusters use it
// after binding ephemeral listener ports.
func (n *Node) SetMembers(members []Member) {
	n.mu.Lock()
	next := make(map[string]*memberState, len(members))
	order := make([]string, 0, len(members))
	for _, m := range members {
		if m.ID == "" {
			continue
		}
		st := n.members[m.ID]
		if st == nil {
			st = &memberState{Member: m, alive: true}
		} else {
			st.Addr = m.Addr
		}
		next[m.ID] = st
		order = append(order, m.ID)
	}
	sort.Strings(order)
	n.members = next
	n.order = order
	n.mu.Unlock()
	n.rebuild()
}

// rebuild recomputes the routing ring over the members that are
// alive. Caller must not hold n.mu.
func (n *Node) rebuild() {
	n.mu.Lock()
	ids := make([]string, 0, len(n.order))
	for _, id := range n.order {
		if n.members[id].alive {
			ids = append(ids, id)
		}
	}
	n.mu.Unlock()
	n.ring.Store(NewRing(ids))
}

// Ring exposes the current routing ring (tests).
func (n *Node) Ring() *Ring { return n.ring.Load() }

// --- proxy.ClusterHandler ---

// Owner resolves a session name to its owning node.
func (n *Node) Owner(name string) (addr string, local bool) {
	owner := n.ring.Load().Owner(name)
	if owner == "" || owner == n.cfg.Self {
		return "", true
	}
	n.mu.Lock()
	st := n.members[owner]
	if st != nil {
		addr = st.Addr
	}
	n.mu.Unlock()
	return addr, false
}

// WALOpened installs the ship hook and advances the owner term past
// anything persisted — a restarted owner's ships must outrank its
// pre-crash self at every follower. The WAL opens once, after Attach.
func (n *Node) WALOpened(m *durable.Manager) {
	n.wal.Store(m)
	t := m.LeaseTerm(n.cfg.Self) + 1
	if err := m.RecordLease(n.cfg.Self, t); err != nil {
		n.logf("cluster: persist own lease term: %v", err)
	}
	n.term.Store(t)
	// Seed recovered grant terms so a restart cannot accept terms it
	// already outranked.
	for origin, term := range m.Recovery().LeaseTerms {
		if origin != n.cfg.Self {
			n.leases.seed(origin, term, time.Now())
		}
	}
	m.SetShipHook(n.ship.enqueue)
}

// OpenRemote forwards a durable hello to the session's owner.
func (n *Node) OpenRemote(ctx context.Context, req *proxy.Request) (proxy.RemoteSession, *proxy.Response, error) {
	owner := n.ring.Load().Owner(req.Name)
	c, err := n.client(owner)
	if err != nil {
		n.mForwardErrs.Inc()
		return nil, nil, err
	}
	sid := n.takeSID()
	r := &remoteSession{n: n, peer: owner, client: c, sid: sid, lane: c.Lane(sid)}
	resp, err := r.relay(ctx, &proxy.Request{Op: "hello", Name: req.Name, Session: req.Session})
	if err != nil {
		n.releaseSID(sid)
		return nil, nil, err
	}
	n.forwardedSessions.Add(1)
	return r, resp, nil
}

// takeSID returns the last freed forwarding session id, else a new one.
func (n *Node) takeSID() uint64 {
	n.sidMu.Lock()
	defer n.sidMu.Unlock()
	if k := len(n.freeSIDs) - 1; k >= 0 {
		sid := n.freeSIDs[k]
		n.freeSIDs = n.freeSIDs[:k]
		return sid
	}
	n.nextSID++
	return n.nextSID
}

// releaseSID frees a closed handle's id.
func (n *Node) releaseSID(sid uint64) {
	n.sidMu.Lock()
	n.freeSIDs = append(n.freeSIDs, sid)
	n.sidMu.Unlock()
}

// remoteSession relays one forwarded session's requests to its owner
// over a dedicated lane of the pooled peer client.
type remoteSession struct {
	n      *Node
	peer   string
	client *proxy.Client
	sid    uint64
	lane   *proxy.Lane
}

// Do relays one request. The local request is pooled and its ID/SID
// belong to the local connection, so the relay sends a copy with both
// cleared (the lane stamps its own).
func (r *remoteSession) Do(ctx context.Context, req *proxy.Request) (*proxy.Response, error) {
	creq := *req
	creq.ID, creq.SID = 0, 0
	return r.relay(ctx, &creq)
}

// relay sends one request over the lane and accounts for it; a
// transport failure drops the pooled connection so the next use
// redials.
func (r *remoteSession) relay(ctx context.Context, req *proxy.Request) (*proxy.Response, error) {
	start := time.Now()
	resp, err := r.lane.Do(ctx, req)
	if err != nil {
		r.n.dropClient(r.peer, r.client)
		r.n.mForwardErrs.Inc()
		return nil, err
	}
	r.n.mForwardMicros.ObserveSince(start)
	r.n.mForwards.Inc()
	return resp, nil
}

// Close forgets the handle and frees its session id for the next
// forwarded hello, whose hello resets the owner's lane. The durable
// session on the owner outlives it by design.
func (r *remoteSession) Close() {
	r.n.forwardedSessions.Add(-1)
	r.n.releaseSID(r.sid)
}

// client returns the pooled pipelined connection to peer, dialing it
// on first use.
func (n *Node) client(peer string) (*proxy.Client, error) {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	if c := n.clients[peer]; c != nil {
		return c, nil
	}
	n.mu.Lock()
	st := n.members[peer]
	n.mu.Unlock()
	if st == nil || st.Addr == "" {
		return nil, fmt.Errorf("cluster: unknown peer %q", peer)
	}
	c, err := proxy.Dial(st.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s (%s): %w", peer, st.Addr, err)
	}
	n.clients[peer] = c
	return c, nil
}

// dropClient discards a failed pooled connection so the next use
// redials. The compare guards a racing replacement.
func (n *Node) dropClient(peer string, c *proxy.Client) {
	n.cmu.Lock()
	if n.clients[peer] == c {
		delete(n.clients, peer)
	}
	n.cmu.Unlock()
	c.Close()
}

// --- health probing ---

func (n *Node) probeLoop() {
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.proberDone:
			return
		case <-t.C:
			n.probeOnce()
		}
	}
}

// probeOnce pings every peer and folds the results into the view. A
// liveness transition (alive→dead or dead→alive) rebuilds the ring.
func (n *Node) probeOnce() {
	n.mu.Lock()
	peers := make([]Member, 0, len(n.order))
	for _, id := range n.order {
		if id != n.cfg.Self {
			peers = append(peers, n.members[id].Member)
		}
	}
	n.mu.Unlock()

	changed := false
	for _, p := range peers {
		ok := n.ping(p)
		n.mu.Lock()
		st := n.members[p.ID]
		if st == nil {
			n.mu.Unlock()
			continue
		}
		if ok {
			st.fails = 0
			if !st.alive {
				st.alive = true
				changed = true
				n.logf("cluster: peer %s is back", p.ID)
			}
		} else {
			st.fails++
			// The lease gate: a follower that granted this origin a
			// lease must let it expire before serving its sessions —
			// before removing it from the ring.
			if st.alive && st.fails >= suspectAfter && !n.leases.active(p.ID, time.Now()) {
				st.alive = false
				changed = true
				if n.leases.term(p.ID) > 0 {
					n.mTakeovers.Inc()
				}
				n.logf("cluster: peer %s marked dead after %d failed probes", p.ID, st.fails)
			}
		}
		n.mu.Unlock()
	}
	if changed {
		n.rebuild()
	}
}

// ping sends one cluster.ping and reports whether the peer answered.
func (n *Node) ping(p Member) bool {
	c, err := n.client(p.ID)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeInterval)
	defer cancel()
	resp, err := c.Do(ctx, &proxy.Request{Op: "cluster.ping", Node: n.cfg.Self})
	if err != nil {
		n.dropClient(p.ID, c)
		return false
	}
	return resp.Error == ""
}
