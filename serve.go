package beyond

// The listener-config serving facade: one enforcement core (database,
// checker, mode, shared metrics and WAL) bound to any combination of
// ingress listeners. Two surfaces exist today:
//
//   - the v2 line protocol (native clients via DialProxy / the
//     database/sql driver in repro/driver), and
//   - the Postgres wire protocol v3 (psql, stock Postgres drivers).
//
// Both listeners converge on the same proxy core, so a statement is
// decided identically — same checker, same caches, same session
// traces, same WAL — no matter which door it came through. The core
// also owns both listeners' connections: one connection limit
// (WithMaxConns), one idle deadline (WithReadTimeout) and one drain
// (Service.Close) hold for v2 and pgwire together.
//
//	svc, err := beyond.Serve(db, chk, beyond.Enforce,
//		beyond.WithV2Listener("127.0.0.1:7781"),
//		beyond.WithPgListener("127.0.0.1:5433"),
//		beyond.WithDurability("/var/lib/ac/wal"))
//	defer svc.Close()

import (
	"errors"
	"fmt"

	"repro/internal/obsv"
	"repro/internal/pgwire"
	"repro/internal/proxy"
)

// serveConfig is what ServeOptions assemble.
type serveConfig struct {
	v2        bool
	v2Addr    string
	pg        bool
	pgAddr    string
	proxyOpts []ProxyOption
	// shadowViews, when non-nil, stages a candidate policy as soon as
	// the core is up (after WAL recovery, so the stage persists).
	shadowViews map[string]string
}

// ServeOption configures Serve: which listeners to bind and how the
// shared proxy core behaves. Every ProxyOption is also a valid
// ServeOption source — pass them through WithV2Listener or directly
// via WithProxyConfig.
type ServeOption func(*serveConfig)

// WithV2Listener binds the v2 line-protocol listener on addr
// (host:port; port 0 picks a free port, see Service.V2Addr). Any
// ProxyOptions given here configure the shared proxy core — they
// apply to pgwire traffic too, since both listeners run one core.
func WithV2Listener(addr string, opts ...ProxyOption) ServeOption {
	return func(c *serveConfig) {
		c.v2 = true
		c.v2Addr = addr
		c.proxyOpts = append(c.proxyOpts, opts...)
	}
}

// WithPgListener binds the Postgres wire-protocol (v3) listener on
// addr, so psql and stock Postgres drivers reach enforcement without
// a custom client. Its connections count against the core's one
// connection limit and idle deadline.
func WithPgListener(addr string) ServeOption {
	return func(c *serveConfig) {
		c.pg = true
		c.pgAddr = addr
	}
}

// WithShadowPolicy stages a candidate policy (view SQL by name) the
// moment the service is up: every live decision dual-decides under the
// active and candidate policies, divergences stream as diff records,
// and the operator promotes or rolls back when the trial concludes
// (Service.PromotePolicy / RollbackPolicy, or the acpolicy CLI against
// a running proxy). Staging happens after WAL recovery, so with
// durability on the trial survives a crash.
func WithShadowPolicy(views map[string]string) ServeOption {
	return func(c *serveConfig) { c.shadowViews = views }
}

// WithProxyConfig applies proxy-core options (durability, history
// window, timeouts, connection limits) without implying a v2
// listener — for pgwire-only deployments that still want a WAL:
//
//	beyond.Serve(db, chk, beyond.Enforce,
//		beyond.WithPgListener(":5433"),
//		beyond.WithProxyConfig(beyond.WithDurability(dir)))
func WithProxyConfig(opts ...ProxyOption) ServeOption {
	return func(c *serveConfig) { c.proxyOpts = append(c.proxyOpts, opts...) }
}

// Service is a running enforcement stack: one proxy core with its
// bound listeners. Close shuts everything down.
type Service struct {
	core   *ProxyServer
	v2Addr string
	pgAddr string
}

// Serve builds one enforcement core over db and c and binds the
// configured listeners. At least one listener option is required —
// a Service with no ingress is a configuration error, not a default.
func Serve(db *DB, c *Checker, mode ProxyMode, opts ...ServeOption) (*Service, error) {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.v2 && !cfg.pg {
		return nil, errors.New("beyond: Serve needs at least one listener (WithV2Listener or WithPgListener)")
	}
	core := proxy.NewServer(db, c, mode)
	for _, o := range cfg.proxyOpts {
		o(core)
	}
	svc := &Service{core: core}
	if cfg.v2 {
		addr, err := core.Listen(cfg.v2Addr)
		if err != nil {
			return nil, fmt.Errorf("beyond: v2 listener: %w", err)
		}
		svc.v2Addr = addr
	}
	if cfg.pg {
		addr, err := core.ListenIngress(cfg.pgAddr, pgwire.NewServer(core))
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("beyond: pg listener: %w", err)
		}
		svc.pgAddr = addr
	}
	if cfg.shadowViews != nil {
		if _, err := core.StagePolicy(cfg.shadowViews); err != nil {
			svc.Close()
			return nil, fmt.Errorf("beyond: stage shadow policy: %w", err)
		}
	}
	return svc, nil
}

// V2Addr is the bound v2 listener address ("" if not configured).
func (s *Service) V2Addr() string { return s.v2Addr }

// PgAddr is the bound Postgres wire listener address ("" if not
// configured).
func (s *Service) PgAddr() string { return s.pgAddr }

// Proxy exposes the shared core for in-process use (HandleInCtx,
// Durable, Stats) — both listeners delegate to it.
func (s *Service) Proxy() *ProxyServer { return s.core }

// Metrics is the registry every listener reports into.
func (s *Service) Metrics() *obsv.Registry { return s.core.MetricsRegistry() }

// StagePolicy stages a candidate policy (view SQL by name) for shadow
// dual-decide across every ingress; see WithShadowPolicy.
func (s *Service) StagePolicy(views map[string]string) (PolicyVersion, error) {
	return s.core.StagePolicy(views)
}

// PromotePolicy makes the staged candidate the enforcing policy. Its
// shadow-warmed cache entries serve enforcement immediately.
func (s *Service) PromotePolicy() (PolicyVersion, error) { return s.core.PromotePolicy() }

// RollbackPolicy discards the staged candidate and ends the trial.
func (s *Service) RollbackPolicy() (PolicyVersion, error) { return s.core.RollbackPolicy() }

// Close stops every listener, drains every connection, and only then
// closes the WAL (proxy.Server.Close).
func (s *Service) Close() error { return s.core.Close() }
