package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names one public call the benchmark wraps. The part of the
// name before the dot is the layer (module) the time belongs to.
type spanKind uint8

const (
	spNone     spanKind = iota
	spHandle            // whole: Server.HandleInCtx
	spParse             // ParseSelectNorm / ParseNorm
	spDecide            // Checker.CheckBorrowed
	spBind              // Bind
	spQuery             // DB.QueryCtx
	spExec              // DB.ExecStmt
	spAppend            // Trace.Append (WAL acknowledgement wait when durable)
	spIngress           // one round trip over the socket ingress
	spDriver            // one round trip through database/sql
	spDecomped          // parent of one decomposed op's parts
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spHandle: "proxy.handle", spParse: "sqlparser.parse", spDecide: "checker.decide",
	spBind: "sqlparser.bind", spQuery: "engine.query", spExec: "engine.exec",
	spAppend: "trace.append", spIngress: "ingress.rtt", spDriver: "driver.rtt",
	spDecomped: "replay.op",
}

// span is one timed call: which op, which call, under which parent, and
// when, in nanoseconds since the replay began.
type span struct {
	op           int32
	kind, parent spanKind
	start, end   int64
}

// spanLog keeps spans in memory; nothing is written until the
// benchmark is done measuring.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (l *spanLog) add(op int, kind, parent spanKind, start, end time.Time) {
	l.spans = append(l.spans, span{op: int32(op), kind: kind, parent: parent,
		start: int64(start.Sub(l.t0)), end: int64(end.Sub(l.t0))})
}

// write dumps the spans as JSON lines
// {op, name, parent, start_ns, end_ns}.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, sp := range l.spans {
		fmt.Fprintf(w, `{"op":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			sp.op, spanNames[sp.kind], spanNames[sp.parent], sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus what its children cover. For
// proxy.handle the children are the decomposed parts of the same op,
// so whole = sum(parts) + self holds for every op by construction; a
// large self is time the proxy core spends outside the calls the
// benchmark can name (argument decode, row copy, response build,
// metrics), and is itself a finding.
func selfTime(whole int64, parts ...int64) int64 {
	for _, p := range parts {
		whole -= p
	}
	return whole
}

// series is a list of per-op values that may be negative (a paired
// difference), which the histogram cannot hold.
type series []int64

func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(series(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(q*float64(len(c))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return float64(c[i])
}
