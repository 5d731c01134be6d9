package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/wire"
)

// pingTimeout bounds every barrier ping; a ping that times out is a failed
// operation.
const pingTimeout = 30 * time.Second

// captureLimit bounds the wire bytes a traced run keeps per connection for
// the offline decode measurement.
const captureLimit = 16 << 20

// countingConn counts (and, when traced, captures) the bytes an agent
// writes to its connection, and records a wire.write span per Write.
type countingConn struct {
	net.Conn
	written atomic.Int64
	tr      *Tracer
	cur     atomic.Pointer[spanCtx] // the agent step currently writing
	mu      sync.Mutex
	capture bytes.Buffer
}

// spanCtx names the span a write happens under.
type spanCtx struct {
	req    string
	parent int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	if c.tr != nil {
		if sc := c.cur.Load(); sc != nil {
			c.tr.Record(0, sc.parent, sc.req, "wire.write", "", start, time.Now())
		}
		c.mu.Lock()
		if c.capture.Len()+n <= captureLimit {
			c.capture.Write(p[:n])
		}
		c.mu.Unlock()
	}
	return n, err
}

// Agent is one collection agent: a collector.Agent scraping its share of
// the fleet into a synchronous WireSink over one wire.Client connection —
// the same chain a deployed agent runs.
type Agent struct {
	Name   string
	agent  *collector.Agent
	client *wire.Client
	conn   *countingConn
	fleet  *Fleet
	series []int
	tr     *Tracer

	next   int64        // next tick number to collect
	acked  atomic.Int64 // newest tick number the server has acknowledged (-1: none)
	sent   int64        // samples sent
	pings  int64
	failed int64 // ping failures
}

// dialAgent connects an agent for the given fleet sources to addr.
func dialAgent(name, addr string, fleet *Fleet, srcs []int, tr *Tracer) (*Agent, error) {
	a := &Agent{Name: name, fleet: fleet, series: fleet.SeriesOf(srcs), tr: tr}
	a.acked.Store(-1)
	client, err := wire.DialWith(func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		a.conn = &countingConn{Conn: c, tr: tr}
		return a.conn, nil
	}, addr)
	if err != nil {
		return nil, fmt.Errorf("agent %s: %w", name, err)
	}
	client.EnableDict()
	a.client = client
	a.agent = collector.NewAgent(name, 0)
	for _, k := range srcs {
		a.agent.AddSource(fleet.replay(fleet.Sources[k]))
	}
	a.agent.AddSink(&collector.WireSink{Client: client})
	return a, nil
}

// Step collects and ships the next tick, then pings: the pong proves the
// server has handled the batch (it answers a ping only after every earlier
// frame on the connection). due is when the step was due; the returned
// latency runs from due to the pong.
func (a *Agent) Step(due time.Time, ping bool) (time.Duration, error) {
	tick := a.next
	a.next++
	now := a.fleet.TimeOf(tick)
	req := tickReq(a.Name, now)
	root := a.tr.NewID()
	start := time.Now()
	tickID := a.tr.NewID()
	if a.tr != nil {
		a.conn.cur.Store(&spanCtx{req: req, parent: tickID})
	}
	n := a.agent.Tick(now)
	tickEnd := time.Now()
	a.tr.Record(tickID, root, req, "collector.tick", "", start, tickEnd)
	a.sent += int64(n)
	var err error
	if ping {
		pingID := a.tr.NewID()
		if a.tr != nil {
			a.conn.cur.Store(&spanCtx{req: req, parent: pingID})
		}
		_, err = a.client.Ping(pingTimeout)
		a.pings++
		a.tr.Record(pingID, root, req, "wire.ping", "", tickEnd, time.Now())
		if err != nil {
			a.failed++
		} else {
			a.acked.Store(tick)
		}
	}
	end := time.Now()
	a.tr.Record(root, 0, req, "harness.tick", a.Name, due, end)
	return end.Sub(due), err
}

// SinkErrors counts batches the agent's wire sink failed to send.
func (a *Agent) SinkErrors() uint64 { return a.agent.Stats().SinkErrors }

// Close closes the connection.
func (a *Agent) Close() {
	_ = a.client.Close()
	a.agent.Close()
}

// Captured returns the bytes a traced agent wrote.
func (a *Agent) Captured() []byte {
	a.conn.mu.Lock()
	defer a.conn.mu.Unlock()
	return append([]byte(nil), a.conn.capture.Bytes()...)
}
