package collector

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/wire"
)

// discardConn is a connection whose writes vanish: it measures the agent
// side of the hop with no server behind it.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// benchReadings is one 1,800-reading scrape with struct-literal IDs (no
// cached key), the way the hardware, facility and scheduler sources build
// them.
func benchReadings() []Reading {
	sensors := []string{"power", "cpu_temp", "gpu_temp", "fan", "util", "mem_bw", "net_bw"}
	out := make([]Reading, 1800)
	for i := range out {
		out[i] = Reading{
			ID: metric.ID{
				Name:   sensors[i%len(sensors)],
				Labels: metric.NewLabels("node", fmt.Sprintf("n%04d", i/len(sensors)), "rack", fmt.Sprintf("r%02d", i/224)),
			},
			Kind:  metric.Gauge,
			Unit:  metric.UnitWatt,
			Value: float64(i),
		}
	}
	return out
}

// BenchmarkWireSinkConsume is the agent's half of the ingest hop: one
// scrape through a v2 (dictionary) client whose connection discards the
// bytes. The steady state must not allocate (make bench-allocs).
func BenchmarkWireSinkConsume(b *testing.B) {
	client, err := wire.DialWith(func(string) (net.Conn, error) { return discardConn{}, nil }, "discard")
	if err != nil {
		b.Fatal(err)
	}
	client.EnableDict()
	sink := &WireSink{Client: client}
	readings := benchReadings()
	if err := sink.Consume("agent", 0, readings); err != nil { // define every series
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.Consume("agent", int64(i+1)*10_000, readings); err != nil {
			b.Fatal(err)
		}
	}
}

// shiftingSource varies its scrape from round to round: the reading count,
// the order and the label values all change, so the WireSink's positional
// ID cache sees hits, misses and slots that move. It remembers every round
// it served, keyed by collection time.
type shiftingSource struct {
	rng *rand.Rand

	mu     sync.Mutex
	served map[int64][]Reading
}

func (s *shiftingSource) Name() string { return "shifting" }

func (s *shiftingSource) Collect(now int64) []Reading {
	names := []string{"power", "temp", "fan", "util"}
	units := []metric.Unit{metric.UnitWatt, metric.UnitCelsius, metric.UnitRPM, metric.UnitPercent}
	n := 1 + s.rng.Intn(40)
	out := make([]Reading, n)
	for i := range out {
		k := s.rng.Intn(len(names))
		out[i] = Reading{
			ID: metric.ID{
				Name:   names[k],
				Labels: metric.NewLabels("node", fmt.Sprintf("n%d", s.rng.Intn(12)), "rack", fmt.Sprintf("r%d", s.rng.Intn(2))),
			},
			Kind:  metric.Kind(k % 2),
			Unit:  units[k],
			Value: s.rng.NormFloat64() * 100,
		}
	}
	s.mu.Lock()
	s.served[now] = append([]Reading(nil), out...)
	s.mu.Unlock()
	return out
}

// reinterned returns b with every ID rebuilt through metric.NewID, so two
// batches compare by value whichever decoder produced them (the v2
// dictionary interns keys, v1 decoding leaves them to be computed).
func reinterned(b *wire.Batch) *wire.Batch {
	out := &wire.Batch{Agent: b.Agent, Records: append([]wire.Record(nil), b.Records...)}
	for i := range out.Records {
		out.Records[i].ID = metric.NewID(out.Records[i].ID.Name, out.Records[i].ID.Labels)
	}
	return out
}

// TestWireSinkPositionalCacheProperty drives a WireSink over a real v2
// connection with scrapes that change count, order and label values every
// round, kills the transport once mid-run so the client redials and the
// dictionary renegotiates, and checks that every batch the server hands
// its handler equals the v1 round trip DecodeBatch(EncodeBatch(...)) of the
// readings of that round. It runs with a synchronous sink and behind
// AddSinkQueued, where the pump goroutine calls Consume.
func TestWireSinkPositionalCacheProperty(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			const rounds = 60
			var mu sync.Mutex
			got := map[int64]*wire.Batch{}
			srv, err := wire.NewServer("127.0.0.1:0", func(b *wire.Batch) {
				mu.Lock()
				defer mu.Unlock()
				got[b.Records[0].Samples[0].T] = b
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			var connMu sync.Mutex
			var conn net.Conn
			client, err := wire.DialWith(func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				connMu.Lock()
				conn = c
				connMu.Unlock()
				return c, err
			}, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.EnableDict()

			src := &shiftingSource{rng: rand.New(rand.NewSource(7)), served: map[int64][]Reading{}}
			agent := NewAgent("prop", time.Second)
			agent.AddSource(src)
			sink := &WireSink{Client: client, MaxRetries: 2, RetryBackoff: time.Millisecond}
			if queued {
				agent.AddSinkQueued(sink, QueueConfig{Depth: 4, Policy: Block})
			} else {
				agent.AddSink(sink)
			}
			waitBatches := func(n uint64) {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for srv.Batches() < n {
					if time.Now().After(deadline) {
						t.Fatalf("server has %d batches, want %d", srv.Batches(), n)
					}
					time.Sleep(time.Millisecond)
				}
			}
			for r := 1; r <= rounds; r++ {
				agent.Tick(int64(r) * 1000)
				if r == rounds/2 {
					// Kill the transport with the pipe idle: the next send
					// fails, the retry redials and the new connection
					// starts from an empty dictionary.
					waitBatches(uint64(r))
					connMu.Lock()
					_ = conn.Close()
					connMu.Unlock()
				}
			}
			agent.Close()
			waitBatches(rounds)

			if client.Redials() != 1 {
				t.Fatalf("client redialed %d times, want 1", client.Redials())
			}
			if st := agent.Stats(); st.SinkErrors != 0 || st.DroppedBatches != 0 {
				t.Fatalf("agent stats = %+v", st)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != rounds || srv.Batches() != rounds {
				t.Fatalf("handler saw %d batches (server counted %d), want %d", len(got), srv.Batches(), rounds)
			}
			for now, readings := range src.served {
				sent := &wire.Batch{Agent: "prop"}
				for _, rd := range readings {
					sent.Records = append(sent.Records, wire.Record{
						ID: rd.ID, Kind: rd.Kind, Unit: rd.Unit,
						Samples: []metric.Sample{{T: now, V: rd.Value}},
					})
				}
				want, err := wire.DecodeBatch(wire.EncodeBatch(sent))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(reinterned(got[now]), reinterned(want)) {
					t.Fatalf("round t=%d: handler batch %+v, want %+v", now, got[now], want)
				}
			}
		})
	}
}
