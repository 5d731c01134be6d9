package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/metric"
)

func BenchmarkEncodeBatch(b *testing.B) {
	batch := sampleBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := EncodeBatch(batch); len(out) == 0 {
			b.Fatal("empty payload")
		}
	}
}

func BenchmarkAppendBatchReuse(b *testing.B) {
	batch := sampleBatch()
	buf := AppendBatch(nil, batch) // pre-grow to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], batch)
		if len(buf) == 0 {
			b.Fatal("empty payload")
		}
	}
}

func BenchmarkBatchWriterSend(b *testing.B) {
	batch := sampleBatch()
	bw := NewBatchWriter(io.Discard)
	if err := bw.Send(batch); err != nil { // warm the encode buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bw.Send(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	payload := EncodeBatch(sampleBatch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := EncodeBatch(sampleBatch())
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, FrameBatch, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// scrapeBatch is one collector round: n series, one sample each.
func scrapeBatch(agent string, n int, t int64) *Batch {
	b := &Batch{Agent: agent, Records: make([]Record, n)}
	for i := range b.Records {
		b.Records[i] = Record{
			ID:      metric.NewID("power", metric.NewLabels("node", fmt.Sprintf("n%04d", i))),
			Kind:    metric.Gauge,
			Unit:    metric.UnitWatt,
			Samples: []metric.Sample{{T: t, V: float64(i) + 0.5}},
		}
	}
	return b
}

// BenchmarkDecodeRefBatch is the server's half of the ingest hop: one
// 1,800-record ref batch decoded against a warm connection dictionary.
// make bench-allocs holds it to 2 allocs/op (records and sample slab).
func BenchmarkDecodeRefBatch(b *testing.B) {
	var buf bytes.Buffer
	d := newClientDict()
	if err := d.sendDict(NewBatchWriter(&buf), scrapeBatch("agent", 1800, 1_700_000_000_000)); err != nil {
		b.Fatal(err)
	}
	fr := frameReader{r: &buf}
	cd := NewConnDict()
	var payload []byte
	for {
		ft, p, err := fr.next()
		if err != nil {
			b.Fatal(err)
		}
		if ft == FrameDict {
			if _, err := cd.AddDefs(p); err != nil {
				b.Fatal(err)
			}
			continue
		}
		payload = p
		break
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cd.DecodeRefBatch(payload); err != nil {
			b.Fatal(err)
		}
	}
}
