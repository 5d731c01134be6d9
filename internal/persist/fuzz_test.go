package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// FuzzWALReplay feeds arbitrary bytes through segment replay and checks the
// structural invariants that recovery relies on: replay never panics, the
// reported clean-prefix offset stays inside the input, every applied record
// is counted, and a replay of just the clean prefix is itself clean and
// reproduces the same records.
func FuzzWALReplay(f *testing.F) {
	frame := func(payloads ...[]byte) []byte {
		buf := []byte(segMagic)
		for _, p := range payloads {
			var hdr [recordHeaderLen]byte
			binary.BigEndian.PutUint32(hdr[0:4], uint32(len(p)))
			binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
			buf = append(buf, hdr[:]...)
			buf = append(buf, p...)
		}
		return buf
	}
	// Seeds mirror the committed corpus in testdata/fuzz/FuzzWALReplay.
	f.Add([]byte{})                      // empty segment
	f.Add([]byte(segMagic))              // magic only
	f.Add([]byte(segMagic + "\x00\x00")) // truncated length prefix
	badCRC := frame(encodeRetain(nil, 42))
	badCRC[len(segMagic)+4] ^= 0xFF
	f.Add(badCRC)
	f.Add(frame(
		encodeRetain(nil, 9),
		encodeDownsample(nil, metric.ID{Name: "power", Labels: metric.NewLabels("node", "n01")}, 60000),
		encodeAppend(nil, []timeseries.BatchEntry{{ID: metric.ID{Name: "temp"}, Kind: metric.Gauge, Unit: metric.UnitCelsius, T: 1000, V: 21.5}}),
	)) // valid multi-record segment
	defV2, appV2, undefV2, reboundV2 := walRefSeedPayloads()
	f.Add(frame(defV2, appV2))            // valid v2: define + ref append
	f.Add(frame(undefV2))                 // ref append with no define: refs skipped
	f.Add(frame(defV2, reboundV2, appV2)) // same WAL ref rebound to a second series
	truncated := frame(defV2)
	f.Add(truncated[:len(truncated)-3]) // tear inside a define record

	f.Fuzz(func(t *testing.T, data []byte) {
		applied := 0
		// Apply every decoded record the way recovery does — through a live
		// store and ref table — so decode-then-apply can never panic on any
		// input, v2 ref records included.
		store := timeseries.NewStore(8)
		rt := NewRefTable()
		res := replaySegment(data, func(rec walRecord) { applied++; rec.apply(store, rt) })
		if res.records != uint64(applied) {
			t.Fatalf("counted %d records, applied %d", res.records, applied)
		}
		if res.offset < 0 || res.offset > int64(len(data)) {
			t.Fatalf("clean-prefix offset %d outside input of %d bytes", res.offset, len(data))
		}
		if !res.torn && len(data) > 0 && res.offset != int64(len(data)) {
			t.Fatalf("clean segment but offset %d != len %d", res.offset, len(data))
		}
		if res.torn && res.tornSize != int64(len(data))-res.offset {
			t.Fatalf("torn size %d inconsistent with offset %d / len %d", res.tornSize, res.offset, len(data))
		}
		// Replaying the clean prefix must be deterministic and clean —
		// this is exactly what recovery does after truncating a torn tail.
		if res.offset >= int64(len(segMagic)) && bytes.HasPrefix(data, []byte(segMagic)) {
			again := 0
			store2 := timeseries.NewStore(8)
			rt2 := NewRefTable()
			res2 := replaySegment(data[:res.offset], func(rec walRecord) { again++; rec.apply(store2, rt2) })
			if res2.torn || again != applied || res2.offset != res.offset {
				t.Fatalf("clean prefix replay diverged: torn=%v records=%d/%d offset=%d/%d",
					res2.torn, again, applied, res2.offset, res.offset)
			}
			if !reflect.DeepEqual(store2.Dump(), store.Dump()) {
				t.Fatal("clean prefix replay produced a different store")
			}
		}
	})
}

// walRefSeedPayloads builds the deterministic v2 record payloads shared by
// the fuzz seeds and the committed corpus (gen_corpus_test.go).
func walRefSeedPayloads() (def, app, undef, rebound []byte) {
	idA := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042")}
	idB := metric.ID{Name: "node_cpu_temp_celsius"}
	def = encodeDefine(nil, 1, idA, metric.Gauge, metric.UnitWatt)
	app = encodeAppendRef(nil, []refSample{{ref: 1, t: 1000, v: 411.5}, {ref: 1, t: 2000, v: 417.25}})
	undef = encodeAppendRef(nil, []refSample{{ref: 99, t: 1000, v: 1}})
	rebound = encodeDefine(nil, 1, idB, metric.Counter, metric.UnitCelsius)
	return
}
