package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/metric"
)

// Protocol v2: per-connection series dictionary.
//
// A v2 sender defines each series once on a connection with a FrameDict
// payload, then ships FrameRefBatch payloads that address series by the
// small uint64 ref it assigned — no per-sample (or even per-batch) name,
// label or unit re-encoding. Dictionary state is strictly per connection:
// a redial starts from an empty dictionary on both ends and the client
// re-defines series as it first uses them again, so renegotiation is
// implicit in the framing. v1 FrameBatch senders interoperate unchanged.
//
// FrameDict payload:
//
//	ndefs   uvarint
//	per def: ref uvarint, name str, nlabels uvarint, {key str, value str}*,
//	         kind byte, unit str
//
// FrameRefBatch payload:
//
//	agent    str
//	nrecords uvarint
//	per record: ref uvarint, nsamples uvarint,
//	            samples: varint t (first absolute, then deltas) + 8-byte value
//
// Defining a ref twice on one connection and referencing an undefined ref
// are both protocol errors that drop the connection — a correct client can
// do neither, so tolerating them would only mask corruption.

// Dictionary protocol errors.
var (
	ErrUnknownRef   = errors.New("wire: ref batch references undefined series ref")
	ErrDictRedefine = errors.New("wire: dictionary redefines existing series ref")
)

type dictDef struct {
	id   metric.ID
	kind metric.Kind
	unit metric.Unit
}

// ConnDict is the receive side of the v2 dictionary: one per connection,
// populated by FrameDict payloads and consumed by DecodeRefBatch. Not safe
// for concurrent use; frames on one connection are handled sequentially.
type ConnDict struct {
	defs map[uint64]dictDef

	// agent is the agent name of the last ref batch: one connection
	// carries one agent, so its batches share the string instead of
	// copying it out of every payload.
	agent string
	// hdrs is a block of Batch headers not yet handed out. Each header
	// goes to exactly one caller and is never reused; carving them from a
	// block spreads one allocation over batchHeaderBlock batches.
	hdrs []Batch
}

// batchHeaderBlock is how many Batch headers DecodeRefBatch allocates at
// once. A caller that keeps one decoded batch also keeps the other batches
// of its block reachable, so the block stays small.
const batchHeaderBlock = 16

// NewConnDict returns an empty per-connection dictionary.
func NewConnDict() *ConnDict { return &ConnDict{defs: make(map[uint64]dictDef)} }

// Len returns how many series the connection has defined.
func (d *ConnDict) Len() int { return len(d.defs) }

// AddDefs decodes a FrameDict payload into the dictionary and returns how
// many series it defined.
func (d *ConnDict) AddDefs(payload []byte) (int, error) {
	p := &payloadReader{buf: payload}
	ndefs, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if ndefs > uint64(len(payload)) { // sanity: every def needs >= 1 byte
		return 0, fmt.Errorf("wire: implausible definition count %d", ndefs)
	}
	for i := uint64(0); i < ndefs; i++ {
		ref, err := p.uvarint()
		if err != nil {
			return 0, err
		}
		name, err := p.str()
		if err != nil {
			return 0, err
		}
		nlab, err := p.uvarint()
		if err != nil {
			return 0, err
		}
		if nlab > uint64(len(payload)) {
			return 0, fmt.Errorf("wire: implausible label count %d", nlab)
		}
		var labels metric.Labels
		if nlab > 0 {
			kv := make([]string, 0, nlab*2)
			for li := uint64(0); li < nlab; li++ {
				k, err := p.str()
				if err != nil {
					return 0, err
				}
				v, err := p.str()
				if err != nil {
					return 0, err
				}
				kv = append(kv, k, v)
			}
			labels = metric.NewLabels(kv...)
		}
		if p.pos >= len(payload) {
			return 0, io.ErrUnexpectedEOF
		}
		kind := metric.Kind(payload[p.pos])
		p.pos++
		unit, err := p.str()
		if err != nil {
			return 0, err
		}
		if _, dup := d.defs[ref]; dup {
			return 0, fmt.Errorf("%w: ref %d", ErrDictRedefine, ref)
		}
		// Intern the ID once per connection: every batch decoded against
		// this def reuses the cached key on downstream keyed lookups.
		d.defs[ref] = dictDef{id: metric.NewID(name, labels), kind: kind, unit: metric.Unit(unit)}
	}
	if p.pos != len(payload) {
		return 0, fmt.Errorf("wire: %d trailing bytes after dictionary", len(payload)-p.pos)
	}
	return int(ndefs), nil
}

// DecodeRefBatch parses a FrameRefBatch payload against the dictionary,
// returning a Batch identical to what a v1 FrameBatch for the same samples
// would decode to (record IDs come from the dictionary definitions). The
// batch is the caller's: it shares nothing mutable with the payload, the
// dictionary or any other decoded batch. Every record's samples are sliced
// from one slab, so a decode costs two allocations (records and slab) plus
// a share of a header block, however many records the batch carries.
func (d *ConnDict) DecodeRefBatch(payload []byte) (*Batch, error) {
	p := &payloadReader{buf: payload}
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(payload)-p.pos) {
		return nil, io.ErrUnexpectedEOF
	}
	// Comparing against the bytes does not allocate; only a new agent
	// name is copied out of the payload.
	if raw := payload[p.pos : p.pos+int(n)]; string(raw) != d.agent {
		d.agent = string(raw)
	}
	p.pos += int(n)
	nrec, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	// Every record needs at least a ref byte and a count byte.
	if nrec > uint64(len(payload)-p.pos)/2 {
		return nil, fmt.Errorf("wire: implausible record count %d", nrec)
	}
	recs := make([]Record, nrec)
	// Sized for the collector's one sample per record. A batch with more
	// grows the slab; records sliced before the growth keep the old
	// backing array, whose elements are never written again.
	slab := make([]metric.Sample, 0, nrec)
	for ri := range recs {
		ref, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		def, ok := d.defs[ref]
		if !ok {
			return nil, fmt.Errorf("%w: ref %d", ErrUnknownRef, ref)
		}
		nsm, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if nsm > uint64(len(payload)) {
			return nil, fmt.Errorf("wire: implausible sample count %d", nsm)
		}
		r := Record{ID: def.id, Kind: def.kind, Unit: def.unit}
		start := len(slab)
		var prevT int64
		for si := uint64(0); si < nsm; si++ {
			dt, err := p.varint()
			if err != nil {
				return nil, err
			}
			t := dt
			if si > 0 {
				t = prevT + dt
			}
			prevT = t
			v, err := p.float()
			if err != nil {
				return nil, err
			}
			slab = append(slab, metric.Sample{T: t, V: v})
		}
		if nsm > 0 {
			r.Samples = slab[start:len(slab):len(slab)]
		}
		recs[ri] = r
	}
	if p.pos != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after ref batch", len(payload)-p.pos)
	}
	if len(d.hdrs) == 0 {
		d.hdrs = make([]Batch, batchHeaderBlock)
	}
	b := &d.hdrs[0]
	d.hdrs = d.hdrs[1:]
	*b = Batch{Agent: d.agent, Records: recs}
	return b, nil
}

// appendDef serializes one dictionary definition.
func appendDef(dst []byte, ref uint64, r *Record) []byte {
	dst = appendUvarint(dst, ref)
	dst = appendString(dst, r.ID.Name)
	dst = appendUvarint(dst, uint64(len(r.ID.Labels)))
	for _, l := range r.ID.Labels {
		dst = appendString(dst, l.Key)
		dst = appendString(dst, l.Value)
	}
	dst = append(dst, byte(r.Kind))
	dst = appendString(dst, string(r.Unit))
	return dst
}

// appendRefBatch serializes a FrameRefBatch payload for b, where refs[i]
// is the dictionary ref of b.Records[i].
func appendRefBatch(dst []byte, b *Batch, refs []uint64) []byte {
	out := dst
	out = appendString(out, b.Agent)
	out = appendUvarint(out, uint64(len(b.Records)))
	for i := range b.Records {
		r := &b.Records[i]
		out = appendUvarint(out, refs[i])
		out = appendUvarint(out, uint64(len(r.Samples)))
		var prevT int64
		for si, sm := range r.Samples {
			if si == 0 {
				out = appendVarint(out, sm.T)
			} else {
				out = appendVarint(out, sm.T-prevT)
			}
			prevT = sm.T
			var vb [8]byte
			binary.BigEndian.PutUint64(vb[:], math.Float64bits(sm.V))
			out = append(out, vb[:]...)
		}
	}
	return out
}

// clientDict is the send side of the v2 dictionary: per-connection ref
// assignments plus reused encode scratch, reset on redial.
type clientDict struct {
	refs    map[string]uint64
	next    uint64
	body    []byte   // definition-body scratch (defs minus the count prefix)
	defs    []byte   // FrameDict payload scratch
	recs    []byte   // FrameRefBatch payload scratch
	recRefs []uint64 // per-record ref scratch, one map lookup per record
}

func newClientDict() *clientDict { return &clientDict{refs: make(map[string]uint64)} }

// sendDict encodes b as (optional) dictionary definitions plus a ref
// batch on bw, coalescing both frames into one flush. Steady state — all
// series already defined on this connection — allocates nothing, provided
// the record IDs carry their interned key (metric.NewID / ID.Interned);
// a struct-literal ID serializes its key on every send.
func (d *clientDict) sendDict(bw *BatchWriter, b *Batch) error {
	ndefs := 0
	d.body = d.body[:0]
	d.recRefs = d.recRefs[:0]
	for i := range b.Records {
		r := &b.Records[i]
		key := r.ID.Key()
		ref, ok := d.refs[key]
		if !ok { // first use on this connection
			d.next++
			ref = d.next
			d.refs[key] = ref
			d.body = appendDef(d.body, ref, r)
			ndefs++
		}
		d.recRefs = append(d.recRefs, ref)
	}
	if ndefs > 0 {
		d.defs = appendUvarint(d.defs[:0], uint64(ndefs))
		d.defs = append(d.defs, d.body...)
		if err := bw.writeFrame(Version2, FrameDict, d.defs); err != nil {
			return err
		}
	}
	d.recs = appendRefBatch(d.recs[:0], b, d.recRefs)
	if err := bw.writeFrame(Version2, FrameRefBatch, d.recs); err != nil {
		return err
	}
	return bw.flush()
}
