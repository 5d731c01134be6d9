// Package wire defines the binary telemetry protocol collection agents use
// to push samples to an aggregation endpoint, plus a TCP server/client pair.
//
// Frame layout (big endian):
//
//	magic   uint16  0x0DA7
//	version uint8   1
//	type    uint8   frame type
//	length  uint32  payload byte count
//	crc32   uint32  IEEE checksum of the payload
//	payload [length]byte
//
// The v1 payload is a Batch: a set of records, each carrying a metric ID,
// kind, unit and a run of (delta-encoded) samples. Strings are
// length-prefixed with uvarints; integers use varints so the common case
// (regular cadence, small deltas) stays compact on the wire.
//
// Protocol v2 adds a per-connection series dictionary (see dict.go): a
// FrameDict defines each series once, and FrameRefBatch frames then ship
// ref + delta-t + value records with no per-sample ID re-encoding. v1
// frames still decode on a v2 server.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/metric"
)

// Protocol constants.
const (
	Magic   uint16 = 0x0DA7
	Version uint8  = 1
	// Version2 marks frames that participate in the per-connection series
	// dictionary (FrameDict / FrameRefBatch). Readers accept both versions.
	Version2 uint8 = 2

	// FrameBatch carries a telemetry Batch.
	FrameBatch uint8 = 1
	// FramePing is a liveness probe: the server echoes the payload back in
	// a FramePong. It exists so a failure detector can distinguish a slow
	// peer (pong arrives late) from a dead one (pong never arrives): batch
	// sends are one-way, so their success says nothing about the far end.
	FramePing uint8 = 2
	// FramePong is the server's echo reply to a FramePing.
	FramePong uint8 = 3
	// FrameDict defines series in the connection's dictionary (v2).
	FrameDict uint8 = 4
	// FrameRefBatch carries a batch whose records address series by
	// dictionary ref (v2).
	FrameRefBatch uint8 = 5

	headerLen = 12
	// MaxPayload bounds a frame so a corrupt length cannot allocate
	// unbounded memory.
	MaxPayload = 16 << 20
)

// Errors returned by the decoder.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrTooLarge    = errors.New("wire: frame exceeds MaxPayload")
)

// Record is one series' worth of samples in a batch.
type Record struct {
	ID      metric.ID
	Kind    metric.Kind
	Unit    metric.Unit
	Samples []metric.Sample
}

// Batch is the unit of transmission: what one agent collected this round.
type Batch struct {
	Agent   string // agent identity, e.g. hostname
	Records []Record
}

// appendUvarint / appendVarint helpers over a byte slice.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// EncodeBatch serializes a batch payload (without frame header) into a
// fresh buffer. Hot paths that encode repeatedly should use AppendBatch
// with a reused buffer instead.
func EncodeBatch(b *Batch) []byte {
	return AppendBatch(make([]byte, 0, 64), b)
}

// AppendBatch serializes a batch payload onto dst and returns the extended
// slice (append semantics, like strconv.AppendInt). Reusing the returned
// buffer across calls amortizes the encode allocation to zero once the
// buffer has grown to the steady-state batch size.
func AppendBatch(dst []byte, b *Batch) []byte {
	out := dst
	out = appendString(out, b.Agent)
	out = appendUvarint(out, uint64(len(b.Records)))
	for _, r := range b.Records {
		out = appendString(out, r.ID.Name)
		out = appendUvarint(out, uint64(len(r.ID.Labels)))
		for _, l := range r.ID.Labels {
			out = appendString(out, l.Key)
			out = appendString(out, l.Value)
		}
		out = append(out, byte(r.Kind))
		out = appendString(out, string(r.Unit))
		out = appendUvarint(out, uint64(len(r.Samples)))
		var prevT int64
		for i, sm := range r.Samples {
			if i == 0 {
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

type payloadReader struct {
	buf []byte
	pos int
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.buf[p.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	p.pos += n
	return v, nil
}

func (p *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(p.buf[p.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	p.pos += n
	return v, nil
}

func (p *payloadReader) str() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	// Guard before converting to int: a corrupt varint can exceed the
	// buffer (or even overflow int), which must be an error, not a panic.
	if n > uint64(len(p.buf)-p.pos) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(p.buf[p.pos : p.pos+int(n)])
	p.pos += int(n)
	return s, nil
}

func (p *payloadReader) float() (float64, error) {
	if p.pos+8 > len(p.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(p.buf[p.pos:]))
	p.pos += 8
	return v, nil
}

// DecodeBatch parses a batch payload.
func DecodeBatch(payload []byte) (*Batch, error) {
	p := &payloadReader{buf: payload}
	agent, err := p.str()
	if err != nil {
		return nil, err
	}
	nrec, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if nrec > uint64(len(payload)) { // sanity: every record needs >= 1 byte
		return nil, fmt.Errorf("wire: implausible record count %d", nrec)
	}
	b := &Batch{Agent: agent, Records: make([]Record, 0, nrec)}
	for ri := uint64(0); ri < nrec; ri++ {
		var r Record
		if r.ID.Name, err = p.str(); err != nil {
			return nil, err
		}
		nlab, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if nlab > uint64(len(payload)) {
			return nil, fmt.Errorf("wire: implausible label count %d", nlab)
		}
		if nlab > 0 {
			kv := make([]string, 0, nlab*2)
			for li := uint64(0); li < nlab; li++ {
				k, err := p.str()
				if err != nil {
					return nil, err
				}
				v, err := p.str()
				if err != nil {
					return nil, err
				}
				kv = append(kv, k, v)
			}
			r.ID.Labels = metric.NewLabels(kv...)
		}
		if p.pos >= len(payload) {
			return nil, io.ErrUnexpectedEOF
		}
		r.Kind = metric.Kind(payload[p.pos])
		p.pos++
		unit, err := p.str()
		if err != nil {
			return nil, err
		}
		r.Unit = metric.Unit(unit)
		nsm, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if nsm > uint64(len(payload)) {
			return nil, fmt.Errorf("wire: implausible sample count %d", nsm)
		}
		if nsm > 0 {
			r.Samples = make([]metric.Sample, 0, nsm)
		}
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
			r.Samples = append(r.Samples, metric.Sample{T: t, V: v})
		}
		b.Records = append(b.Records, r)
	}
	return b, nil
}

// putFrameHeader fills hdr for a payload of the given version and type.
// The caller has already checked the MaxPayload bound.
func putFrameHeader(hdr *[headerLen]byte, version, frameType uint8, payload []byte) {
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = version
	hdr[3] = frameType
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
}

// WriteFrame writes a framed payload to w. Dictionary frame types are
// stamped v2, everything else v1, so callers never pick a version by hand.
func WriteFrame(w io.Writer, frameType uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	var hdr [headerLen]byte
	putFrameHeader(&hdr, versionFor(frameType), frameType, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Never issue a zero-length write: synchronous transports
		// (net.Pipe) rendezvous even empty writes, and a reader that
		// already consumed the header won't read again until the next
		// frame — the empty write would deadlock against the response.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// versionFor maps a frame type to the protocol version it was introduced in.
func versionFor(frameType uint8) uint8 {
	if frameType == FrameDict || frameType == FrameRefBatch {
		return Version2
	}
	return Version
}

// ReadFrame reads one framed payload from r, validating magic, version,
// size bound and checksum. The payload is freshly allocated and owned by
// the caller.
func ReadFrame(r io.Reader) (frameType uint8, payload []byte, err error) {
	fr := frameReader{r: r}
	return fr.next()
}

// maxKeptPayload bounds the payload buffer a frameReader keeps between
// frames: a connection that once carried a large dictionary or snapshot
// frame does not pin that much memory for the rest of its life.
const maxKeptPayload = 1 << 20

// frameReader reads frames from one stream into a payload buffer it reuses
// from frame to frame. A payload it returns is valid only until the next
// call to next, so a caller must copy out (or finish with) every byte it
// keeps before reading on.
type frameReader struct {
	r   io.Reader
	hdr [headerLen]byte
	buf []byte
}

func (fr *frameReader) next() (frameType uint8, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	hdr := &fr.hdr
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, nil, ErrBadMagic
	}
	if hdr[2] != Version && hdr[2] != Version2 {
		return 0, nil, ErrBadVersion
	}
	frameType = hdr[3]
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length > MaxPayload {
		return 0, nil, ErrTooLarge
	}
	if uint32(cap(fr.buf)) >= length {
		payload = fr.buf[:length]
	} else {
		payload = make([]byte, length)
		if length <= maxKeptPayload {
			fr.buf = payload
		}
	}
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[8:12]) {
		return 0, nil, ErrBadChecksum
	}
	return frameType, payload, nil
}

// WriteBatch frames and writes a batch.
func WriteBatch(w io.Writer, b *Batch) error {
	return WriteFrame(w, FrameBatch, EncodeBatch(b))
}

// ReadBatch reads one frame and decodes it as a batch.
func ReadBatch(r io.Reader) (*Batch, error) {
	ft, payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if ft != FrameBatch {
		return nil, fmt.Errorf("wire: unexpected frame type %d", ft)
	}
	return DecodeBatch(payload)
}

// BatchWriter wraps a stream with buffering for repeated batch sends. The
// encode buffer persists across Sends, so steady-state sends allocate
// nothing. Not safe for concurrent use; callers that share one (like
// Client) must serialize Sends themselves.
type BatchWriter struct {
	w   *bufio.Writer
	buf []byte          // reused encode scratch
	hdr [headerLen]byte // reused frame-header scratch (a stack header would
	// escape through the io.Writer interface and cost one alloc per send)
}

// NewBatchWriter returns a buffered batch writer over w.
func NewBatchWriter(w io.Writer) *BatchWriter {
	return &BatchWriter{w: bufio.NewWriter(w)}
}

// Send frames, writes and flushes one batch.
func (bw *BatchWriter) Send(b *Batch) error {
	bw.buf = AppendBatch(bw.buf[:0], b)
	if err := bw.writeFrame(Version, FrameBatch, bw.buf); err != nil {
		return err
	}
	return bw.w.Flush()
}

// writeFrame buffers one framed payload without flushing, so a dictionary
// frame and its ref batch coalesce into a single flush (dict.go).
func (bw *BatchWriter) writeFrame(version, frameType uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	putFrameHeader(&bw.hdr, version, frameType, payload)
	if _, err := bw.w.Write(bw.hdr[:]); err != nil {
		return err
	}
	_, err := bw.w.Write(payload)
	return err
}

func (bw *BatchWriter) flush() error { return bw.w.Flush() }
