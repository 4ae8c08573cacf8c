package snapshot

// Blob envelope: a fixed magic, a format version, the payload length,
// and a CRC32 of the payload, followed by the JSON-encoded State. The
// JSON layer is what makes byte-identical resume sound: encoding/json
// renders float64 in shortest-round-trip form and parses uint64
// literals exactly, so every captured number survives a
// Marshal/Unmarshal cycle bit-for-bit.
//
// A state that carries a trace is written as a traced blob instead: the
// same header under tracedMagic, the state JSON without its trace, then
// a trace section holding the rows as raw float64 bits.
//
//	section CRC32 u32 | from u32 | rows u32 | columns u32 |
//	columns × (name length u32, name) | rows × (time, values...) float64
//
// All integers and floats are little-endian; the CRC covers everything
// in the section after it. from is the trace index of the first row
// held: 0 for a blob that carries its whole trace, the number of rows
// already stored elsewhere for a delta (see Traced). The header's
// payload length is the state's, so it indexes the section, and with
// fixed-width rows a store can cut a blob's rows at any index, or join
// two blobs' rows, by slicing bytes without decoding the state.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Magic identifies an eccspec snapshot blob.
const Magic = "ECCSNAP\x00"

// tracedMagic identifies a snapshot blob followed by a trace section.
const tracedMagic = "ECCSNAPT"

const headerLen = len(Magic) + 4 + 4 + 4 // magic, version, payload len, CRC32

// sectionHeaderLen is the trace section's fixed head: CRC, from, rows,
// columns.
const sectionHeaderLen = 4 * 4

// maxTraceColumns bounds a section's column count so that its size
// arithmetic cannot overflow.
const maxTraceColumns = 1 << 16

// Marshal encodes a state into a self-checking blob, a traced blob when
// the state carries a trace.
func Marshal(st *State) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: nil state")
	}
	if st.Trace == nil {
		payload, err := json.Marshal(st)
		if err != nil {
			return nil, fmt.Errorf("snapshot: encoding state: %w", err)
		}
		return encodeEnvelope(uint32(st.Version), payload), nil
	}
	ts := st.Trace
	if err := ts.check(); err != nil {
		return nil, err
	}
	plain := *st
	plain.Trace = nil
	payload, err := json.Marshal(&plain)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding state: %w", err)
	}
	names := encodeColumns(ts.Columns)
	width := 8 * (1 + len(ts.Columns))
	out := make([]byte, 0, headerLen+len(payload)+sectionHeaderLen+len(names)+width*len(ts.Times))
	out = appendHeader(out, tracedMagic, uint32(st.Version), payload)
	out = append(out, payload...)
	return appendSection(out, ts.From, len(ts.Times), len(ts.Columns), names, func(out []byte) []byte {
		for i, t := range ts.Times {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(t))
			for _, v := range ts.Rows[i] {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
		return out
	}), nil
}

// Unmarshal decodes a blob, verifying magic, version, length, and CRC.
// Corrupt or truncated input yields an error, never a panic.
func Unmarshal(blob []byte) (*State, error) {
	var (
		version uint32
		payload []byte
		trace   *TraceState
	)
	if bytes.HasPrefix(blob, []byte(tracedMagic)) {
		t, err := SplitTraced(blob)
		if err != nil {
			return nil, err
		}
		version, payload, trace = t.version(), t.state(), t.trace(t.End())
	} else {
		var err error
		if version, payload, err = decodeEnvelope(blob); err != nil {
			return nil, err
		}
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("snapshot: decoding state: %w", err)
	}
	if st.Version != int(version) {
		return nil, fmt.Errorf("snapshot: header version %d does not match state version %d", version, st.Version)
	}
	if trace != nil {
		st.Trace = trace
	}
	return &st, nil
}

// appendHeader writes a blob header framing payload.
func appendHeader(out []byte, magic string, version uint32, payload []byte) []byte {
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// encodeEnvelope frames a payload with magic, version, length and CRC.
func encodeEnvelope(version uint32, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload))
	out = appendHeader(out, Magic, version, payload)
	return append(out, payload...)
}

// decodeEnvelope validates a framed blob and returns its version and
// payload.
func decodeEnvelope(blob []byte) (version uint32, payload []byte, err error) {
	version, payload, rest, err := decodeHeader(blob, Magic)
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("snapshot: payload length %d does not match header %d", len(payload)+len(rest), len(payload))
	}
	return version, payload, nil
}

// decodeHeader validates a blob's header and payload CRC, returning the
// bytes that follow the payload.
func decodeHeader(blob []byte, magic string) (version uint32, payload, rest []byte, err error) {
	if len(blob) < headerLen {
		return 0, nil, nil, fmt.Errorf("snapshot: blob truncated (%d bytes, header is %d)", len(blob), headerLen)
	}
	if !bytes.Equal(blob[:len(magic)], []byte(magic)) {
		return 0, nil, nil, fmt.Errorf("snapshot: bad magic (not an eccspec snapshot)")
	}
	body := blob[len(magic):]
	version = binary.LittleEndian.Uint32(body[0:4])
	plen := binary.LittleEndian.Uint32(body[4:8])
	sum := binary.LittleEndian.Uint32(body[8:12])
	body = body[12:]
	if uint64(len(body)) < uint64(plen) {
		return 0, nil, nil, fmt.Errorf("snapshot: payload length %d does not match header %d", len(body), plen)
	}
	payload, rest = body[:plen], body[plen:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return 0, nil, nil, fmt.Errorf("snapshot: CRC mismatch (blob corrupt): got %08x, header says %08x", got, sum)
	}
	return version, payload, rest, nil
}

// EncodePayload frames an arbitrary pre-encoded payload with the
// snapshot magic, a caller-chosen version, and a CRC — for tools that
// keep their own state formats (e.g. the lifetime example) but want the
// same integrity guarantees.
func EncodePayload(version uint32, payload []byte) []byte {
	return encodeEnvelope(version, payload)
}

// DecodePayload is the inverse of EncodePayload. It validates the
// framing and returns the version and payload; the caller interprets
// both.
func DecodePayload(blob []byte) (version uint32, payload []byte, err error) {
	return decodeEnvelope(blob)
}

// encodeColumns renders a section's column names.
func encodeColumns(columns []string) []byte {
	var out []byte
	for _, c := range columns {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c)))
		out = append(out, c...)
	}
	return out
}

// appendSection writes a trace section: its head, the column names, and
// the rows rendered by rows, then fills in the CRC.
func appendSection(out []byte, from, n, columns int, names []byte, rows func([]byte) []byte) []byte {
	start := len(out)
	out = binary.LittleEndian.AppendUint32(out, 0) // CRC, set below
	out = binary.LittleEndian.AppendUint32(out, uint32(from))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(columns))
	out = append(out, names...)
	out = rows(out)
	binary.LittleEndian.PutUint32(out[start:], crc32.ChecksumIEEE(out[start+4:]))
	return out
}

// Traced is a traced blob split at its trace section. Its state is
// never decoded: Tail and Fold move rows by slicing bytes, which is how
// the journal stores each row of a checkpointed trace once.
type Traced struct {
	blob    []byte
	section int // offset of the trace section
	rows    int // offset of the first row
	// From is the trace index of the first row held; N is the number of
	// rows held.
	From, N int
	columns int
}

// SplitTraced parses a traced blob's header and trace section,
// verifying the section's CRC but not the state's. A blob of another
// kind, or a corrupt or truncated one, yields an error.
func SplitTraced(blob []byte) (Traced, error) {
	_, payload, sec, err := decodeHeader(blob, tracedMagic)
	if err != nil {
		return Traced{}, err
	}
	if len(sec) < sectionHeaderLen {
		return Traced{}, fmt.Errorf("snapshot: trace section truncated (%d bytes, its head is %d)", len(sec), sectionHeaderLen)
	}
	if got, want := crc32.ChecksumIEEE(sec[4:]), binary.LittleEndian.Uint32(sec); got != want {
		return Traced{}, fmt.Errorf("snapshot: trace section CRC mismatch (blob corrupt): got %08x, section says %08x", got, want)
	}
	from := binary.LittleEndian.Uint32(sec[4:])
	n := binary.LittleEndian.Uint32(sec[8:])
	cols := binary.LittleEndian.Uint32(sec[12:])
	if cols == 0 || cols > maxTraceColumns {
		return Traced{}, fmt.Errorf("snapshot: trace section has %d columns", cols)
	}
	if uint64(from)+uint64(n) > math.MaxUint32 {
		return Traced{}, fmt.Errorf("snapshot: trace section holds rows [%d, %d)", from, uint64(from)+uint64(n))
	}
	off := sectionHeaderLen
	for c := uint32(0); c < cols; c++ {
		if len(sec)-off < 4 {
			return Traced{}, fmt.Errorf("snapshot: trace section truncated in column %d's name", c)
		}
		l := binary.LittleEndian.Uint32(sec[off:])
		if uint64(len(sec)-off-4) < uint64(l) {
			return Traced{}, fmt.Errorf("snapshot: trace section truncated in column %d's name", c)
		}
		off += 4 + int(l)
	}
	if want := uint64(n) * uint64(8*(1+cols)); uint64(len(sec)-off) != want {
		return Traced{}, fmt.Errorf("snapshot: trace section holds %d row bytes, %d rows of %d columns need %d", len(sec)-off, n, cols, want)
	}
	section := headerLen + len(payload)
	return Traced{blob: blob, section: section, rows: section + off,
		From: int(from), N: int(n), columns: int(cols)}, nil
}

// End is the trace index just past the last row held: the length of the
// whole trace when the blob's state was captured.
func (t Traced) End() int { return t.From + t.N }

func (t Traced) version() uint32 { return binary.LittleEndian.Uint32(t.blob[len(tracedMagic):]) }

// state returns the state JSON.
func (t Traced) state() []byte { return t.blob[headerLen:t.section] }

// names returns the section's encoded column names.
func (t Traced) names() []byte { return t.blob[t.section+sectionHeaderLen : t.rows] }

func (t Traced) rowLen() int { return 8 * (1 + t.columns) }

// rowBytes returns the rows with trace indexes [from, to).
func (t Traced) rowBytes(from, to int) []byte {
	return t.blob[t.rows+(from-t.From)*t.rowLen() : t.rows+(to-t.From)*t.rowLen()]
}

// build assembles a traced blob from t's header and state, holding the
// given rows from trace index from on.
func (t Traced) build(from int, rows ...[]byte) []byte {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	names := t.names()
	out := make([]byte, 0, t.section+sectionHeaderLen+len(names)+n)
	out = append(out, t.blob[:t.section]...)
	return appendSection(out, from, n/t.rowLen(), t.columns, names, func(out []byte) []byte {
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	})
}

// Tail returns a delta blob: t's state with only the rows from trace
// index at on. at must lie in [From, End]; Tail(From) is a copy of the
// blob.
func (t Traced) Tail(at int) ([]byte, error) {
	if at < t.From || at > t.End() {
		return nil, fmt.Errorf("snapshot: tail at row %d of a blob holding rows [%d, %d)", at, t.From, t.End())
	}
	return t.build(at, t.rowBytes(at, t.End())), nil
}

// Fold joins a delta onto t: the result carries the delta's state and
// t's rows up to delta.From followed by the delta's rows. The delta must
// start inside or just past t's rows and have t's columns.
func (t Traced) Fold(delta Traced) ([]byte, error) {
	if delta.From < t.From || delta.From > t.End() {
		return nil, fmt.Errorf("snapshot: delta starts at row %d, but the base holds rows [%d, %d)", delta.From, t.From, t.End())
	}
	if !bytes.Equal(t.names(), delta.names()) {
		return nil, fmt.Errorf("snapshot: delta's trace columns differ from the base's")
	}
	return delta.build(t.From, t.rowBytes(t.From, delta.From), delta.rowBytes(delta.From, delta.End())), nil
}

// trace decodes the rows before trace index end.
func (t Traced) trace(end int) *TraceState {
	ts := &TraceState{From: t.From}
	names := t.names()
	for len(names) > 0 {
		l := binary.LittleEndian.Uint32(names)
		ts.Columns = append(ts.Columns, string(names[4:4+l]))
		names = names[4+l:]
	}
	n := end - t.From
	if n == 0 {
		return ts
	}
	raw := t.rowBytes(t.From, end)
	ts.Times = make([]float64, n)
	ts.Rows = make([][]float64, n)
	vals := make([]float64, n*t.columns)
	for i := range n {
		row := raw[i*t.rowLen():]
		ts.Times[i] = math.Float64frombits(binary.LittleEndian.Uint64(row))
		v := vals[i*t.columns : (i+1)*t.columns : (i+1)*t.columns]
		for c := range v {
			v[c] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*(1+c):]))
		}
		ts.Rows[i] = v
	}
	return ts
}

// JoinTrace returns base's rows before tail.From followed by tail's
// rows: the whole trace of a chip whose last checkpoint is base and
// whose record holds only the rows recorded after it. The tail must
// start inside or just past base's rows and have base's columns.
func JoinTrace(base []byte, tail *TraceState) (*TraceState, error) {
	t, err := SplitTraced(base)
	if err != nil {
		return nil, err
	}
	if tail.From < t.From || tail.From > t.End() {
		return nil, fmt.Errorf("snapshot: trace tail starts at row %d, but the checkpoint holds rows [%d, %d)", tail.From, t.From, t.End())
	}
	head := t.trace(tail.From)
	if !slices.Equal(head.Columns, tail.Columns) {
		return nil, fmt.Errorf("snapshot: trace tail's columns differ from the checkpoint's")
	}
	if len(tail.Times) > 0 {
		head.Times = append(head.Times, tail.Times...)
		head.Rows = append(head.Rows, tail.Rows...)
	}
	return head, nil
}
