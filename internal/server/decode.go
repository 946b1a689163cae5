package server

// One-pass decoding of observation windows. A quiet 197-server window is
// a 4.3 MB JSON body, so decoding it dominates the ingest path's CPU.
// Collectors send one shape — the compact (or indented) encoding of
// WindowRequest with plain ASCII names — so scanWindow decodes exactly
// that shape straight from the body bytes and hands everything else to
// encoding/json, which stays the reference: on any input both paths
// accept, they produce identical values (FuzzDecodeWindow holds them to
// it).

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// decodeWindow decodes a POST /v1/fleets/{id}/windows body. Beside the
// request it returns the workloads value(s) exactly as the body carried
// them, which the journal writes verbatim (see WindowRecord.Raw): one
// span normally, none when the body has no workloads member, and several
// only when a body repeats the key.
func decodeWindow(body []byte) (WindowRequest, []json.RawMessage, error) {
	if req, raw, ok := scanWindow(body); ok {
		return req, raw, nil
	}
	var req WindowRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return WindowRequest{}, nil, err
	}
	// A second pass over the same first value collects the members
	// encoding/json matched to Workloads (case folding and repeats
	// included); it cannot fail where the first pass succeeded.
	var spans windowSpans
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spans); err != nil {
		return WindowRequest{}, nil, err
	}
	return req, spans.Workloads, nil
}

// windowSpans mirrors WindowRequest's key matching but keeps each
// workloads member's bytes instead of decoding them.
type windowSpans struct {
	Workloads rawMembers `json:"workloads"`
}

// rawMembers collects every value encoding/json hands it, in body order.
type rawMembers []json.RawMessage

func (m *rawMembers) UnmarshalJSON(b []byte) error {
	*m = append(*m, append(json.RawMessage(nil), b...))
	return nil
}

// The WorkloadWire keys scanWindow decodes, as indices into workloadKeys.
const (
	keyName = iota
	keyStartUnix
	keyStepSeconds
	keyCPU
	keyRAMBytes
	keyWSBytes
	keyUpdateRate
	keyDiskWriteBps
	keyReplicas
	keyPinTo
	numWorkloadKeys
)

// workloadKeys are WorkloadWire's json keys; a key outside this table
// sends the body to encoding/json.
var workloadKeys = [numWorkloadKeys]string{
	keyName:         "name",
	keyStartUnix:    "start_unix",
	keyStepSeconds:  "step_seconds",
	keyCPU:          "cpu",
	keyRAMBytes:     "ram_bytes",
	keyWSBytes:      "ws_bytes",
	keyUpdateRate:   "update_rate",
	keyDiskWriteBps: "disk_write_bps",
	keyReplicas:     "replicas",
	keyPinTo:        "pin_to",
}

// scanWindow decodes the body shape collectors send: one object whose
// only key is "workloads", an array of objects with workloadKeys' keys,
// each at most once, plain ASCII strings (no escapes), numbers in JSON's
// grammar parsed with strconv exactly as encoding/json parses them, any
// JSON whitespace between tokens, and nothing but whitespace after the
// object. It reports false for anything else — including inputs
// encoding/json accepts (null, case-folded, repeated or unknown keys,
// escapes, trailing data) — and the caller falls back to encoding/json.
func scanWindow(body []byte) (WindowRequest, []json.RawMessage, bool) {
	s := windowScanner{b: body}
	if !s.eat('{') {
		return WindowRequest{}, nil, false
	}
	if key, ok := s.str(); !ok || string(key) != "workloads" || !s.eat(':') {
		return WindowRequest{}, nil, false
	}
	s.ws()
	start := s.i
	if !s.eat('[') {
		return WindowRequest{}, nil, false
	}
	req := WindowRequest{Workloads: []WorkloadWire{}}
	if !s.eat(']') {
		for {
			w, ok := s.workload()
			if !ok {
				return WindowRequest{}, nil, false
			}
			req.Workloads = append(req.Workloads, w)
			if s.eat(',') {
				continue
			}
			if s.eat(']') {
				break
			}
			return WindowRequest{}, nil, false
		}
	}
	span := json.RawMessage(body[start:s.i])
	if !s.eat('}') {
		return WindowRequest{}, nil, false
	}
	if s.ws(); s.i != len(body) {
		return WindowRequest{}, nil, false
	}
	return req, []json.RawMessage{span}, true
}

// windowScanner is scanWindow's cursor over the body.
type windowScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *windowScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *windowScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// workload decodes one WorkloadWire object.
func (s *windowScanner) workload() (WorkloadWire, bool) {
	var w WorkloadWire
	if !s.eat('{') {
		return w, false
	}
	if s.eat('}') {
		return w, true
	}
	var seen uint16
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return w, false
		}
		k := lookupKey(key)
		if k < 0 || seen&(1<<k) != 0 {
			return w, false
		}
		seen |= 1 << k
		switch k {
		case keyName:
			var name []byte
			name, ok = s.str()
			w.Name = string(name)
		case keyStartUnix:
			w.StartUnix, ok = s.integer(64)
		case keyStepSeconds:
			w.StepSeconds, ok = s.float()
		case keyCPU:
			w.CPU, ok = s.floats()
		case keyRAMBytes:
			w.RAMBytes, ok = s.floats()
		case keyWSBytes:
			w.WSBytes, ok = s.floats()
		case keyUpdateRate:
			w.UpdateRate, ok = s.floats()
		case keyDiskWriteBps:
			w.DiskWriteBps, ok = s.floats()
		case keyReplicas:
			var n int64
			n, ok = s.integer(strconv.IntSize)
			w.Replicas = int(n)
		case keyPinTo:
			var n int64
			n, ok = s.integer(strconv.IntSize)
			pin := int(n)
			w.PinTo = &pin
		}
		if !ok {
			return w, false
		}
		if s.eat(',') {
			continue
		}
		return w, s.eat('}')
	}
}

// lookupKey returns key's index in workloadKeys, or -1.
func lookupKey(key []byte) int {
	for k, name := range workloadKeys {
		if string(key) == name {
			return k
		}
	}
	return -1
}

// str reads a string of printable ASCII without escapes and returns its
// contents, which are then its decoded value.
func (s *windowScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number reads one literal in JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *windowScanner) number() ([]byte, bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number into a float64 as encoding/json does: ParseFloat
// of the literal, refusing out-of-range values.
func (s *windowScanner) float() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// integer reads a number into a bits-wide signed integer as encoding/json
// does: ParseInt of the literal, so fractions, exponents and overflow
// are refused.
func (s *windowScanner) integer(bits int) (int64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

// floats reads an array of numbers. Like encoding/json, an empty array
// decodes to an empty, non-nil slice.
func (s *windowScanner) floats() ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	out := make([]float64, 0, s.lenHint())
	if s.eat(']') {
		return out, true
	}
	for {
		v, ok := s.float()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.eat(',') {
			continue
		}
		return out, s.eat(']')
	}
}

// lenHint bounds the element count of the number array starting at the
// cursor: numbers hold no ',' or ']', so a well-formed array's elements
// are the commas before its ']' plus one, and each takes at least two
// bytes of the span. The bound only sizes an allocation; a malformed
// array fails to parse either way.
func (s *windowScanner) lenHint() int {
	rest := s.b[s.i:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	return min(bytes.Count(rest[:end], []byte{','})+1, (end+1)/2)
}
