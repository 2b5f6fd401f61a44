package gateway

import (
	"encoding/json"
	"net/http"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"github.com/faasmem/faasmem/internal/telemetry/timeseries"
)

// Every reply is rendered whole into a reply the server owns and reuses,
// then reaches the ResponseWriter in one Write. The server keeps idle
// replies on a free list of fixed capacity rather than in a sync.Pool: a
// scraper reads the exporters far apart, and the collections in between
// would empty a pool.
const (
	// replyFree is how many idle replies the free list holds: one per
	// scraper reading at once, for a few scrapers. A reply returned to a
	// full list is left to the collector.
	replyFree = 4
	// replyKeep caps the bytes of each of a kept reply's buffers: a reply
	// that grew past it (a 24 h /exemplars snapshot, say) is dropped after
	// use, so the free list pins at most replyFree × 3 × replyKeep bytes.
	replyKeep = 4 << 20
)

// reply is one request's rendering buffers.
type reply struct {
	// raw is what Write appended: the compact JSON enc encodes, or a text
	// reply.
	raw []byte
	// enc encodes into raw through Write.
	enc *json.Encoder
	// out is raw indented, for a JSON reply.
	out []byte
	// rows holds the flow ledger rows GET /flows renders.
	rows []timeseries.FlowRow
}

// Write appends p to raw. It is enc's writer and the io.Writer the text
// renderers write into.
func (rep *reply) Write(p []byte) (int, error) {
	rep.raw = append(rep.raw, p...)
	return len(p), nil
}

// takeReply returns an idle reply from the free list, or a new one.
func (s *server) takeReply() *reply {
	select {
	case rep := <-s.free:
		return rep
	default:
		rep := &reply{}
		rep.enc = json.NewEncoder(rep)
		return rep
	}
}

// putReply empties rep and keeps it on the free list, unless the list is
// full or one of rep's buffers grew past replyKeep bytes.
func (s *server) putReply(rep *reply) {
	if cap(rep.raw) > replyKeep || cap(rep.out) > replyKeep ||
		cap(rep.rows)*int(unsafe.Sizeof(timeseries.FlowRow{})) > replyKeep {
		return
	}
	rep.raw, rep.out, rep.rows = rep.raw[:0], rep.out[:0], rep.rows[:0]
	select {
	case s.free <- rep:
	default:
	}
}

// writeJSON writes v as the reply: the bytes json.Encoder with
// SetIndent("", "  ") would write. v is encoded compact into a server-owned
// reply and indented by appendIndent into the reply's second buffer, which
// does not re-validate what the encoder has just produced. A value that
// does not encode leaves the body empty, as the encoder would.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	rep := s.takeReply()
	defer s.putReply(rep)
	_ = rep.enc.Encode(v)
	sendJSON(w, status, rep)
}

// sendJSON writes rep.raw — one compact JSON value and the newline the
// encoder ends it with, or nothing — indented as the reply.
func sendJSON(w http.ResponseWriter, status int, rep *reply) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if len(rep.raw) == 0 {
		return
	}
	rep.out = appendIndent(rep.out[:0], rep.raw[:len(rep.raw)-1])
	_, _ = w.Write(rep.out)
}

// writeText renders a text reply into a server-owned reply and writes it.
func (s *server) writeText(w http.ResponseWriter, contentType string, render func(rep *reply)) {
	rep := s.takeReply()
	defer s.putReply(rep)
	render(rep)
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(rep.raw)
}

// appendFlowRow appends row as compact JSON, the bytes json.Marshal writes
// for a timeseries.FlowRow, without reflection.
func appendFlowRow(dst []byte, row *timeseries.FlowRow) []byte {
	dst = strconv.AppendInt(append(dst, `{"window":`...), row.Window, 10)
	dst = strconv.AppendInt(append(dst, `,"start":`...), int64(row.Start), 10)
	dst = appendJSONString(append(dst, `,"flow":`...), row.Flow)
	dst = strconv.AppendInt(append(dst, `,"direction":`...), int64(row.Direction), 10)
	if row.Node != "" {
		dst = appendJSONString(append(dst, `,"node":`...), row.Node)
	}
	if row.Tenant != "" {
		dst = appendJSONString(append(dst, `,"tenant":`...), row.Tenant)
	}
	if row.Class != "" {
		dst = appendJSONString(append(dst, `,"class":`...), row.Class)
	}
	dst = strconv.AppendInt(append(dst, `,"bytes":`...), row.Bytes, 10)
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string with encoding/json's
// escaping. A string of printable ASCII that needs no escape — every
// ledger dimension the simulator names — is copied; any other string,
// such as a trace's function ID, goes through json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendIndent appends src, compact JSON from json.Marshal, to dst indented
// as json.Indent(src, "", "  ") would, followed by a newline. It does not
// validate src: strings are copied verbatim, escapes included, and only the
// punctuation outside them is spaced out. Empty objects and arrays stay on
// one line.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j+1, len(src))
			dst = append(dst, src[i:j]...)
			i = j - 1
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			depth++
			dst = newline(append(dst, c), depth)
		case '}', ']':
			depth--
			dst = append(newline(dst, depth), c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '\n')
}

// newline appends a newline and depth levels of two-space indent.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
