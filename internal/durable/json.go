package durable

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// JSON appends one JSON value, member by member, in exactly the bytes
// encoding/json writes for the Go value it mirrors: json.Marshal's, or
// with Indent set json.MarshalIndent(v, "", "  ")'s. The per-epoch and
// per-model writers (the journal line, the checkpoint frame, the record)
// encode with it into buffers they own; readers keep json.Unmarshal.
//
// Each method writes one member of the innermost open object, in the
// order called, which must be the struct's field order; Object opens the
// document or the next element of an open array. The OmitEmpty forms
// skip a zero value, as the omitempty tag does. Keys are written as
// given, so they must need no escaping. A value encoding/json refuses (a
// NaN or infinite float, a time that RFC 3339 cannot hold) sets Err, and
// the caller discards B.
type JSON struct {
	B      []byte
	Indent bool
	Err    error

	depth int
	// empty is set while the innermost open container has no member.
	empty bool
}

// Object opens an object as the next value: the whole document, or the
// next element of the open array.
func (w *JSON) Object() {
	w.elem()
	w.open('{')
}

// ObjectField opens an object as member k.
func (w *JSON) ObjectField(k string) {
	w.key(k)
	w.open('{')
}

// ArrayField opens an array as member k.
func (w *JSON) ArrayField(k string) {
	w.key(k)
	w.open('[')
}

// EndObject closes the innermost open object.
func (w *JSON) EndObject() { w.close('}') }

// EndArray closes the innermost open array.
func (w *JSON) EndArray() { w.close(']') }

// Int writes member k as an integer.
func (w *JSON) Int(k string, v int64) {
	w.key(k)
	w.B = strconv.AppendInt(w.B, v, 10)
}

// Uint writes member k as an unsigned integer.
func (w *JSON) Uint(k string, v uint64) {
	w.key(k)
	w.B = strconv.AppendUint(w.B, v, 10)
}

// Float writes member k as encoding/json writes a float64.
func (w *JSON) Float(k string, v float64) {
	w.key(k)
	w.float(v)
}

// String writes member k as an HTML-safe JSON string.
func (w *JSON) String(k, v string) {
	w.key(k)
	w.B = appendString(w.B, v)
}

// Bool writes member k as true or false.
func (w *JSON) Bool(k string, v bool) {
	w.key(k)
	w.B = strconv.AppendBool(w.B, v)
}

// Time writes member k as time.Time's MarshalJSON does: RFC 3339 with
// nanoseconds, trailing zeros trimmed, in the time's own zone. A year
// outside [0, 9999] or a zone offset of a day or more is an error.
func (w *JSON) Time(k string, t time.Time) {
	w.key(k)
	n := len(w.B) + 1
	w.B = t.AppendFormat(append(w.B, '"'), time.RFC3339Nano)
	b := w.B
	switch {
	case b[n+len("9999")] != '-':
		w.fail(fmt.Errorf("json: time %s: year outside of range [0,9999]", b[n:]))
	case b[len(b)-1] != 'Z':
		hh := b[len(b)-len("07:00"):]
		if c := b[len(b)-len("Z07:00")]; '0' <= c && c <= '9' || 10*(hh[0]-'0')+hh[1]-'0' >= 24 {
			w.fail(fmt.Errorf("json: time %s: timezone hour outside of range [0,23]", b[n:]))
		}
	}
	w.B = append(w.B, '"')
}

// Null writes member k as null.
func (w *JSON) Null(k string) {
	w.key(k)
	w.B = append(w.B, "null"...)
}

// IntOmitEmpty is Int for an omitempty field.
func (w *JSON) IntOmitEmpty(k string, v int64) {
	if v != 0 {
		w.Int(k, v)
	}
}

// UintOmitEmpty is Uint for an omitempty field.
func (w *JSON) UintOmitEmpty(k string, v uint64) {
	if v != 0 {
		w.Uint(k, v)
	}
}

// FloatOmitEmpty is Float for an omitempty field: ±0 is left out, NaN
// is not.
func (w *JSON) FloatOmitEmpty(k string, v float64) {
	if v != 0 {
		w.Float(k, v)
	}
}

// StringOmitEmpty is String for an omitempty field.
func (w *JSON) StringOmitEmpty(k, v string) {
	if v != "" {
		w.String(k, v)
	}
}

// BoolOmitEmpty is Bool for an omitempty field.
func (w *JSON) BoolOmitEmpty(k string, v bool) {
	if v {
		w.Bool(k, v)
	}
}

// BytesOmitEmpty writes an omitempty []byte member as encoding/json
// does: standard base64 in a string, with nil and empty left out.
func (w *JSON) BytesOmitEmpty(k string, v []byte) {
	if len(v) == 0 {
		return
	}
	w.key(k)
	w.B = append(w.B, '"')
	w.B = base64.StdEncoding.AppendEncode(w.B, v)
	w.B = append(w.B, '"')
}

// FloatsOmitEmpty writes an omitempty []float64 member.
func (w *JSON) FloatsOmitEmpty(k string, v []float64) {
	if len(v) == 0 {
		return
	}
	w.ArrayField(k)
	for _, x := range v {
		w.elem()
		w.float(x)
	}
	w.EndArray()
}

func (w *JSON) fail(err error) {
	if w.Err == nil {
		w.Err = err
	}
}

// open starts a container where the caller placed it.
func (w *JSON) open(c byte) {
	w.B = append(w.B, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container. A non-empty one ends on its own
// line under Indent; either way its parent now has a member.
func (w *JSON) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.B = append(w.B, c)
	w.empty = false
}

// elem starts the next element of the open array (or the document).
func (w *JSON) elem() {
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.B = append(w.B, ',')
	}
	w.empty = false
	w.newline()
}

// key starts member k of the open object.
func (w *JSON) key(k string) {
	w.elem()
	w.B = append(w.B, '"')
	w.B = append(w.B, k...)
	w.B = append(w.B, '"', ':')
	if w.Indent {
		w.B = append(w.B, ' ')
	}
}

// newline breaks the line and indents it to the current depth under
// Indent.
func (w *JSON) newline() {
	if !w.Indent {
		return
	}
	w.B = append(w.B, '\n')
	for range w.depth {
		w.B = append(w.B, ' ', ' ')
	}
}

// float appends v as encoding/json does: the shortest decimal that
// round-trips, in 'f' form unless |v| < 1e-6 or |v| ≥ 1e21, where it
// takes 'e' form with a one-digit negative exponent unpadded (1e-7,
// not 1e-07). NaN and ±Inf are errors.
func (w *JSON) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.fail(errors.New("json: unsupported value: " + strconv.FormatFloat(v, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.B, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.B = b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json's HTML-safe string: '"' and
// '\\' backslash-escaped, \b \f \n \r \t by name, other control bytes
// and < > & as \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028
// and U+2029 as \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
