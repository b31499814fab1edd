package durable

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// scalars is a struct of every member kind JSON writes, encoded by
// encoding/json for the comparison.
type scalars struct {
	I   int64     `json:"i"`
	U   uint64    `json:"u"`
	F   float64   `json:"f"`
	S   string    `json:"s"`
	B   bool      `json:"b"`
	T   time.Time `json:"t"`
	FO  float64   `json:"fo,omitempty"`
	SO  string    `json:"so,omitempty"`
	RO  []byte    `json:"ro,omitempty"`
	FS  []float64 `json:"fs,omitempty"`
	Sub *scalars  `json:"sub,omitempty"`
}

func (v *scalars) write(w *JSON) {
	w.Int("i", v.I)
	w.Uint("u", v.U)
	w.Float("f", v.F)
	w.String("s", v.S)
	w.Bool("b", v.B)
	w.Time("t", v.T)
	w.FloatOmitEmpty("fo", v.FO)
	w.StringOmitEmpty("so", v.SO)
	w.BytesOmitEmpty("ro", v.RO)
	w.FloatsOmitEmpty("fs", v.FS)
	if v.Sub != nil {
		w.ObjectField("sub")
		v.Sub.write(w)
		w.EndObject()
	}
}

// TestJSONMatchesEncodingJSON holds JSON to encoding/json's bytes, both
// compact and indented, for the values whose encoding has a rule of its
// own, and to its refusals.
func TestJSONMatchesEncodingJSON(t *testing.T) {
	zone := time.FixedZone("", -(3*3600 + 1800))
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1.5e-300, 5e-324,
		1e20, 1e21, -1e21, 123456789, 1e6, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", "plain", `<a href="x">&amp;</a>`, "tab\tnl\ncr\rbs\bff\f\x00\x01\x1f\x7f",
		"back\\slash", "bad\xffutf8\xc3", "\u2028line\u2029para", "héllo → wörld", "\xed\xa0\x80"}
	times := []time.Time{{}, time.Unix(1700000000, 123456789).UTC(), time.Unix(1700000000, 500).In(zone),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)}
	var vals []scalars
	for i, f := range floats {
		vals = append(vals, scalars{I: int64(i) - 3, U: math.MaxUint64 - uint64(i), F: f, FO: f,
			S: strs[i%len(strs)], SO: strs[(i+1)%len(strs)], T: times[i%len(times)]})
	}
	for i, s := range strs {
		v := scalars{S: s, SO: s, RO: []byte(s), T: times[i%len(times)]}
		if i%3 == 0 {
			v.RO, v.FS = []byte{}, []float64{}
		}
		if i%3 == 1 {
			v.FS = floats[:i]
			v.Sub = &vals[i]
		}
		vals = append(vals, v)
	}
	for _, v := range vals {
		for _, indent := range []bool{false, true} {
			want, _ := json.Marshal(&v)
			if indent {
				want, _ = json.MarshalIndent(&v, "", "  ")
			}
			w := JSON{B: []byte("prefix"), Indent: indent}
			w.Object()
			v.write(&w)
			w.EndObject()
			if w.Err != nil || !bytes.Equal(w.B[len("prefix"):], want) {
				t.Fatalf("indent %v: got %s (%v)\nwant %s", indent, w.B, w.Err, want)
			}
		}
	}
	bad := []scalars{
		{F: math.NaN()}, {F: math.Inf(1)}, {FO: math.Inf(-1)}, {FS: []float64{1, math.NaN()}},
		{T: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{T: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{T: time.Unix(0, 0).In(time.FixedZone("", 24*3600))},
	}
	for _, v := range bad {
		if _, err := json.Marshal(&v); err == nil {
			t.Fatalf("encoding/json accepts %+v", v)
		}
		w := JSON{}
		w.Object()
		v.write(&w)
		w.EndObject()
		if w.Err == nil {
			t.Errorf("JSON accepts %+v: %s", v, w.B)
		}
	}
}

// TestSectionInPlace holds a section whose payload was appended in place
// to the bytes AppendSection writes for the same payload.
func TestSectionInPlace(t *testing.T) {
	for _, payload := range []string{"", "x", `{"epoch":3}`} {
		dst, start := BeginSection([]byte("head"), "a4ck.model")
		got := EndSection(append(dst, payload...), start)
		if want := AppendSection([]byte("head"), "a4ck.model", []byte(payload)); !bytes.Equal(got, want) {
			t.Fatalf("payload %q: in place %x, AppendSection %x", payload, got, want)
		}
	}
}
