package core_test

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/results"
	"repro/internal/synth"
)

// TestEncodeJSONMatchesReference holds EncodeJSON byte-identical to the
// encoding/json encoder it replaced: every registered workload at seeds
// 1-8, the empty graph, and node names that need escaping. A workload
// whose graph does not depend on the seed (the ONNX models) runs once,
// and the 10⁶-node onnx:mlp-deep is left to onnx:mlp, the same generator
// at a size the suite can afford.
func TestEncodeJSONMatchesReference(t *testing.T) {
	for _, name := range experiments.WorkloadNames() {
		if name == "onnx:mlp-deep" {
			continue
		}
		w, err := experiments.LookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for seed := int64(1); seed <= 8; seed++ {
			tg, err := w.Build(experiments.Options{Graphs: 1, Seed: seed, Config: synth.DefaultConfig()}, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			enc := checkEncode(t, name, tg)
			if seed == 1 {
				first = enc
			} else if bytes.Equal(enc, first) {
				break
			}
		}
	}

	empty := core.New()
	if err := empty.Freeze(); err != nil {
		t.Fatal(err)
	}
	checkEncode(t, "empty", empty)

	names := []string{
		"<&>", "a<b", "a>b", "a&b", `a"b`, "line\nbreak", "tab\there", `back\slash`, "\x00\x1f\x7f",
		"bad\xffutf8\xc3", "sep\u2028par\u2029", "caf\u00e9", "\U0001F600", "\ufffd",
		"ok_name-1.2", "",
	}
	named := core.New()
	prev := named.AddSource(names[0], 4)
	for _, n := range names[1:] {
		v := named.AddElementWise(n, 4)
		named.MustConnect(prev, v)
		prev = v
	}
	named.MustConnect(prev, named.AddSink("out", 4))
	if err := named.Freeze(); err != nil {
		t.Fatal(err)
	}
	checkEncode(t, "escaped names", named)

	// EncodeJSON also writes unfrozen graphs with out-of-range kinds and
	// negative volumes; the reference does too.
	odd := core.New()
	odd.Nodes = append(odd.Nodes, core.Node{Kind: core.Kind(9), In: -3, Out: 0})
	odd.G.AddNode()
	checkEncode(t, "odd", odd)
}

// checkEncode compares EncodeJSON with the reference and returns the
// encoding.
func checkEncode(t *testing.T, name string, tg *core.TaskGraph) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := tg.EncodeJSON(&got); err != nil {
		t.Fatalf("%s: EncodeJSON: %v", name, err)
	}
	if err := core.EncodeJSONReference(tg, &want); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s (%d nodes): encoding differs from the reference at byte %d:\ngot  %q\nwant %q",
			name, tg.Len(), i, clip(g, i), clip(w, i))
	}
	return got.Bytes()
}

func clip(s string, i int) string {
	lo, hi := max(0, i-40), min(len(s), i+40)
	return s[lo:hi]
}

// FuzzDecodeJSONFastVsReference holds DecodeJSON to the encoding/json
// decoder it replaced: for any input both accept or both reject, and an
// accepted graph has the same nodes, the same successor and predecessor
// order and the same edge volumes. The corpus seeds the reference's
// quirks.
func FuzzDecodeJSONFastVsReference(f *testing.F) {
	for _, s := range []string{
		`{"nodes":[{"kind":"source","out":8},{"kind":"compute","in":8,"out":4},{"kind":"sink","in":4}],"edges":[[0,1],[1,2]]}`,
		// keys match with bytes.EqualFold
		`{"NODES":[{"KIND":"source","OUT":8},{"Kind":"sink","In":8}],"Edges":[[0,1]]}`,
		`{"nodeſ":[{"\u212aind":"source","out":8},{"kind":"sink","in":8}],"edgeſ":[[0,1]]}`,
		`{"n\u006fdes":[{"kind":"compute","in":2,"out":2}]}`,
		// unknown keys are skipped, whatever their value
		`{"x":{"a":[1,-2.5e+3,true,false,null,"s\"\\\/\b\f\n\r\t\u00e9"]},"nodes":[{"kind":"compute","in":1,"out":1,"y":[]}],"edges":[]}`,
		// a top-level null is the empty graph; other scalars are rejected
		`null`, ` null trailing`, `nullx`, `true`, `1`, `"s"`, `[]`, ``, ` `,
		// extra edge elements are dropped, missing ones become 0
		`{"nodes":[{"kind":"source","out":8},{"kind":"sink","in":8}],"edges":[[0,1,7,[{}]]]}`,
		`{"nodes":[{"kind":"sink","in":8},{"kind":"source","out":8}],"edges":[[1]]}`,
		`{"nodes":[{"kind":"source","out":8},{"kind":"sink","in":8}],"edges":[[]]}`,
		// data after the first value is ignored
		`{"nodes":[{"kind":"compute","in":1,"out":1}]} garbage {`,
		// integers reject fractions and exponents
		`{"nodes":[{"kind":"compute","in":4.0,"out":4}]}`,
		`{"nodes":[{"kind":"compute","in":4e0,"out":4}]}`,
		`{"nodes":[{"kind":"compute","in":-0,"out":4}]}`,
		`{"nodes":[{"kind":"compute","in":9223372036854775808,"out":4}]}`,
		`{"nodes":[{"kind":"compute","in":01,"out":4}]}`,
		// a repeated key decodes into the elements already there
		`{"nodes":[{"kind":"source","out":8},{"kind":"sink","in":8}],"nodes":[{"name":"a"},{"name":"b"}],"edges":[[0,1]]}`,
		`{"nodes":[{"kind":"source","out":8},{"kind":"sink","in":8}],"nodes":[{"name":"a"}],"edges":[[0,1]]}`,
		`{"nodes":[{"kind":"source","out":8},{"kind":"sink","in":8}],"nodes":[{}],"nodes":[null,{"name":"b"}],"edges":[[0,1]]}`,
		`{"nodes":[{"kind":"source","out":8},{"kind":"sink","in":8}],"nodes":[],"nodes":[{},{}]}`,
		`{"nodes":[{"kind":"source","out":8},{"kind":"sink","in":8}],"edges":[[0,1]],"edges":[null],"edges":[[null,null]]}`,
		`{"nodes":[{"kind":"source","out":8,"out":null,"name":"s","name":null}]}`,
		// strings: escapes, surrogates, invalid UTF-8, control characters
		`{"nodes":[{"name":"\ud83d\ude00 \ud800 \udc00x \u2028","kind":"compute","in":1,"out":1}]}`,
		"{\"nodes\":[{\"name\":\"\xff\xc3(\",\"kind\":\"compute\",\"in\":1,\"out\":1}]}",
		"{\"nodes\":[{\"name\":\"a\tb\",\"kind\":\"compute\",\"in\":1,\"out\":1}]}",
		`{"nodes":[{"name":"\x","kind":"compute","in":1,"out":1}]}`,
		// type mismatches are rejected
		`{"nodes":{}}`, `{"nodes":[1]}`, `{"nodes":[{"kind":1}]}`, `{"nodes":[{"in":"1"}]}`, `{"edges":[{}]}`, `{"edges":[["0"]]}`,
		// syntax errors
		`{"nodes":[],}`, `{"nodes" []}`, `{nodes:[]}`, `{"a":tru}`, `{"a":-}`, `{"a":1.}`, `{"a":1e}`, `{"a":.5}`,
	} {
		f.Add(s)
	}
	f.Fuzz(checkDecode)
}

// TestDecodeJSONNestingLimit pins encoding/json's nesting limit of 10000
// arrays and objects, at and past the limit. These inputs are kept out of
// the fuzz corpus: minimizing 20 KB inputs stalls a short fuzz run.
func TestDecodeJSONNestingLimit(t *testing.T) {
	for _, c := range []struct {
		in     string
		accept bool
	}{
		{`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
		{`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
		{`{"x":` + strings.Repeat(`{"y":`, 9999) + `0` + strings.Repeat("}", 9999) + `}`, true},
		{`{"x":` + strings.Repeat(`{"y":`, 10000) + `0` + strings.Repeat("}", 10000) + `}`, false},
	} {
		checkDecode(t, c.in)
		if _, err := core.DecodeJSON(strings.NewReader(c.in)); (err == nil) != c.accept {
			t.Errorf("%d bytes: DecodeJSON error %v, want accept=%v", len(c.in), err, c.accept)
		}
	}
}

// checkDecode decodes in with DecodeJSON and the reference and fails on
// any difference in accept/reject or in the graph built.
func checkDecode(t *testing.T, in string) {
	t.Helper()
	got, err := core.DecodeJSON(strings.NewReader(in))
	want, wantErr := core.DecodeJSONReference(strings.NewReader(in))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs: got err %v, reference err %v\ninput: %q", err, wantErr, in)
	}
	if err != nil {
		return
	}
	if len(got.Nodes) != len(want.Nodes) || got.Len() != want.Len() || got.G.NumEdges() != want.G.NumEdges() {
		t.Fatalf("size differs: %d nodes/%d edges, reference %d/%d\ninput: %q",
			got.Len(), got.G.NumEdges(), want.Len(), want.G.NumEdges(), in)
	}
	for v := range want.Nodes {
		id := graph.NodeID(v)
		if got.Nodes[v] != want.Nodes[v] {
			t.Fatalf("node %d: %+v, reference %+v\ninput: %q", v, got.Nodes[v], want.Nodes[v], in)
		}
		if !slices.Equal(got.G.Succs(id), want.G.Succs(id)) || !slices.Equal(got.G.Preds(id), want.G.Preds(id)) {
			t.Fatalf("node %d adjacency differs\ninput: %q", v, in)
		}
		for _, w := range want.G.Succs(id) {
			if got.G.Volume(id, w) != want.G.Volume(id, w) {
				t.Fatalf("edge (%d,%d) volume differs\ninput: %q", v, w, in)
			}
		}
	}
}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	sinkGraph       *core.TaskGraph
	sinkFingerprint string
	sinkSum         []byte
)

// benchGraph is the 10⁴-node Gaussian-elimination graph the codec
// benchmarks encode and decode.
func benchGraph(b *testing.B) *core.TaskGraph {
	b.Helper()
	return synth.Gaussian(synth.GaussianFor(10000), rand.New(rand.NewSource(1)), synth.DefaultConfig())
}

// BenchmarkDecodeJSON times DecodeJSON and, in the same process, the
// encoding/json reference it replaced; their ratio is insensitive to the
// machine's speed.
func BenchmarkDecodeJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).EncodeJSON(&buf); err != nil {
		b.Fatal(err)
	}
	in := buf.Bytes()
	for _, c := range []struct {
		name   string
		decode func(io.Reader) (*core.TaskGraph, error)
	}{
		{"Fast", core.DecodeJSON},
		{"Reference", core.DecodeJSONReference},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				g, err := c.decode(bytes.NewReader(in))
				if err != nil {
					b.Fatal(err)
				}
				sinkGraph = g
			}
		})
	}
}

// BenchmarkFingerprint times results.Fingerprint, which streams EncodeJSON
// into SHA-256, and the same hash over the reference encoder.
func BenchmarkFingerprint(b *testing.B) {
	tg := benchGraph(b)
	b.Run("Fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFingerprint = results.Fingerprint(tg)
		}
	})
	b.Run("Reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := sha256.New()
			if err := core.EncodeJSONReference(tg, h); err != nil {
				b.Fatal(err)
			}
			sinkSum = h.Sum(nil)
		}
	})
}
