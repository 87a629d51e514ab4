package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/graph"
)

// This file keeps the encoding/json codec that EncodeJSON and DecodeJSON
// replaced. It is the executable specification of the canonical form: the
// differential tests and FuzzDecodeJSONFastVsReference hold the
// hand-written codec to it byte for byte and graph for graph.

// EncodeJSONReference and DecodeJSONReference export the oracles to the
// external test package.
var (
	EncodeJSONReference = encodeJSONReference
	DecodeJSONReference = decodeJSONReference
)

// jsonGraph is the on-disk representation of a canonical task graph.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges"`
}

type jsonNode struct {
	Name string `json:"name,omitempty"`
	Kind string `json:"kind"`
	In   int64  `json:"in,omitempty"`
	Out  int64  `json:"out,omitempty"`
}

func kindFromString(s string) (Kind, error) {
	switch s {
	case "compute":
		return Compute, nil
	case "buffer":
		return Buffer, nil
	case "source":
		return Source, nil
	case "sink":
		return Sink, nil
	}
	return 0, fmt.Errorf("core: unknown node kind %q", s)
}

// encodeJSONReference writes t through encoding/json's indenting Encoder,
// with edges sorted by (From, To) independently of graph.EachEdge.
func encodeJSONReference(t *TaskGraph, w io.Writer) error {
	jg := jsonGraph{Nodes: make([]jsonNode, 0, len(t.Nodes))}
	for _, n := range t.Nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{
			Name: n.Name, Kind: n.Kind.String(), In: n.In, Out: n.Out,
		})
	}
	for u := 0; u < t.G.Len(); u++ {
		for _, v := range t.G.Succs(graph.NodeID(u)) {
			jg.Edges = append(jg.Edges, [2]int{u, int(v)})
		}
	}
	sort.Slice(jg.Edges, func(i, j int) bool {
		a, b := jg.Edges[i], jg.Edges[j]
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// decodeJSONReference decodes through json.Decoder into jsonGraph, then
// builds and freezes the graph.
func decodeJSONReference(r io.Reader) (*TaskGraph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("core: decoding task graph: %w", err)
	}
	t := New()
	for i, jn := range jg.Nodes {
		k, err := kindFromString(jn.Kind)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		t.add(Node{Kind: k, In: jn.In, Out: jn.Out, Name: jn.Name})
	}
	for i, e := range jg.Edges {
		if e[0] < 0 || e[0] >= len(jg.Nodes) || e[1] < 0 || e[1] >= len(jg.Nodes) {
			return nil, fmt.Errorf("core: edge %d references unknown node", i)
		}
		if err := t.Connect(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			return nil, fmt.Errorf("core: edge %d: %w", i, err)
		}
	}
	if err := t.Freeze(); err != nil {
		return nil, err
	}
	return t, nil
}
