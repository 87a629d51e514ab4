package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/graph"
)

// The canonical core-JSON form of a task graph is one object:
//
//	{"nodes": [{"name": ..., "kind": ..., "in": ..., "out": ...}, ...],
//	 "edges": [[from, to], ...]}
//
// Node order defines IDs and edges reference node indices. "name" is
// omitted when empty and "in"/"out" when zero; "kind" is one of compute,
// buffer, source and sink. The codec below is hand-written; the
// encoding/json code it replaced is kept in json_reference_test.go as the
// differential oracle for both directions.

// EncodeJSON writes the task graph in its canonical form, indented by two
// spaces, edges in (From, To) order ("edges": null when there are none),
// with a trailing newline. The bytes are exactly what encoding/json's
// indenting Encoder writes for the same document, HTML-safe escaping
// included, so results.Fingerprint, which hashes them, never moves.
func (t *TaskGraph) EncodeJSON(w io.Writer) error {
	// Each record is appended to the writer's free space and written;
	// bufio.Writer keeps the first write error and Flush returns it, so
	// the writes need not check theirs.
	bw := bufio.NewWriterSize(w, 64<<10)
	b := append(bw.AvailableBuffer(), "{\n  \"nodes\": ["...)
	for i, n := range t.Nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      "...)
		if n.Name != "" {
			b = append(b, `"name": `...)
			b = appendString(b, n.Name)
			b = append(b, ",\n      "...)
		}
		b = append(b, `"kind": `...)
		b = appendString(b, n.Kind.String())
		if n.In != 0 {
			b = append(b, ",\n      \"in\": "...)
			b = strconv.AppendInt(b, n.In, 10)
		}
		if n.Out != 0 {
			b = append(b, ",\n      \"out\": "...)
			b = strconv.AppendInt(b, n.Out, 10)
		}
		b = append(b, "\n    }"...)
		_, _ = bw.Write(b)
		b = bw.AvailableBuffer()
	}
	if len(t.Nodes) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"edges\": "...)
	if t.G.NumEdges() == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		sep := "\n    [\n      "
		t.G.EachEdge(func(u, v graph.NodeID) {
			b = append(b, sep...)
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ",\n      "...)
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, "\n    ]"...)
			_, _ = bw.Write(b)
			b = bw.AvailableBuffer()
			sep = ",\n    [\n      "
		})
		b = append(b, "\n  ]"...)
	}
	b = append(b, "\n}\n"...)
	_, _ = bw.Write(b)
	return bw.Flush()
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape is copied as is; anything else goes through json.Marshal, whose
// escaping (<, > and & as \u003c-style escapes, U+2028 and U+2029
// escaped, invalid UTF-8 as U+FFFD) is the canonical one.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeJSON reads a task graph in the canonical form (as EncodeJSON
// writes it, or authored by hand) and validates it. The result is frozen
// and ready for analysis.
//
// It is a single-pass scanner that accepts exactly the inputs
// encoding/json's Decoder accepts into that document shape and builds the
// same graph from them: keys match case-insensitively (bytes.EqualFold),
// unknown keys are skipped, a top-level null is the empty graph, an edge
// keeps its first two elements and zero-fills missing ones, a null field
// or element keeps its old value, a repeated key decodes into the
// elements already there, integers reject fractions and exponents,
// nesting is limited to 10000 levels, and whatever follows the first
// value is ignored. Only the error texts differ.
func DecodeJSON(r io.Reader) (*TaskGraph, error) {
	d := decoder{r: r}
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("core: decoding task graph: %w", err)
	}
	nodes, edges := d.nodes[:d.numNodes], d.edges[:d.numEdges]
	t := &TaskGraph{G: graph.NewWithCapacity(len(nodes)), Nodes: make([]Node, 0, len(nodes))}
	for i := range nodes {
		if !nodes[i].kindOK {
			return nil, fmt.Errorf("core: node %d: core: unknown node kind %q", i, nodes[i].badKind)
		}
		t.add(nodes[i].Node)
	}
	for i, e := range edges {
		if e[0] < 0 || e[0] >= len(nodes) || e[1] < 0 || e[1] >= len(nodes) {
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

// maxDepth is encoding/json's nesting limit: a value nested deeper is a
// syntax error.
const maxDepth = 10000

// nodeRec is one decoded element of "nodes". Its zero value is what a
// fresh element holds, a node without a kind, which is rejected.
type nodeRec struct {
	Node
	kindOK  bool   // "kind" named one of the four node kinds
	badKind string // the unknown kind, for the error
}

// decoder holds the scanner state and the document being decoded.
type decoder struct {
	r    io.Reader
	buf  []byte // everything read so far; never compacted, so slices of it stay valid
	pos  int
	rerr error // the reader's last error (io.EOF at the end), met once buf is used up
	// depth counts the open arrays and objects.
	depth int

	// nodes and edges are the backing arrays of the two lists. Like a Go
	// slice that encoding/json decodes into, they keep elements past the
	// list's current length (numNodes, numEdges), and a repeated key
	// decodes into them.
	nodes    []nodeRec
	numNodes int
	edges    [][2]int
	numEdges int
}

// fill reads more input, reporting false at the end of input or on a read
// error. The first read is sized to the whole input when r reports its
// length (bytes.Reader, strings.Reader, bytes.Buffer).
func (d *decoder) fill() bool {
	for d.rerr == nil {
		if len(d.buf) == cap(d.buf) {
			n := cap(d.buf)
			if n == 0 {
				n = 4096
				if l, ok := d.r.(interface{ Len() int }); ok {
					n = max(n, l.Len()+1) // +1: the final read sees io.EOF
				}
			}
			d.buf = slices.Grow(d.buf, n)
		}
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		d.rerr = err
		if n > 0 {
			return true
		}
	}
	return false
}

// peek returns the byte at the cursor, or 0 at the end of input (a raw 0
// byte is never valid JSON either).
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) || d.fill() {
		return d.buf[d.pos]
	}
	return 0
}

// ws skips whitespace and returns the byte at the cursor (0 at the end
// of input).
func (d *decoder) ws() byte {
	for {
		buf, i := d.buf, d.pos
		for ; i < len(buf); i++ {
			if c := buf[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				d.pos = i
				return c
			}
		}
		d.pos = i
		if !d.fill() {
			return 0
		}
	}
}

// unexpected reports the byte at the cursor, the end of input or a read
// error, as met while looking for what.
func (d *decoder) unexpected(what string) error {
	if d.pos >= len(d.buf) {
		if d.rerr != nil && d.rerr != io.EOF {
			return d.rerr
		}
		return fmt.Errorf("unexpected end of input, want %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.buf[d.pos], d.pos, what)
}

// document decodes the top-level value.
func (d *decoder) document() error {
	switch d.ws() {
	case 'n':
		return d.literal("null") // the empty graph
	case '{':
		return d.object(func(k []byte) error {
			switch {
			case keyIs(k, "nodes"):
				return list(d, &d.nodes, &d.numNodes, d.node)
			case keyIs(k, "edges"):
				return list(d, &d.edges, &d.numEdges, d.edge)
			}
			return d.skip()
		})
	}
	return d.unexpected("a graph object")
}

// list decodes the value of a list field by encoding/json's slice rules:
// null or [] drops every element of *backing; otherwise element i decodes
// into (*backing)[i], which may hold what an earlier occurrence of the key
// put there, and the list's length *n becomes the array's.
func list[T any](d *decoder, backing *[]T, n *int, elem func(*T) error) error {
	switch d.ws() {
	case 'n':
		*backing, *n = nil, 0
		return d.literal("null")
	case '[':
		*n = 0
		err := d.array(func(i int) error {
			if i == len(*backing) {
				var zero T
				*backing = append(*backing, zero)
			}
			*n = i + 1
			return elem(&(*backing)[i])
		})
		if *n == 0 {
			*backing = nil
		}
		return err
	}
	return d.unexpected("an array or null")
}

// node decodes one element of "nodes" into n; null leaves it as it is.
func (d *decoder) node(n *nodeRec) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(func(k []byte) error {
			switch {
			case keyIs(k, "name"):
				s, set, err := d.stringValue()
				if set {
					n.Name = string(s)
				}
				return err
			case keyIs(k, "kind"):
				s, set, err := d.stringValue()
				if set {
					n.Kind, n.kindOK = parseKind(s)
					if !n.kindOK {
						n.badKind = string(s)
					}
				}
				return err
			case keyIs(k, "in"):
				return d.intValue(&n.In)
			case keyIs(k, "out"):
				return d.intValue(&n.Out)
			}
			return d.skip()
		})
	}
	return d.unexpected("a node object")
}

func parseKind(s []byte) (Kind, bool) {
	switch string(s) {
	case "compute":
		return Compute, true
	case "buffer":
		return Buffer, true
	case "source":
		return Source, true
	case "sink":
		return Sink, true
	}
	return 0, false
}

// edge decodes one [from, to] pair as encoding/json decodes into a
// [2]int: elements past the second are checked and dropped, missing ones
// become 0, and null (for the pair or for an element) keeps the old value.
func (d *decoder) edge(e *[2]int) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '[':
		n := 0
		err := d.array(func(i int) error {
			n = i + 1
			if i >= len(e) {
				return d.skip()
			}
			v := int64(e[i])
			if err := d.intValue(&v); err != nil {
				return err
			}
			if int64(int(v)) != v {
				return fmt.Errorf("node index %d at offset %d overflows int", v, d.pos)
			}
			e[i] = int(v)
			return nil
		})
		for ; n < len(e); n++ {
			e[n] = 0
		}
		return err
	}
	return d.unexpected("an edge array")
}

// keyIs reports whether an object key selects the field name, with
// encoding/json's case-insensitive matching.
func keyIs(k []byte, name string) bool {
	return string(k) == name || bytes.EqualFold(k, []byte(name))
}

// array decodes the array at the cursor, calling elem with the cursor on
// each element in turn.
func (d *decoder) array(elem func(i int) error) error {
	more, err := d.enter(']')
	for i := 0; more && err == nil; i++ {
		if err = elem(i); err == nil {
			more, err = d.next(']')
		}
	}
	return err
}

// object decodes the object at the cursor, calling field with each key
// and the cursor on its value.
func (d *decoder) object(field func(k []byte) error) error {
	more, err := d.enter('}')
	for more && err == nil {
		var k []byte
		if k, err = d.key(); err == nil {
			if err = field(k); err == nil {
				more, err = d.next('}')
			}
		}
	}
	return err
}

// enter consumes the opening bracket at the cursor and reports whether an
// element follows, consuming the closing one when none does.
func (d *decoder) enter(closing byte) (bool, error) {
	if d.depth++; d.depth > maxDepth {
		return false, fmt.Errorf("exceeded max depth %d at offset %d", maxDepth, d.pos)
	}
	d.pos++
	if d.ws() == closing {
		d.pos++
		d.depth--
		return false, nil
	}
	return true, nil
}

// next consumes the separator after an element and reports whether
// another element follows.
func (d *decoder) next(closing byte) (bool, error) {
	switch d.ws() {
	case ',':
		d.pos++
		return true, nil
	case closing:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.unexpected(fmt.Sprintf("',' or '%c'", closing))
}

// key reads an object key and the colon after it.
func (d *decoder) key() ([]byte, error) {
	if d.ws() != '"' {
		return nil, d.unexpected("an object key")
	}
	k, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.ws() != ':' {
		return nil, d.unexpected("':' after an object key")
	}
	d.pos++
	return k, nil
}

// skip checks and passes over one value of any type.
func (d *decoder) skip() error {
	switch c := d.ws(); c {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.array(func(int) error { return d.skip() })
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		if c == '-' || isDigit(c) {
			_, _, err := d.number()
			return err
		}
	}
	return d.unexpected("a value")
}

// literal consumes the keyword word at the cursor.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.unexpected("the literal " + word)
		}
		d.pos++
	}
	return nil
}

// stringValue reads a string field. set is false for null, which keeps
// the field's old value.
func (d *decoder) stringValue() (s []byte, set bool, err error) {
	switch d.ws() {
	case 'n':
		return nil, false, d.literal("null")
	case '"':
		s, err = d.str()
		return s, err == nil, err
	}
	return nil, false, d.unexpected("a string or null")
}

// intValue reads an integer field: a number without fraction or exponent
// that fits in 64 bits, or null, which keeps *v.
func (d *decoder) intValue(v *int64) error {
	c := d.ws()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && !isDigit(c) {
		return d.unexpected("an integer or null")
	}
	lit, integer, err := d.number()
	if err != nil {
		return err
	}
	n, ok := parseInt(lit)
	if !integer || !ok {
		return fmt.Errorf("number %s before offset %d is not a 64-bit integer", lit, d.pos)
	}
	*v = n
	return nil
}

// parseInt converts a literal of the form -?(0|[1-9][0-9]*).
func parseInt(lit []byte) (int64, bool) {
	if len(lit) > 18 { // may overflow
		n, err := strconv.ParseInt(string(lit), 10, 64)
		return n, err == nil
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var n int64
	for _, c := range lit {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes the number at the cursor, checking its grammar, and
// reports whether it is an integer (has no fraction or exponent).
func (d *decoder) number() (lit []byte, integer bool, err error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0': // a leading 0 stands alone
		d.pos++
	case isDigit(c):
		d.digits()
	default:
		return nil, false, d.unexpected("a digit")
	}
	integer = true
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, false, d.unexpected("a digit after the decimal point")
		}
		integer = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, false, d.unexpected("a digit in the exponent")
		}
		integer = false
	}
	return d.buf[start:d.pos], integer, nil
}

// digits consumes a run of digits and reports whether it was not empty.
func (d *decoder) digits() bool {
	start := d.pos
	for {
		buf, i := d.buf, d.pos
		for i < len(buf) && isDigit(buf[i]) {
			i++
		}
		d.pos = i
		if i < len(buf) || !d.fill() {
			return i > start
		}
	}
}

// str consumes the string at the cursor, checking it as encoding/json's
// scanner does (no raw control characters, only valid escapes), and
// returns its unquoted bytes, which may alias the input.
func (d *decoder) str() ([]byte, error) {
	d.pos++
	start := d.pos
	plain := true // no escape and no byte outside ASCII
	for {
		// Printable ASCII other than the quote and the backslash, the bulk
		// of every name, in one tight loop.
		buf, i := d.buf, d.pos
		for i < len(buf) && buf[i] >= ' ' && buf[i] != '"' && buf[i] != '\\' && buf[i] < utf8.RuneSelf {
			i++
		}
		d.pos = i
		if d.pos >= len(d.buf) && !d.fill() {
			return nil, d.unexpected("the end of the string")
		}
		switch c := d.buf[d.pos]; {
		case c == '"':
			s := d.buf[start:d.pos]
			d.pos++
			if plain {
				return s, nil
			}
			return unquote(s), nil
		case c == '\\':
			plain = false
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if !isHex(d.peek()) {
						return nil, d.unexpected("a hexadecimal digit in a \\u escape")
					}
					d.pos++
				}
			default:
				return nil, d.unexpected("an escape character")
			}
		case c < ' ':
			return nil, d.unexpected("a string character")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.pos++
		}
	}
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote resolves the escapes of a string body checked by str, with
// encoding/json's rules: a \\u escape of an unpaired surrogate becomes
// U+FFFD, and so does every byte of invalid UTF-8.
func unquote(s []byte) []byte {
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return s
	}
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\' && s[r+1] == 'u':
			rr := getu4(s[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
					r += 6
					b = utf8.AppendRune(b, dec)
					break
				}
				rr = unicode.ReplacementChar
			}
			b = utf8.AppendRune(b, rr)
		case c == '\\':
			b = append(b, unescape[s[r+1]])
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// unescape maps the character after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// getu4 decodes the \\uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
