package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// The request wire codec: a strict hand-written decoder for the four
// POST bodies, which the shards and the gateway both run, and the float
// rendering every answer is appended with. Both reproduce encoding/json
// exactly, so served behaviour and bytes are those of json.Decoder (with
// DisallowUnknownFields and a trailing-data check) and json.Marshal —
// without reflection, and without a per-tuple allocation on /v1/batch.
// The gateway's side of a split /v1/batch also lives here: the sub-body
// encoder (AppendBatchRequest) and the scanner that finds the result
// fragments in a shard's answer (ScanBatchResults).
//
// The decoder accepts the same inputs as that json.Decoder setup and
// yields the same values: whitespace, null for any field (a no-op, or a
// nil slice), string escapes with invalid UTF-8 and lone surrogates
// coerced to U+FFFD, keys matched exactly and then case-folded (so
// "System" and a Kelvin-sign "k" match), the JSON number grammar, ints
// that reject fractions, exponents and overflow, and a top-level null.
// One deliberate divergence: a key repeated within an object (after case
// folding) is rejected. encoding/json would merge a repeated array into
// the previous one's elements, and no client needs that. Both properties
// are pinned by FuzzBatchDecode and FuzzRequestDecode, which use
// encoding/json as the oracle.
//
// There is no fallback to encoding/json: an input outside the grammar is
// a 400, so the two decoders cannot disagree silently on a path that is
// rarely exercised.

// errTrailingData rejects a body carrying anything but whitespace after
// its request object.
var errTrailingData = errors.New("trailing data after the request object")

// wireStruct describes one request struct's JSON object: its Go name
// and, for a nested struct, the field path leading to it (both only for
// error messages, which name fields as encoding/json does), and its JSON
// field names in declaration order.
type wireStruct struct {
	goName, path string
	fields       []string
}

// The field names come from the structs' json tags, so the tags stay the
// one definition of each body's keys.
var (
	batchWire   = newWireStruct(BatchRequest{}, "")
	tupleWire   = newWireStruct(BatchTuple{}, "tuples.")
	predictWire = newWireStruct(PredictRequest{}, "")
	sweepWire   = newWireStruct(SweepRequest{}, "")
	adviseWire  = newWireStruct(AdviseRequest{}, "")
)

// newWireStruct describes v's struct type from its json tags. Every
// field must carry a plain name tag, and there are at most 32 of them
// (object tracks the keys it has seen in a uint32).
func newWireStruct(v any, path string) wireStruct {
	t := reflect.TypeOf(v)
	st := wireStruct{goName: t.Name(), path: path}
	for i := 0; i < t.NumField(); i++ {
		name := t.Field(i).Tag.Get("json")
		if name == "" || name == "-" || strings.Contains(name, ",") {
			panic(fmt.Sprintf("api: %s.%s needs a plain json name tag", t.Name(), t.Field(i).Name))
		}
		st.fields = append(st.fields, name)
	}
	if len(st.fields) > 32 {
		panic(fmt.Sprintf("api: %s has more than 32 fields", t.Name()))
	}
	return st
}

// index returns the index of the field key names — an exact match first,
// then a case-folded one, as encoding/json resolves keys — or -1.
func (st *wireStruct) index(key []byte) int {
	for i, f := range st.fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range st.fields {
		if bytes.EqualFold(key, []byte(f)) {
			return i
		}
	}
	return -1
}

// name is field i's path in encoding/json's error messages.
func (st *wireStruct) name(i int) string { return st.goName + "." + st.path + st.fields[i] }

// The request decoders pass the address of every field, in declaration
// order (TestDecodersCoverEveryField).

// DecodeBatch decodes a /v1/batch body into req, reusing the capacity of
// req.Tuples.
func DecodeBatch(body []byte, req *BatchRequest) error {
	return decodeRequest(body, &batchWire, &req.Class, &req.Engine, &req.Workers, &req.Tuples)
}

// DecodePredict decodes a /v1/predict body into req.
func DecodePredict(body []byte, req *PredictRequest) error {
	return decodeRequest(body, &predictWire, &req.System, &req.Program, &req.Class,
		&req.Nodes, &req.Cores, &req.FreqGHz, &req.Engine)
}

// DecodeSweep decodes a /v1/sweep body into req.
func DecodeSweep(body []byte, req *SweepRequest) error {
	return decodeRequest(body, &sweepWire, &req.System, &req.Program, &req.Class,
		&req.MaxNodes, &req.Pow2, &req.Workers, &req.DeadlineS, &req.BudgetJ, &req.Engine)
}

// DecodeAdvise decodes a /v1/advise body into req.
func DecodeAdvise(body []byte, req *AdviseRequest) error {
	return decodeRequest(body, &adviseWire, &req.System, &req.Program, &req.Class,
		&req.Nodes, &req.Cores, &req.Policies, &req.MaxSlowdownPct, &req.Engine)
}

// wireDecoder is a cursor over one request body.
type wireDecoder struct {
	data []byte
	pos  int
}

// decodeRequest decodes body as exactly one JSON value — an object with
// st's fields, decoded into dsts, or null, which leaves them as they
// are — followed by nothing but whitespace.
func decodeRequest(body []byte, st *wireStruct, dsts ...any) error {
	d := wireDecoder{data: body}
	d.skipSpace()
	if d.pos == len(body) {
		return io.EOF // what json.Decoder reports for an empty body
	}
	var err error
	switch d.peek() {
	case '{':
		err = d.object(st, dsts)
	case 'n':
		err = d.literal("null")
	default:
		if k := d.kind(); k != "" {
			return fmt.Errorf("json: cannot unmarshal %s into Go value of type api.%s", k, st.goName)
		}
		return d.syntaxError("looking for beginning of value")
	}
	if err != nil {
		return err
	}
	d.skipSpace()
	if d.pos != len(body) {
		return errTrailingData
	}
	return nil
}

// value decodes the value at the cursor into dst, field i of st.
func (d *wireDecoder) value(dst any, st *wireStruct, i int) error {
	switch p := dst.(type) {
	case *string:
		return d.str(p, st, i)
	case *int:
		return d.int(p, st, i)
	case *float64:
		return d.float(p, st, i)
	case *bool:
		return d.bool(p, st, i)
	case *[]string:
		return d.strings(p, st, i)
	case *[]BatchTuple:
		return d.tuples(p, st, i)
	}
	panic(fmt.Sprintf("api: no wire decoding for %T", dst))
}

// tuples decodes the batch tuple array, reusing the capacity of *dst.
// A slice that must grow is sized once, from an upper bound on the
// array's length (every tuple object opens with a brace).
func (d *wireDecoder) tuples(dst *[]BatchTuple, st *wireStruct, i int) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.typeError(st, i, "[]api.BatchTuple")
	}
	ts := (*dst)[:0]
	if n := min(bytes.Count(d.data[d.pos:], []byte{'{'}), MaxBatchTuples+1); ts == nil || cap(ts) < n {
		ts = make([]BatchTuple, 0, n)
	}
	err := d.array(func() error {
		ts = append(ts, BatchTuple{})
		t := &ts[len(ts)-1]
		switch d.peek() {
		case 'n':
			return d.literal("null")
		case '{':
			return d.object(&tupleWire, []any{&t.System, &t.Program, &t.Nodes, &t.Cores, &t.FreqGHz})
		}
		return d.typeError(st, i, "api.BatchTuple")
	})
	*dst = ts
	return err
}

func (d *wireDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body.
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// syntaxError describes the byte at the cursor as unexpected in context,
// in encoding/json's wording.
func (d *wireDecoder) syntaxError(context string) error {
	if d.pos >= len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s", d.data[d.pos], context)
}

// kind names the JSON value at the cursor as encoding/json's type errors
// do, or returns "" when no value starts there.
func (d *wireDecoder) kind() string {
	switch c := d.peek(); {
	case c == '"':
		return "string"
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == 't' || c == 'f':
		return "bool"
	case c == '-' || '0' <= c && c <= '9':
		return "number"
	}
	return ""
}

// typeError rejects the value at the cursor as the wrong JSON type for
// field i of st, of Go type goType.
func (d *wireDecoder) typeError(st *wireStruct, i int, goType string) error {
	k := d.kind()
	if k == "" {
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("json: cannot unmarshal %s into Go struct field %s of type %s", k, st.name(i), goType)
}

// literal consumes one of the literals null, true and false.
func (d *wireDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.syntaxError(fmt.Sprintf("in literal %s (expecting %q)", word, word[i]))
		}
		d.pos++
	}
	return nil
}

// object reads the JSON object at the cursor (which is at its '{') into
// dsts, the addresses of st's fields. An unknown key, or one already
// seen in this object, is an error.
func (d *wireDecoder) object(st *wireStruct, dsts []any) error {
	d.pos++
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	var seen uint32
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		raw, plain, err := d.stringToken()
		if err != nil {
			return err
		}
		key := raw
		if !plain {
			key = unquote(raw)
		}
		i := st.index(key)
		if i < 0 {
			return fmt.Errorf("json: unknown field %q", key)
		}
		if seen&(1<<i) != 0 {
			return fmt.Errorf("json: duplicate field %q", key)
		}
		seen |= 1 << i
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		d.skipSpace()
		if err := d.value(dsts[i], st, i); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// array reads the JSON array at the cursor (which is at its '['),
// calling elem with the cursor at each element.
func (d *wireDecoder) array(elem func() error) error {
	d.pos++
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// stringToken consumes the JSON string at the cursor and returns its
// bytes between the quotes. plain reports that they are ASCII without
// escapes, so they are the string's value as they stand.
func (d *wireDecoder) stringToken() (raw []byte, plain bool, err error) {
	start := d.pos + 1
	plain = true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			switch d.byteAt(i) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := i + 1; j <= i+4; j++ {
					if !isHex(d.byteAt(j)) {
						d.pos = j
						return nil, false, d.syntaxError(`in \u hexadecimal character escape`)
					}
				}
				i += 4
			default:
				d.pos = i
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntaxError("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.pos = len(d.data)
	return nil, false, io.ErrUnexpectedEOF
}

// byteAt returns data[i], or 0 past the end of the body.
func (d *wireDecoder) byteAt(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the contents of a string token that stringToken
// validated, as encoding/json does: escapes resolved, a surrogate pair
// combined, and a lone surrogate or an invalid UTF-8 byte each replaced
// by U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
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

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
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

// str decodes a string field. A plain value that names a catalogue entry
// shares the interned string, so decoding well-formed requests allocates
// no strings.
func (d *wireDecoder) str(dst *string, st *wireStruct, i int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		raw, plain, err := d.stringToken()
		if err != nil {
			return err
		}
		if !plain {
			*dst = string(unquote(raw))
		} else if s, ok := wireNames[string(raw)]; ok {
			*dst = s
		} else {
			*dst = string(raw)
		}
		return nil
	}
	return d.typeError(st, i, "string")
}

// strings decodes a []string field.
func (d *wireDecoder) strings(dst *[]string, st *wireStruct, i int) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.typeError(st, i, "[]string")
	}
	out := []string{}
	err := d.array(func() error {
		out = append(out, "")
		return d.str(&out[len(out)-1], st, i)
	})
	*dst = out
	return err
}

// bool decodes a bool field.
func (d *wireDecoder) bool(dst *bool, st *wireStruct, i int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.typeError(st, i, "bool")
}

// int decodes an int field. Like encoding/json it parses the number
// literal with strconv.ParseInt, so a fraction, an exponent or overflow
// is a type error.
func (d *wireDecoder) int(dst *int, st *wireStruct, i int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.typeError(st, i, "int")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into Go struct field %s of type int", tok, st.name(i))
	}
	*dst = int(n)
	return nil
}

// float decodes a float64 field; a literal beyond float64's range is a
// type error, as it is to encoding/json.
func (d *wireDecoder) float(dst *float64, st *wireStruct, i int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.typeError(st, i, "float64")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into Go struct field %s of type float64", tok, st.name(i))
	}
	*dst = f
	return nil
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns it.
func (d *wireDecoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.skipDigits()
	default:
		return nil, d.syntaxError("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !isDigit(d.peek()) {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		d.skipDigits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !isDigit(d.peek()) {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		d.skipDigits()
	}
	return d.data[start:d.pos], nil
}

func (d *wireDecoder) skipDigits() {
	for isDigit(d.peek()) {
		d.pos++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// AppendBatchRequest appends a /v1/batch body carrying tuples exactly as
// json.Marshal(BatchRequest{class, engine, workers, tuples}) renders it.
// The class, engine and names are written unescaped, so they must have
// passed validation (CanonBatch, CheckEngine) and every float be finite.
func AppendBatchRequest(b []byte, class, engine string, workers int, tuples []BatchTuple) []byte {
	b = append(b, `{"class":"`...)
	b = append(b, class...)
	b = append(b, `","engine":"`...)
	b = append(b, engine...)
	b = append(b, `","workers":`...)
	b = strconv.AppendInt(b, int64(workers), 10)
	b = append(b, `,"tuples":[`...)
	for i, t := range tuples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"system":"`...)
		b = append(b, t.System...)
		b = append(b, `","program":"`...)
		b = append(b, t.Program...)
		b = append(b, `","nodes":`...)
		b = strconv.AppendInt(b, int64(t.Nodes), 10)
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(t.Cores), 10)
		b = append(b, `,"freq_ghz":`...)
		b = appendFloat(b, t.FreqGHz)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// BatchFragment is one element of a /v1/batch answer's results array:
// its bytes, Body[Start:End], and the two numbers a merge sums.
type BatchFragment struct {
	Start, End     int
	TimeS, EnergyJ float64
}

// The byte layouts of a /v1/batch answer as RenderBatch and
// AppendBatchResult write them, which is all ScanBatchResults accepts:
// literal bytes, with %s standing for a JSON string, %n for a JSON
// number, and %t and %e for the time_s and energy_j numbers it reads.
const (
	batchHeadShape   = `{"class":%s,"count":%n,"groups":%n,"results":[`
	batchResultShape = `{"system":%s,"program":%s,"config":{"nodes":%n,"cores":%n,"freq_ghz":%n},"time_s":%t,"energy_j":%e,"power_w":%n,"ucr":%n}`
	batchTailShape   = "]}\n"
)

// ScanBatchResults walks a shard's /v1/batch answer and appends one
// BatchFragment per element of its results array to frags. A shard's
// answer is untrusted bytes that a gateway splices into its own, so the
// scan is strict: the body must be exactly what RenderBatch renders —
// the same keys in the same order, no whitespace, valid strings and
// numbers, finite time_s and energy_j — and anything else is an error.
// So every fragment it returns is one well-formed JSON object on one
// line. It parses nothing but those two numbers.
func ScanBatchResults(body []byte, frags []BatchFragment) ([]BatchFragment, error) {
	d := wireDecoder{data: body}
	var f BatchFragment
	if err := d.match(batchHeadShape, &f); err != nil {
		return frags, err
	}
	for d.peek() != ']' {
		if len(frags) > 0 {
			if err := d.match(",", &f); err != nil {
				return frags, err
			}
		}
		f = BatchFragment{Start: d.pos}
		if err := d.match(batchResultShape, &f); err != nil {
			return frags, err
		}
		f.End = d.pos
		frags = append(frags, f)
	}
	if err := d.match(batchTailShape, &f); err != nil {
		return frags, err
	}
	if d.pos != len(body) {
		return frags, errors.New("trailing data after the answer")
	}
	return frags, nil
}

// match consumes the bytes shape describes (see batchResultShape) at
// the cursor, reading its %t and %e numbers into f.
func (d *wireDecoder) match(shape string, f *BatchFragment) error {
	for i := 0; i < len(shape); i++ {
		if shape[i] != '%' {
			if d.peek() != shape[i] {
				return d.syntaxError(fmt.Sprintf("where %q belongs", shape[i]))
			}
			d.pos++
			continue
		}
		i++
		if shape[i] == 's' {
			if d.peek() != '"' {
				return d.syntaxError("looking for beginning of a string")
			}
			if _, _, err := d.stringToken(); err != nil {
				return err
			}
			continue
		}
		if c := d.peek(); c != '-' && !isDigit(c) {
			return d.syntaxError("looking for beginning of a number")
		}
		tok, err := d.number()
		if err != nil {
			return err
		}
		dst := &f.TimeS
		switch shape[i] {
		case 'n':
			continue
		case 'e':
			dst = &f.EnergyJ
		}
		if *dst, err = strconv.ParseFloat(string(tok), 64); err != nil {
			return fmt.Errorf("number %s out of range", tok)
		}
	}
	return nil
}

// wireNames interns every catalogue name a request may carry (systems,
// programs, classes, engines, policies), keyed by its bytes.
var wireNames = func() map[string]string {
	m := map[string]string{}
	for name := range machine.Profiles() {
		m[name] = name
	}
	for _, s := range workload.Extended() {
		m[s.Name] = s.Name
	}
	for _, c := range workload.Classes() {
		m[string(c)] = string(c)
	}
	for _, e := range []string{Engine, "goroutine"} {
		m[e] = e
	}
	for _, p := range dvfs.Policies() {
		m[p] = p
	}
	return m
}()

// appendFloat appends f exactly as json.Marshal renders a float64: the
// shortest representation in 'f' form, switching to 'e' form outside
// [1e-6, 1e21) with a two-digit negative exponent trimmed (e-07 → e-7).
// f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
