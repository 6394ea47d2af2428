package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"

	"github.com/hotgauge/boreas/internal/arch"
)

// decodeRequest decodes a /v1/decide body into req.
//
// The canonical form json.Marshal(DecideRequest) writes — exact keys,
// plain ASCII strings, grammar-exact numbers, no duplicates, no null,
// nothing after the value — is scanned directly. Every other input goes
// to encoding/json with DisallowUnknownFields, exactly as before the
// scanner existed, so encoding/json stays the one judge of what is
// accepted: its decoded values and error text are what any input the
// scanner declines gets. FuzzDecideDecoderMatchesJSON pins that the two
// paths agree.
func decodeRequest(body []byte, req *DecideRequest) error {
	if scanRequest(body, req) {
		return nil
	}
	*req = DecideRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// counterField maps each arch.Counters JSON key (its Go field name, as
// encoding/json spells an untagged field) to the field's index, and
// counterKeys holds each listed field's key quoted, by index. Only
// float64 fields are listed, and at most 64 of them so one uint64 can
// track which keys an object already carried; any other key sends the
// request to encoding/json. TestCounterFieldTableCoversCounters fails
// if a field falls outside the table.
var counterField, counterKeys = func() (map[string]int, [][]byte) {
	t := reflect.TypeOf(arch.Counters{})
	m := make(map[string]int, t.NumField())
	keys := make([][]byte, t.NumField())
	for i := 0; i < t.NumField() && i < 64; i++ {
		if f := t.Field(i); f.IsExported() && f.Type.Kind() == reflect.Float64 && f.Tag == "" {
			m[f.Name] = i
			keys[i] = []byte(strconv.Quote(f.Name))
		}
	}
	return m, keys
}()

// scanner walks one request body. Every method reports false when the
// input leaves the canonical form; the caller then abandons the scan.
type scanner struct {
	b []byte
	i int
}

// scanRequest decodes body into req if it is in the canonical form and
// reports whether it was. On false, req holds partial results.
func scanRequest(body []byte, req *DecideRequest) bool {
	s := scanner{b: body}
	var seen uint8
	ok := s.object(func() bool {
		key, ok := s.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "chip":
			return once(&seen, 1) && s.chip(&req.Chip)
		case "observation":
			if !once(&seen, 2) {
				return false
			}
			req.Observation = new(Observation)
			return s.observation(req.Observation)
		case "batch":
			return once(&seen, 4) && s.batch(req)
		}
		return false
	})
	if !ok {
		return false
	}
	s.space()
	return s.i == len(s.b)
}

// once sets bit in *seen and reports whether it was clear.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// batch scans the batch array into req.Batch.
func (s *scanner) batch(req *DecideRequest) bool {
	if !s.consume('[') {
		return false
	}
	req.Batch = []DecideItem{}
	if s.consume(']') {
		return true
	}
	for {
		req.Batch = append(req.Batch, DecideItem{})
		if !s.item(&req.Batch[len(req.Batch)-1]) {
			return false
		}
		if s.consume(']') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// item scans one batch entry.
func (s *scanner) item(it *DecideItem) bool {
	var seen uint8
	return s.object(func() bool {
		key, ok := s.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "chip":
			return once(&seen, 1) && s.chip(&it.Chip)
		case "observation":
			return once(&seen, 2) && s.observation(&it.Observation)
		}
		return false
	})
}

// chip scans a chip ID string into *dst.
func (s *scanner) chip(dst *string) bool {
	chip, ok := s.str()
	*dst = string(chip)
	return ok
}

// observation scans one observation object.
func (s *scanner) observation(o *Observation) bool {
	var seen uint8
	return s.object(func() bool {
		key, ok := s.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "sensor_temp":
			if !once(&seen, 1) {
				return false
			}
			f, ok := s.number()
			o.SensorTemp = f
			return ok
		case "counters":
			return once(&seen, 2) && s.counters(&o.Counters)
		}
		return false
	})
}

// counters scans the counter object into c. json.Marshal writes the
// fields in declaration order, so each key is first compared with the
// one after the previous key's field; any other key goes through
// counterField. Each value is stored through c.Values(), whose index is
// the field index counterField holds, so no store goes through reflect.
func (s *scanner) counters(c *arch.Counters) bool {
	v := c.Values()
	var seen uint64
	next := 0
	return s.object(func() bool {
		i, ok := s.counterKey(next)
		if !ok || seen&(1<<i) != 0 || !s.consume(':') {
			return false
		}
		seen |= 1 << i
		f, ok := s.number()
		if ok {
			v[i] = f
		}
		next = i + 1
		return ok
	})
}

// counterKey scans one counter key and returns its field index,
// trying field next before the table.
func (s *scanner) counterKey(next int) (int, bool) {
	s.space()
	if next < len(counterKeys) && len(counterKeys[next]) > 0 && bytes.HasPrefix(s.b[s.i:], counterKeys[next]) {
		s.i += len(counterKeys[next])
		return next, true
	}
	key, ok := s.str()
	if !ok {
		return 0, false
	}
	i, ok := counterField[string(key)]
	return i, ok
}

// object scans one object; member scans each key, colon and value.
func (s *scanner) object(member func() bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		if !member() {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// key scans an object key and the colon after it.
func (s *scanner) key() ([]byte, bool) {
	key, ok := s.str()
	return key, ok && s.consume(':')
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then takes c if it is the next byte.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string with no escapes, control bytes or non-ASCII bytes
// (whose raw bytes are then its value) and returns its contents, which
// alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number scans a number matching the JSON grammar exactly,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// encoding/json does, with strconv.ParseFloat; a value out of float64
// range is declined. readNumber checks the grammar and gathers the
// significand and exponent in one pass, and decimalToFloat converts them
// with strconv's own exact fast paths. Whatever those cannot settle
// exactly (over 19 significant digits, a rounding the 128-bit product
// leaves open, a subnormal, infinite or out-of-table result) goes to
// strconv.ParseFloat, so each value and each decline is the one
// ParseFloat gives. The grammar check is the scanner's own because
// ParseFloat also accepts forms JSON does not ("+1", ".5", "0x1p3",
// "1_0", "inf").
func (s *scanner) number() (float64, bool) {
	s.space()
	man, exp10, neg, trunc, end, ok := readNumber(s.b, s.i)
	if !ok {
		return 0, false
	}
	start := s.i
	s.i = end
	if !trunc {
		if f, ok := decimalToFloat(man, exp10, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:end]), 64)
	return f, err == nil
}

// readNumber scans the JSON number at b[i:] and returns the offset just
// past it. The number's first 19 significant digits (10^19 fits in a
// uint64) are man, and it equals man×10^exp10 unless trunc reports a
// nonzero digit after them; exp10 follows strconv's readFloat, which
// stops growing an exponent of 10000 or more, so both leave the table
// together.
func readNumber(b []byte, i int) (man uint64, exp10 int, neg, trunc bool, end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i == len(b) {
		return
	}
	nd := 0 // significant digits in man
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp10++
				trunc = trunc || b[i] != '0'
			}
		}
	default:
		return
	}
	if i < len(b) && b[i] == '.' {
		i++
		first := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				exp10--
				if man != 0 {
					nd++
				}
			} else {
				trunc = trunc || b[i] != '0'
			}
		}
		if i == first {
			return
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		first, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return
		}
		exp10 += sign * e
	}
	return man, exp10, neg, trunc, i, true
}
