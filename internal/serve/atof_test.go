package serve

import (
	"math"
	"math/big"
	"regexp"
	"strconv"
	"testing"
)

// jsonNumber matches the JSON number grammar after leading whitespace.
// Its fraction and exponent groups take a '.' or an 'e' even with no
// digit after it, so a number cut short there is a group that does not
// end in a digit.
var jsonNumber = regexp.MustCompile(`^[ \t\n\r]*(-?(?:0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?)`)

// referenceNumber is the two-pass number path the scanner used before
// it converted in one pass: match the grammar, then hand the matched
// text to strconv.ParseFloat. It returns the value and the end offset,
// and declines what the grammar or ParseFloat rejects.
func referenceNumber(b []byte) (f float64, end int, ok bool) {
	m := jsonNumber.FindSubmatchIndex(b)
	if m == nil {
		return 0, 0, false
	}
	if frac := m[4]; frac >= 0 && m[5]-frac == 1 {
		return 0, 0, false
	}
	if exp := m[6]; exp >= 0 && !('0' <= b[m[7]-1] && b[m[7]-1] <= '9') {
		return 0, 0, false
	}
	f, err := strconv.ParseFloat(string(b[m[2]:m[3]]), 64)
	return f, m[3], err == nil
}

// scanNumber runs the scanner's number path over b.
func scanNumber(b []byte) (f float64, end int, ok bool) {
	s := scanner{b: b}
	f, ok = s.number()
	return f, s.i, ok
}

// numberEdges are inputs at the edges of both exact conversions and of
// float64: the value each must decode to, or ok false where it must be
// declined. A float64 literal is the correctly rounded value of its
// text, so most wants are the input itself.
var numberEdges = []struct {
	in   string
	want float64
	ok   bool
}{
	{"0", 0, true},
	{"-0", math.Copysign(0, -1), true},
	{"-0.0", math.Copysign(0, -1), true},
	{"0e999999", 0, true},
	{"-0.000e-5", math.Copysign(0, -1), true},
	// The plain floating-point path ends at 10^22 and at 2^52.
	{"1e22", 1e22, true},
	{"1e23", 1e23, true},
	{"4503599627370496", 4503599627370496, true},
	{"9007199254740992", 9007199254740992, true},
	{"9007199254740993", 9007199254740992, true},
	{"123456e30", 123456e30, true},
	// 19 significant digits fit the mantissa; a 20th goes to strconv
	// when it is nonzero and only moves the exponent when it is zero.
	{"1234567890123456789", 1234567890123456789, true},
	{"9999999999999999999", 9999999999999999999, true},
	{"12345678901234567890", 12345678901234567890, true},
	{"12345678901234567891", 12345678901234567891, true},
	{"18446744073709551615", 18446744073709551615, true},
	{"1234567890123456789000000", 1234567890123456789000000, true},
	{"1234567890123456789012345", 1234567890123456789012345, true},
	{"0.1234567890123456789000000", 0.1234567890123456789000000, true},
	{"0.0001234567890123456789012345", 0.0001234567890123456789012345, true},
	{"1.234567890123456789e-5", 1.234567890123456789e-5, true},
	// Decimal fractions, and halfway cases that round to even.
	{"0.1", 0.1, true},
	{"0.30000000000000004", 0.30000000000000004, true},
	{"1.00000000000000011102230246251565404236316680908203125", 1, true},
	{"1.00000000000000011102230246251565404236316680908203126", 1.0000000000000002, true},
	{"9007199254740995", 9007199254740996, true},
	// Subnormal, normal and overflowing limits.
	{"4.9e-324", 5e-324, true},
	{"2.4703282292062327e-324", 0, true},
	{"2.2250738585072014e-308", 2.2250738585072014e-308, true},
	{"1.7976931348623157e308", math.MaxFloat64, true},
	{"-1.7976931348623157e308", -math.MaxFloat64, true},
	{"1.7976931348623159e308", 0, false},
	{"1e309", 0, false},
	{"-1e309", 0, false},
	// strconv rounds an underflow to zero without an error, and
	// encoding/json accepts the zero, so the scanner does too.
	{"1e-400", 0, true},
	// Exponent forms.
	{"1e007", 1e7, true},
	{"1E+2", 100, true},
	{"25e-1", 2.5, true},
	// Grammar the scanner must decline.
	{"01", 0, true}, // the number is "0"; the caller then rejects "1"
	{"+1", 0, false},
	{".5", 0, false},
	{"1.", 0, false},
	{"1e", 0, false},
	{"1e+", 0, false},
	{"-", 0, false},
	{"0x10", 0, true}, // "0" again; the caller rejects "x10"
	{"inf", 0, false},
	{"", 0, false},
}

// TestNumberEdgeCases pins the number path on the edge inputs: the value
// (by bits) or the decline, and agreement with the two-pass reference.
func TestNumberEdgeCases(t *testing.T) {
	for _, c := range numberEdges {
		got, end, ok := scanNumber([]byte(c.in))
		if ok != c.ok || ok && math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("number(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
		want, wantEnd, wantOK := referenceNumber([]byte(c.in))
		if ok != wantOK || ok && (math.Float64bits(got) != math.Float64bits(want) || end != wantEnd) {
			t.Errorf("number(%q) = %v, %v, end %d; strconv: %v, %v, end %d", c.in, got, ok, end, want, wantOK, wantEnd)
		}
	}
}

// TestPow10TableRows spot-checks the generated powers-of-ten table
// against strconv's literal rows: the exact 10^0 and 10^43, 10^-1
// rounded down, and both ends.
func TestPow10TableRows(t *testing.T) {
	for _, c := range []struct {
		exp10 int
		row   [2]uint64
	}{
		{0, [2]uint64{0, 0x8000000000000000}},
		{43, [2]uint64{0x6D9CCD05D0000000, 0xE596B7B0C643C719}},
		{-1, [2]uint64{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}},
		{pow10MinExp10, [2]uint64{0x1732C869CD60E453, 0xFA8FD5A0081C0288}},
		{pow10MaxExp10, [2]uint64{0x4B7195F2D2D1A9FB, 0xD13EB46469447567}},
	} {
		if got := pow10Table[c.exp10-pow10MinExp10]; got != c.row {
			t.Errorf("10^%d row = {%#x, %#x}, want {%#x, %#x}", c.exp10, got[0], got[1], c.row[0], c.row[1])
		}
	}
}

// TestCanonicalNumbersConvertExactly pins that decimalToFloat, not a
// re-read by strconv.ParseFloat, converts every number json.Marshal
// writes into the canonical bodies, except a decimal lying exactly
// midway between two float64s, which Eisel-Lemire leaves to strconv by
// design. Without it a conversion that always fell back would pass
// every correctness test.
func TestCanonicalNumbersConvertExactly(t *testing.T) {
	single, batch := canonicalBodies(t)
	values := regexp.MustCompile(`:(-?[0-9][0-9.eE+-]*)`)
	for _, body := range [][]byte{single, batch} {
		for _, m := range values.FindAllSubmatch(body, -1) {
			n := m[1]
			man, exp10, neg, trunc, end, ok := readNumber(n, 0)
			if !ok || end != len(n) || trunc {
				t.Fatalf("readNumber(%q) = end %d, trunc %v, ok %v", n, end, trunc, ok)
			}
			if _, ok := decimalToFloat(man, exp10, neg); !ok && !midway(t, n) {
				t.Errorf("%s falls back to strconv.ParseFloat", n)
			}
		}
	}
}

// midway reports whether the decimal n lies exactly halfway between two
// adjacent float64s.
func midway(t *testing.T, n []byte) bool {
	r, ok := new(big.Rat).SetString(string(n))
	if !ok {
		t.Fatalf("%s is not a decimal", n)
	}
	f, _ := r.Float64()
	toward := math.Inf(1)
	if r.Cmp(new(big.Rat).SetFloat64(f)) < 0 {
		toward = math.Inf(-1)
	}
	mid := new(big.Rat).Add(new(big.Rat).SetFloat64(f), new(big.Rat).SetFloat64(math.Nextafter(f, toward)))
	return mid.Quo(mid, big.NewRat(2, 1)).Cmp(r) == 0
}

// FuzzScanNumberMatchesParseFloat is a differential fuzz of the one-pass
// number path against the two-pass reference: for any bytes, both accept
// or both decline, and an accepted number has the same bits and ends at
// the same offset.
func FuzzScanNumberMatchesParseFloat(f *testing.F) {
	for _, c := range numberEdges {
		f.Add([]byte(c.in))
	}
	for _, s := range []string{" 55,", "71.02833711593433}", "-1.5e-7]", "2.5e-07", "1e3.5", "1.5.3", "\t-0e+0 "} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, end, ok := scanNumber(b)
		want, wantEnd, wantOK := referenceNumber(b)
		switch {
		case ok != wantOK:
			t.Fatalf("number(%q): ok %v, strconv %v", b, ok, wantOK)
		case ok && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("number(%q) = %v (%#x), strconv %v (%#x)", b, got, math.Float64bits(got), want, math.Float64bits(want))
		case ok && end != wantEnd:
			t.Fatalf("number(%q) ends at %d, strconv's text at %d", b, end, wantEnd)
		}
	})
}
