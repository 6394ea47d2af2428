// The conversions in this file are ported from Go's strconv package
// (atof.go and eisel_lemire.go as of go1.24; "Copyright 2009" and
// "Copyright 2020 The Go Authors. All rights reserved." in their
// headers), which is distributed under this license:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// decimalToFloat converts man×10^exp10 to the nearest float64 and
// reports whether it could do so exactly: first in plain floating point
// when both factors are exact float64s, then by Eisel-Lemire. On false
// the caller must fall back to strconv.ParseFloat. Either answer equals
// strconv.ParseFloat's for a decimal whose significant digits all fit
// in man, because these are strconv's own fast paths.
func decimalToFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if f, ok := atof64exact(man, exp10, neg); ok {
		return f, true
	}
	return eiselLemire64(man, exp10, neg)
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atof64exact computes man×10^exp entirely in floating point when a
// mantissa below 2^52 and an exact power of ten make the one rounding
// step the correctly rounded result.
func atof64exact(man uint64, exp int, neg bool) (f float64, ok bool) {
	if man>>52 != 0 {
		return
	}
	f = float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	// Exact integers are <= 10^15; exact powers of ten are <= 10^22.
	case exp > 0 && exp <= 15+22:
		// A big exponent with few digits moves some zeros into the
		// integer part first.
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return
}

// eiselLemire64 is the Eisel-Lemire algorithm
// (https://nigeltao.github.io/blog/2020/eisel-lemire.html): it multiplies
// the normalised mantissa by a 128-bit approximation of 10^exp10 and
// reports false where that approximation cannot decide the rounding,
// and for results that are subnormal, infinite or out of the table.
// The comments name sections of the blog post.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &pow10Table[exp10-pow10MinExp10]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// pow10MinExp10 and pow10MaxExp10 bound the powers of ten pow10Table
// holds, both inclusive.
const (
	pow10MinExp10 = -348
	pow10MaxExp10 = +347
)

// pow10Table holds, for each exp10 from pow10MinExp10 up, the 128-bit
// mantissa of 10^exp10 rounded down, top bit set, as {low, high} words:
// 1e43 = 0xE596B7B0_C643C719_6D9CCD05_D0000000 × 2^15, so its row is
// {0x6D9CCD05D0000000, 0xE596B7B0C643C719}. It is strconv's
// detailedPowersOfTen, computed here rather than written out.
var pow10Table = func() (t [pow10MaxExp10 - pow10MinExp10 + 1][2]uint64) {
	put := func(exp10 int, m *big.Int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[exp10-pow10MinExp10] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	ten := big.NewInt(10)
	p, m := big.NewInt(1), new(big.Int)
	for e := 0; e <= pow10MaxExp10; e++ {
		// 10^e is an integer: keep its top 128 bits.
		if n := p.BitLen(); n > 128 {
			m.Rsh(p, uint(n-128))
		} else {
			m.Lsh(p, uint(128-n))
		}
		put(e, m)
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for e := -1; e >= pow10MinExp10; e-- {
		// 10^e = 1/p with p = 10^-e, not a power of two, so
		// 2^k/p has exactly k-p.BitLen()+1 bits: pick k for 128.
		m.Lsh(m.SetInt64(1), uint(127+p.BitLen()))
		put(e, m.Quo(m, p))
		p.Mul(p, ten)
	}
	return t
}()
