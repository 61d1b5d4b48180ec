package skysim

import "math"

// reduceThreshold is math's bound (1<<29) above which cos reduces its
// argument with Payne-Hanek instead of the three-part Pi/4 split.
const reduceThreshold = 1 << 29

// cos is math.Cos bit for bit. For finite |x| < reduceThreshold it runs
// the library's own steps — the octant j of |x|, the extended-precision
// remainder z, the sine or cosine polynomial in z*z and the sign — with
// the octant tests turned into selects: both polynomials are evaluated
// and the octant picks one and its sign by their bits. The profile pass
// takes the cosine of a row of angles that cross octants at random, where
// the library's branches mispredict. Every other operand (NaN, ±Inf, a
// reduced argument) goes to math.Cos itself.
func cos(x float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	x = math.Abs(x)
	if !(x < reduceThreshold) {
		return math.Cos(x)
	}
	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4), as integer for tests on the phase angle
	y := float64(j)                // integer part of x/(Pi/4), as float

	// map zeros to origin: an odd octant moves up one, adding 1 to j and
	// to y (adding 0 to an integral y >= 0 leaves its bits)
	odd := j & 1
	j += odd
	y += float64(odd)
	j &= 7                                // octant modulo 2Pi radians (360 degrees)
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C // Extended precision modular arithmetic

	// j is 0, 2, 4 or 6: octants 2 and 6 take the sine polynomial, and
	// the sign flips for j > 3 and again for j > 1 after subtracting 4,
	// that is for octants 2 and 4.
	zz := z * z
	s := z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	c := 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	useSin := j >> 1 & 1
	neg := (j>>2 ^ useSin) & 1
	pick := -useSin // all ones picks the sine
	b := math.Float64bits(s)&pick | math.Float64bits(c)&^pick
	return math.Float64frombits(b ^ neg<<63)
}

// The coefficients of math's sine and cosine polynomials (sin.go).
var _sin = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var _cos = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}
