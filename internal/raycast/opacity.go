package raycast

import (
	"math"
	"runtime"
	"sync/atomic"
)

// Opacity correction without math.Pow in the march loop (DESIGN.md §5.15
// "Opacity correction by table"). For a step ratio e the march needs
// opacityCorrect(a, e) = float32(1 − Pow(1−a, e)) per sample. An
// opacityTable approximates Pow(1−a, e) by cubic Hermite pieces, and a
// rounding test decides whether the approximation already determines the
// float32 result: with p the table's value and y = 1 − p, if y − M and
// y + M round to the same float32, so does the reference, because
// |p − Pow(1−a, e)| is provably below M by more than the rounding of 1 − p
// and float32 rounding is monotone. Otherwise the sample takes
// opacityCorrect itself. The result is, bit for bit, opacityCorrect's.
const (
	// opacityScale is 1/h: the pieces are h = 2⁻¹⁰ wide, so a piece's index
	// and the offset into it are exact: a·2¹⁰ is exact, and so is its
	// fractional part.
	opacityScale = 1 << 10
	// opacityMax is aMax: alphas at or above it take opacityCorrect, where
	// (1−a)^(e−4) makes the fourth derivative, and so the interpolation
	// error, grow without bound.
	opacityMax    = 7.0 / 8
	opacityPieces = opacityMax * opacityScale // 896 pieces, 28 KB
	// opacityMin: below it 1 − Pow(1−a, e) is too small for an absolute
	// window of M to decide its float32, and every sample would fall back.
	opacityMin = 1.0 / (1 << 20)
	// opacityMargin is M, the half-width of the rounding test's window. A
	// table is built only when its error bound is at most M/8.
	opacityMargin = 1.0 / (1 << 40)
	// unitRoundoff is u, float64's unit roundoff.
	unitRoundoff = 1.0 / (1 << 53)
)

// opacityTable holds the pieces for one step ratio e. Piece k covers
// [k·h, (k+1)·h) and is c[k][0] + t·(c[k][1] + t·(c[k][2] + t·c[k][3]))
// with t the offset into the piece in units of h.
type opacityTable struct {
	e float64
	c [opacityPieces][4]float64
}

// correct returns opacityCorrect(a, t.e), bit for bit, for every float32 a.
func (t *opacityTable) correct(a float32) float32 {
	if !(a >= opacityMin && a < opacityMax) { // NaN, tiny and large alphas
		return opacityCorrect(a, t.e)
	}
	y := 1 - t.pow(a)
	if lo := float32(y - opacityMargin); lo == float32(y+opacityMargin) {
		return lo
	}
	return opacityCorrect(a, t.e)
}

// pow is the table's value of Pow(1−a, e) for a in [0, opacityMax).
func (t *opacityTable) pow(a float32) float64 {
	x := float64(a) * opacityScale
	k := int(x)
	s := x - float64(k)
	c := &t.c[k]
	return c[0] + s*(c[1]+s*(c[2]+s*c[3]))
}

// opacityBound returns an upper bound on |p(a) − math.Pow(1−a, e)| for every
// a in [opacityMin, opacityMax), where p is the value the table for e
// evaluates, or +Inf when no bound is derived (e ≤ 0, NaN, e == 1). A
// large or infinite e gets a bound far above M, or +Inf.
// Every term has slack; the factor 8 between the bound a table must meet
// and M leaves room for the float64 rounding of this arithmetic too. With
// f(a) = (1−a)^e, h = 2⁻¹⁰ and u = 2⁻⁵³:
//
//   - interpolation: a cubic Hermite piece misses f by at most
//     h⁴/384 · max|f⁽⁴⁾|, f⁽⁴⁾ = e(e−1)(e−2)(e−3)(1−a)^(e−4), largest at
//     a = 0 for e ≥ 4 and at a = aMax below;
//   - knots: a value knot is off by Go's Pow error, which the Hermite
//     weights h₀₀ + h₀₁ = 1 pass on at most once; a slope knot m = −e·h·
//     Pow(1−a, e−1) by Pow's relative error, the rounding of e−1 (worth at
//     most |log(1−a)|·u ≤ 2.1u) and that of the product, which |h₁₀|,
//     |h₁₁| ≤ 4/27 scale;
//   - coefficients: c2 = 3d − 2m0 − m1 and c3 = −2d + m0 + m1, d = y1 − y0,
//     are four roundings each, γ₄ times the sum of their terms' magnitudes,
//     |d|, |m| ≤ mMax;
//   - Horner: with t exact and in [0,1), three steps err by at most
//     γ₆·Σ|cᵢ| ≤ γ₆·(1 + 11·mMax);
//   - the reference: Pow(1−a, e) itself is off from f by Go's Pow error.
func opacityBound(e float64) float64 {
	if !(e > 0) || e == 1 {
		return math.Inf(1)
	}
	const h = 1.0 / opacityScale
	d4 := math.Abs(e*(e-1)*(e-2)*(e-3)) * math.Max(1, math.Pow(1-opacityMax, e-4))
	interp := h * h * h * h / 384 * d4
	mMax := e * h * math.Max(1, math.Pow(1-opacityMax, e-1))
	knots := powRelErr(e) + 8.0/27*(powRelErr(e-1)+4*unitRoundoff)*mMax
	coefs := gamma(4) * (6 + 4) * mMax
	horner := gamma(6) * (1 + 11*mMax)
	return interp + knots + coefs + horner + powRelErr(e)
}

// powRelErr bounds the relative error of Go's portable math.Pow(x, y) for
// x in [1/8, 1]. Pow computes Exp(yf·Log(x)) for the fractional part
// (|yf| ≤ 1/2, |log x| ≤ 2.08: under 6u from Log's and Exp's < 1 ulp and
// one product) and multiplies in x^yi by repeated squaring, whose
// relative error after j squarings is (2^j − 1)u, so (7 + |y|)u in all.
// The allowance is four times that, room also for amd64's assembly Exp and
// Log, which state no bound of their own. A result below 1 has absolute
// error at most this.
func powRelErr(y float64) float64 {
	return 4 * (7 + math.Abs(y)) * unitRoundoff
}

// gamma is the classic γₙ = n·u / (1 − n·u) of rounding-error analysis.
func gamma(n float64) float64 {
	return n * unitRoundoff / (1 - n*unitRoundoff)
}

// newOpacityTable builds the table for e, or returns nil when opacityBound
// does not certify one — so for e == 1, where Pow(x, 1) is already x, for
// large e and for non-finite e — and on s390x, whose assembly math.Pow is
// not the portable code powRelErr describes.
func newOpacityTable(e float64) *opacityTable {
	if runtime.GOARCH == "s390x" || !(opacityBound(e) <= opacityMargin/8) {
		return nil
	}
	const h = 1.0 / opacityScale
	t := &opacityTable{e: e}
	knot := func(k int) (y, m float64) {
		base := 1 - float64(k)*h // exact
		return math.Pow(base, e), -e * math.Pow(base, e-1) * h
	}
	y0, m0 := knot(0)
	for k := range t.c {
		y1, m1 := knot(k + 1)
		d := y1 - y0
		t.c[k] = [4]float64{y0, m0, 3*d - 2*m0 - m1, -2*d + m0 + m1}
		y0, m0 = y1, m1
	}
	return t
}

// The tables in use: a few, process-wide, keyed by e. A hit is a handful
// of atomic loads and allocates nothing; a miss builds a table and
// overwrites the slots round-robin, so any number of distinct step ratios
// keeps at most len(opacityTables) alive. Two renders that miss together
// may both build; either table is correct.
var (
	opacityTables [8]atomic.Pointer[opacityTable]
	opacityNext   atomic.Uint32
)

// opacityTableFor returns the table for e, or nil when e gets none.
func opacityTableFor(e float64) *opacityTable {
	for i := range opacityTables {
		if t := opacityTables[i].Load(); t != nil && t.e == e {
			return t
		}
	}
	t := newOpacityTable(e)
	if t != nil {
		opacityTables[opacityNext.Add(1)%uint32(len(opacityTables))].Store(t)
	}
	return t
}
