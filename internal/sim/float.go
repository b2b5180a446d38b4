package sim

import "math"

// FloatEps is the default tolerance for ApproxEq: generous enough to
// absorb reassociation error in cycle and budget sums (which stay well
// below 2^53), tight enough that any real policy delta registers.
const FloatEps = 1e-9

// ApproxEq reports whether a and b are equal within FloatEps, relative
// to their magnitude. It is the comparison the floateq analyzer directs
// cycle/budget code to: exact ==/!= between computed floats diverges
// when a refactor reorders a sum, while an epsilon compare does not.
//
//vulcan:keep the floateq analyzer's diagnostic names it as the fix
func ApproxEq(a, b float64) bool {
	return ApproxEqEps(a, b, FloatEps)
}

// ApproxEqEps reports whether a and b are equal within eps, scaled by
// the larger magnitude (absolute compare near zero).
func ApproxEqEps(a, b, eps float64) bool {
	if a == b { //vulcanvet:ok floateq — the one place exact compare is the point
		// Covers exact equality including infinities of the same sign.
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Unequal infinities (or infinite vs finite) are never close.
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale <= 1 {
		return diff <= eps
	}
	return diff <= eps*scale
}
