// Package deadexport is the deadexport fixture: an internal/ package
// whose exports are reached (or not) from the sibling package
// lintmod/deadexportuse and from this package's own test file. Every
// `// want` comment is a finding the analyzer must report; every other
// export must stay silent.
package deadexport

// Dead is referenced by nothing.
func Dead() {} // want `exported func Dead has no non-test reference`

// TestOnly is called from deadexport_test.go alone, and test files do
// not count as callers.
func TestOnly() int { return 1 } // want `exported func TestOnly has no non-test reference`

// Used is called by the sibling package.
func Used() int { return helper() }

func helper() int { return 2 }

// Limit is read by the sibling package.
const Limit = 3

// Unread is never read.
var Unread = 4 // want `exported var Unread has no non-test reference`

// Shape is called through by the sibling package.
type Shape interface {
	Area() float64
}

// Square reaches Area only through Shape.
type Square struct{ Side float64 }

// NewSquare is the sibling package's constructor.
func NewSquare(side float64) Square { return Square{Side: side} }

// Area is never called on a Square, only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is reached neither directly nor through an interface.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `exported method Square.Perimeter has no non-test reference`

// NotFound is matched with errors.Is, which calls its Is method, and is
// printed, which calls String: the standard library calls both.
type NotFound struct{ Key string }

func (e NotFound) Error() string { return "not found: " + e.Key }

// Is matches any NotFound.
func (e NotFound) Is(target error) bool {
	_, ok := target.(NotFound)
	return ok
}

// String renders the key.
func (e NotFound) String() string { return e.Key }

// Kept has no caller but carries a reasoned suppression.
//
//iclint:ignore deadexport fixture: the suppression demo
func Kept() {}

// orphan is unexported, so deadexport leaves it to other tools.
func orphan() {}
