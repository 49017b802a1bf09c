// Package reachbad exercises the reach analyzer. It is loaded as a closed
// universe, so only the uses in this file count; reach_test.go's do not.
package reachbad

import "fmt"

func Dead() {} // want `reachfix.Dead is exported but no non-test code references it`

// OnlyTested is called from reach_test.go alone.
func OnlyTested() int { return 1 } // want `reachfix.OnlyTested is exported but no non-test code`

// Used is called below.
func Used() int { return 2 }

//apslint:allow reach fixture seam kept on purpose
func Allowed() {}

// Monitor is a module interface: methods that satisfy it are reached.
type Monitor interface{ Classify(x float64) bool }

type rule struct{}

func (rule) Classify(x float64) bool { return x > 0 }

func (rule) Extra() {} // want `\(repro/internal/reachfix.rule\).Extra is exported`

// named satisfies fmt.Stringer and the predeclared error.
type named struct{}

func (named) String() string { return "named" }

func (*named) Error() string { return "named" }

// Box's Get is reached only through its Box[int] instantiation.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func (b Box[T]) Peek() T { return b.v } // want `Box\[T\]\).Peek is exported`

func helper() string {
	return fmt.Sprint(Used(), Box[int]{}.Get())
}

var _ = helper
