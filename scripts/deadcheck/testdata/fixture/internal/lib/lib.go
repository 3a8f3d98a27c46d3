// Package lib holds one exported name for each rule deadcheck applies.
package lib

import "fmt"

// Used is called from cmd/app: live.
func Used() int { return 1 }

// Dead is called only by itself and by a test: the one finding.
func Dead(n int) int {
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// BenchOnly is called only from the nested bench module: live.
func BenchOnly() int { return 2 }

// Oracle is called only by a test: dead unless allow-listed.
func Oracle() int { return 3 }

// Shape is the interface cmd/app calls Area through.
type Shape interface{ Area() float64 }

// Square reaches cmd/app only as a Shape.
type Square struct{ Side float64 }

// Area is live through Shape.Area.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is live through fmt.Stringer, which only the standard library calls.
func (s Square) String() string { return fmt.Sprint("square ", s.Side) }
