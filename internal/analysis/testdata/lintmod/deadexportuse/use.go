// Package deadexportuse is the sibling package whose references keep
// the deadexport fixture's live exports live.
package deadexportuse

import (
	"errors"
	"fmt"

	"lintmod/internal/deadexport"
)

func use(err error) {
	var shapes []deadexport.Shape
	for i := 0; i < deadexport.Limit; i++ {
		shapes = append(shapes, deadexport.NewSquare(float64(deadexport.Used())))
	}
	var area float64
	for _, s := range shapes {
		area += s.Area()
	}
	if errors.Is(err, deadexport.NotFound{}) {
		fmt.Println(area)
	}
}
