package report_test

import (
	"fmt"
	"strings"

	"github.com/faasmem/faasmem/internal/report"
)

// ExamplePlot draws an ASCII chart of a memory timeline.
func ExamplePlot() {
	pts := []report.Point{{0, 1200}, {600, 700}, {1200, 500}, {1800, 480}}
	out := report.Plot(pts, 32, 5)
	fmt.Println(strings.Count(out, "*") >= 4)
	// Output:
	// true
}
