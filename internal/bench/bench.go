// Package bench regenerates every table and figure of the paper's
// evaluation (§6): Fig. 11–15, Table 1, the DQN comparison and the
// ablations, plus the chaos and fleetserve availability experiments. Each
// experiment has a driver (fig11.go, fig12.go, table1.go, ...) returning
// the rows or series the paper reports; bench_drivers_test.go asserts
// their shapes and the root bench_test.go reports each figure's headline
// as a go-test benchmark metric. Absolute numbers differ (the substrate is
// a simulator on a CPU, not a GPU cluster); the comparisons preserve the
// paper's shapes: who wins, by what rough factor, and where the crossovers
// and failure boundaries fall. System performance layer by layer is
// perfbench's job, not this package's.
package bench

import (
	"fmt"
	"io"
	"time"
)

// timeIt returns the duration of fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// fprintf writes to w if non-nil (drivers can run silently).
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
