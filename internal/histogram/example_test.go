package histogram_test

import (
	"fmt"

	"repro/internal/histogram"
)

// A 10-minute C&C beacon with a 4-hour outage in the middle: the outlier
// lands in its own bin and the dominant hub still flags the channel.
func ExampleAnalyze() {
	intervals := []float64{
		600, 601, 599, 600, 602, 598, 600, 601, 599, 600,
		14400, // the laptop lid closed for four hours
		600, 602, 598, 600, 601, 599, 600, 600, 601, 600,
	}
	v := histogram.Analyze(intervals, histogram.DefaultConfig())
	fmt.Printf("automated=%v period=%.0fs\n", v.Automated, v.Period)
	// Output: automated=true period=600s
}
