package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"

	"dpsim/internal/sweep"
)

// checkCells verifies each grid cell's aggregate, one check per cell:
// every generated job finished, stayed unfinished or was rejected;
// 0 ≤ mean wait ≤ mean response; utilization lies in [0, 1].
func checkCells(cells []sweep.CellStats, jobsPerRun int) checks {
	var ck checks
	for _, c := range cells {
		ck.attempted++
		if err := cellInvariant(c, jobsPerRun); err != nil {
			ck.failed++
			fmt.Fprintf(os.Stderr, "perfbench: cell %s/%g/%s/%s/%s: %v\n",
				c.Arrival, c.Load, c.Scheduler, c.Admission, c.Routing, err)
		}
	}
	return ck
}

func cellInvariant(c sweep.CellStats, jobsPerRun int) error {
	rejected := math.Round(c.MeanRejected * float64(c.Replications))
	if got, want := c.Jobs+c.Unfinished+int(rejected), jobsPerRun*c.Replications; got != want {
		return fmt.Errorf("finished %d + unfinished %d + rejected %g = %d, generated %d",
			c.Jobs, c.Unfinished, rejected, got, want)
	}
	if !(c.MeanWait >= 0 && c.MeanWait <= c.MeanResponse) {
		return fmt.Errorf("mean wait %g outside [0, mean response %g]", c.MeanWait, c.MeanResponse)
	}
	if !(c.MeanUtilization >= 0 && c.MeanUtilization <= 1) {
		return fmt.Errorf("utilization %g outside [0, 1]", c.MeanUtilization)
	}
	return nil
}

// checkFigures verifies the paper suite, one check per figure: its table
// has rows, and every measured and predicted time is finite and
// positive.
func checkFigures(figures []figure) checks {
	var ck checks
	for i, f := range figures {
		ck.attempted++
		if err := figureInvariant(f); err != nil {
			ck.failed++
			fmt.Fprintf(os.Stderr, "perfbench: figure %s: %v\n", paperFigures[i].name, err)
		}
	}
	return ck
}

func figureInvariant(f figure) error {
	if f.rows == 0 || len(f.samples) == 0 {
		return fmt.Errorf("%d table rows, %d error samples", f.rows, len(f.samples))
	}
	for _, s := range f.samples {
		if !(s.Measured > 0 && s.Predicted > 0 && !math.IsInf(s.Measured, 0) && !math.IsInf(s.Predicted, 0)) {
			return fmt.Errorf("sample %s: measured %g, predicted %g", s.Label, s.Measured, s.Predicted)
		}
	}
	return nil
}

// checkFingerprint compares the export's SHA-256 with the committed one.
// An empty want (a seed or size without a committed fingerprint) checks
// nothing.
func checkFingerprint(export []byte, want string) checks {
	if want == "" {
		return checks{}
	}
	got := fingerprint(export)
	if got != want {
		fmt.Fprintf(os.Stderr, "perfbench: export fingerprint %s, want %s\n", got, want)
		return checks{attempted: 1, failed: 1}
	}
	return checks{attempted: 1}
}

func fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
