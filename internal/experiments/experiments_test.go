package experiments

import (
	"strings"
	"testing"
)

// quickCfg runs experiments on the smallest scale and batch count.
func quickCfg() Config {
	c := DefaultConfig()
	c.Quick = true
	c.Batches = 2
	return c
}

// TestAllExperimentsRun smoke-tests every registered experiment at quick
// scale: each must produce non-empty output without error.
func TestAllExperimentsRun(t *testing.T) {
	cfg := quickCfg()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if strings.TrimSpace(res.Text) == "" {
				t.Errorf("%s produced empty output", id)
			}
			if res.ID != id {
				t.Errorf("result id %q != %q", res.ID, id)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig999", quickCfg()); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestFig6aReportsBloat(t *testing.T) {
	// The DL-approach footprint must exceed the input table (>1x): fig6a
	// errors itself on any dataset where it does not.
	res, err := Run("fig6a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "average memory bloat") {
		t.Error("fig6a missing average line")
	}
}

func TestFig8DegreeRatioAboveOne(t *testing.T) {
	res, err := Run("fig8", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Power-law datasets must show original degree >> preprocessed.
	if !strings.Contains(res.Text, "mean degree ratio") {
		t.Error("fig8 missing ratio summary")
	}
}

func TestIDsStable(t *testing.T) {
	a := IDs()
	b := IDs()
	for i := range a {
		if a[i] != b[i] {
			t.Error("IDs() not stable")
		}
	}
	if len(a) < 10 {
		t.Errorf("only %d experiments registered", len(a))
	}
}
