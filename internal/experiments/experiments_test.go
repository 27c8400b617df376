package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the experiment transcripts under testdata")

// quickCfg runs experiments on the smallest scale and batch count.
func quickCfg() Config {
	c := DefaultConfig()
	c.Quick = true
	c.Batches = 2
	return c
}

// TestAllExperimentsRun runs every registered experiment at quick scale: each
// must produce non-empty output without error. A modeled one must print its
// committed transcript byte for byte; a host-clock one, whose numbers move
// from run to run, must print its committed layout (regenerate either with
// -update, for a change that names the figure it moves).
func TestAllExperimentsRun(t *testing.T) {
	cfg := quickCfg()
	for _, e := range registry {
		id := e.id
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
			path, got := filepath.Join("testdata", id+".txt"), res.Text
			if e.clock == host {
				path, got = filepath.Join("testdata", id+".layout"), layout(res.Text)
			}
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s no longer prints its transcript (-update rewrites %s):\n%s", id, path, unifiedDiff(string(want), got))
			}
		})
	}
}

// numberToken is one number as the experiments print it, with its unit or
// suffix; runsOfSpaces is the padding that moves with a number's width.
var (
	numberToken  = regexp.MustCompile(`[-+]?\d+(\.\d+)?([eE][-+]?\d+)?(ns|µs|us|ms|s|%|x)?`)
	runsOfSpaces = regexp.MustCompile(` +`)
)

// layout is a host-clock transcript with every number masked to "#" and every
// run of spaces collapsed to one: its rows, columns, labels and prose, which
// repeat at any GOMAXPROCS although the numbers do not.
func layout(text string) string {
	return runsOfSpaces.ReplaceAllString(numberToken.ReplaceAllString(text, "#"), " ")
}

// unifiedDiff renders the lines that differ between want and got with one
// line of context, in unified-diff notation. Transcripts are a few dozen
// lines, so the quadratic longest-common-subsequence table is fine.
func unifiedDiff(want, got string) string {
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	type op struct {
		kind byte // ' ', '-', '+'
		text string
		line int // 1-based line in want (for '+': the line it precedes)
	}
	var ops []op
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			ops = append(ops, op{' ', a[i], i + 1})
			i, j = i+1, j+1
		case j == len(b) || (i < len(a) && lcs[i+1][j] >= lcs[i][j+1]):
			ops = append(ops, op{'-', a[i], i + 1})
			i++
		default:
			ops = append(ops, op{'+', b[j], i + 1})
			j++
		}
	}
	var sb strings.Builder
	sb.WriteString("--- transcript\n+++ this run\n")
	last := -2 // index of the last op printed
	for k, o := range ops {
		near := (k > 0 && ops[k-1].kind != ' ') || (k+1 < len(ops) && ops[k+1].kind != ' ')
		if o.kind == ' ' && !near {
			continue
		}
		if last != k-1 {
			fmt.Fprintf(&sb, "@@ line %d @@\n", o.line)
		}
		fmt.Fprintf(&sb, "%c%s\n", o.kind, o.text)
		last = k
	}
	return sb.String()
}

func TestUnifiedDiff(t *testing.T) {
	got := unifiedDiff("a\nb\nc\nd\ne", "a\nb\nC\nd\ne")
	want := "--- transcript\n+++ this run\n@@ line 2 @@\n b\n-c\n+C\n d\n"
	if got != want {
		t.Errorf("unifiedDiff = %q, want %q", got, want)
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
	ids := IDs()
	if !slices.Equal(ids, IDs()) {
		t.Error("IDs() not stable")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs() not sorted without duplicates: %q before %q", ids[i-1], ids[i])
		}
	}
	if len(ids) < 10 {
		t.Errorf("only %d experiments registered", len(ids))
	}
	if got := Title("fig999"); got != "" {
		t.Errorf("Title of an unknown id = %q, want empty", got)
	}
}
