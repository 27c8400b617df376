package experiments

import (
	"fmt"
	"strings"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/metrics"
)

// perDataset is the form most of the paper's figures share: over every
// dataset, one row of measured numbers, then the column means against the
// paper's.
type perDataset struct {
	header string // the column titles, "dataset" first
	row    string // format of one row's values, after the dataset name
	// measure returns one dataset's values. The row prints the first
	// printed of them (0: all); the rest feed only the summary.
	measure func(Config, *datasets.Dataset) ([]float64, error)
	printed int
	// summary is printed after the rows, formatted with the mean of every
	// measured value followed by paper.
	summary string
	paper   []float64
	footer  string // prose printed last
}

func (p perDataset) run(cfg Config) (string, error) {
	var sb strings.Builder
	sb.WriteString(p.header)
	var cols [][]float64
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(name)
		if err != nil {
			return "", err
		}
		vals, err := p.measure(cfg, ds)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		if cols == nil {
			cols = make([][]float64, len(vals))
		}
		args := []any{name}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
			if p.printed == 0 || i < p.printed {
				args = append(args, v)
			}
		}
		fmt.Fprintf(&sb, "%-12s "+p.row+"\n", args...)
	}
	if p.summary != "" {
		var args []any
		for _, c := range cols {
			args = append(args, metrics.Mean(c))
		}
		for _, v := range p.paper {
			args = append(args, v)
		}
		fmt.Fprintf(&sb, p.summary, args...)
	}
	sb.WriteString(p.footer)
	return sb.String(), nil
}

// versus is a framework comparison: per model and dataset, one measured time
// per framework, normalised so that base reads 100. A framework that runs out
// of device memory, building its trainer or measuring, prints OOM.
type versus struct {
	what    string // the quantity measured, for the section titles
	kinds   []frameworks.Kind
	base    frameworks.Kind
	measure func(Config, *frameworks.Trainer) (time.Duration, error)
	footer  string
}

func (v versus) run(cfg Config) (string, error) {
	var sb strings.Builder
	for _, model := range []string{"gcn", "ngcf"} {
		fmt.Fprintf(&sb, "--- %s (normalized %s, %s = 100) ---\n", strings.ToUpper(model), v.what, v.base)
		fmt.Fprintf(&sb, "%-12s", "dataset")
		for _, k := range v.kinds {
			fmt.Fprintf(&sb, "%12s", k)
		}
		sb.WriteByte('\n')
		for _, name := range allSets(cfg) {
			ds, err := loadDataset(name)
			if err != nil {
				return "", err
			}
			took := map[frameworks.Kind]time.Duration{} // no entry: OOM
			for _, k := range v.kinds {
				var d time.Duration
				tr, err := newTrainer(cfg, k, ds, model)
				if err == nil {
					d, err = v.measure(cfg, tr)
				}
				switch {
				case isOOM(err):
				case err != nil:
					return "", fmt.Errorf("%s/%s/%s: %w", name, model, k, err)
				default:
					took[k] = d
				}
			}
			fmt.Fprintf(&sb, "%-12s", name)
			for _, k := range v.kinds {
				d, ok := took[k]
				if !ok {
					fmt.Fprintf(&sb, "%12s", "OOM")
					continue
				}
				fmt.Fprintf(&sb, "%12.1f", 100*float64(d)/float64(took[v.base]))
			}
			sb.WriteByte('\n')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(v.footer)
	return sb.String(), nil
}
