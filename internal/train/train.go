// Package train is a reusable epoch-level training driver over the
// framework trainers: it runs multiple epochs with a train/validation
// split, tracks loss and accuracy, supports early stopping, and overlaps
// preprocessing with compute through the framework's prefetcher. It is the
// harness a downstream adopter would build a training job on.
package train

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"graphtensor/internal/frameworks"
	"graphtensor/internal/graph"
)

// Config parameterizes a training run.
type Config struct {
	Epochs          int
	BatchesPerEpoch int
	// LearningRate > 0 overrides the trainer's SGD learning rate for the
	// run; 0 (the zero value) keeps the trainer's configured rate; < 0
	// freezes the weights (no updates — useful for evaluation-only runs
	// and early-stop tests).
	LearningRate float32
	// ValEvery evaluates on the validation batch every N epochs (0 = never).
	ValEvery int
	// EarlyStopPatience stops if validation accuracy does not improve for
	// this many evaluations (0 = disabled).
	EarlyStopPatience int
	// Verbose prints per-epoch progress.
	Verbose bool
	// CheckpointDir enables fault-tolerant training: every CheckpointEvery
	// consumed batches the driver snapshots the trainer there (rename-on-
	// write, CRC-sealed, newest two kept). Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in global batches (<= 0 with
	// CheckpointDir set defaults to BatchesPerEpoch).
	CheckpointEvery int
	// Resume restores the newest readable snapshot in CheckpointDir before
	// training and continues the schedule from its cursor — a run killed at
	// batch B resumes mid-epoch, even on a different device count, with a
	// trajectory bitwise identical to an uninterrupted run. Corrupt
	// snapshots are skipped in favor of the previous good one; a directory
	// holding only corrupt snapshots is an error, never a silent
	// zero-weight restart.
	Resume bool
}

// DefaultConfig returns a reasonable training schedule.
func DefaultConfig() Config {
	return Config{Epochs: 10, BatchesPerEpoch: 20, LearningRate: 0.05, ValEvery: 2}
}

// EpochResult records one epoch's outcome.
type EpochResult struct {
	Epoch     int
	MeanLoss  float64
	ValAcc    float64
	Evaluated bool
	Wall      time.Duration
	// DeadDevices and Rejoined count the data-parallel group's membership
	// events during this epoch — devices lost to fault injection and
	// devices re-admitted by rejoin events (both 0 on single-device
	// trainers and fault-free runs; neither affects the loss trajectory).
	DeadDevices int
	Rejoined    int
}

// History is the sequence of epoch results.
type History struct {
	Epochs       []EpochResult
	BestValAcc   float64
	BestEpoch    int
	StoppedEarly bool
}

// Driver trains a framework trainer over epochs.
type Driver struct {
	tr      *frameworks.Trainer
	cfg     Config
	valDsts []graph.VID
}

// NewDriver builds a driver. valDsts is a fixed validation batch (drawn once
// so accuracy is comparable across epochs); pass nil to skip validation.
func NewDriver(tr *frameworks.Trainer, cfg Config, valDsts []graph.VID) *Driver {
	if cfg.BatchesPerEpoch <= 0 {
		cfg.BatchesPerEpoch = 20
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	return &Driver{tr: tr, cfg: cfg, valDsts: valDsts}
}

// Run executes the training schedule and returns the history.
//
// The whole schedule is fed through one prefetch ring, so for
// overlap-capable frameworks the preprocessing of epoch e+1 overlaps the
// compute tail of epoch e and continues through validation pauses. On early
// stopping the deferred Stop abandons and drains whatever the ring prepared
// ahead. Prepared-ahead batches are host-resident: only the batch in compute
// (training or validation) holds device memory.
func (d *Driver) Run() (*History, error) {
	// Apply the run's learning-rate override for the duration of the run
	// only; the trainer's configured rate is restored on return.
	if d.cfg.LearningRate != 0 {
		prev := d.tr.Opt.LearningRate
		defer func() { d.tr.Opt.LearningRate = prev }()
		if d.cfg.LearningRate > 0 {
			d.tr.Opt.LearningRate = d.cfg.LearningRate
		} else {
			d.tr.Opt.LearningRate = 0
		}
	}
	h := &History{}
	sinceImprove := 0
	// A resumed run picks up at the restored snapshot's global batch
	// cursor: the first epoch trains only its remaining tail, and the ring
	// is sized to the remaining schedule.
	var start uint64
	if d.cfg.Resume && d.cfg.CheckpointDir != "" {
		var err error
		if start, err = d.restoreLatest(); err != nil {
			return nil, err
		}
	}
	total := d.cfg.Epochs * d.cfg.BatchesPerEpoch
	if int(start) >= total {
		return h, nil
	}
	every := d.cfg.CheckpointEvery
	if d.cfg.CheckpointDir != "" && every <= 0 {
		every = d.cfg.BatchesPerEpoch
	}
	g := start
	var after func(int, float64) error
	if d.cfg.CheckpointDir != "" {
		after = func(int, float64) error {
			g++
			if g%uint64(every) == 0 {
				return d.checkpoint(g)
			}
			return nil
		}
	}
	// Dst lists are drawn lazily on the ring's producer as each batch's
	// preparation starts — the schedule-length sequence is never
	// materialized, and early stopping wastes no generation.
	ring := d.tr.NewRingN(total-int(start), func(int) []graph.VID { return d.tr.NextDsts() })
	defer ring.Stop()
	for e := int(start) / d.cfg.BatchesPerEpoch; e < d.cfg.Epochs; e++ {
		nb := d.cfg.BatchesPerEpoch
		if rem := int(start) - e*d.cfg.BatchesPerEpoch; rem > 0 {
			nb -= rem // resumed mid-epoch: train only the tail
		}
		t0 := time.Now()
		var dead0, rejoin0 int
		if g := d.tr.Group(); g != nil {
			dead0, rejoin0 = g.DeadDevices(), g.Rejoined()
		}
		loss, err := d.tr.TrainStreamHook(ring, nb, after)
		if err != nil {
			return nil, err
		}
		res := EpochResult{Epoch: e, MeanLoss: loss, Wall: time.Since(t0)}
		if g := d.tr.Group(); g != nil {
			res.DeadDevices = g.DeadDevices() - dead0
			res.Rejoined = g.Rejoined() - rejoin0
		}
		if d.valDsts != nil && d.cfg.ValEvery > 0 && e%d.cfg.ValEvery == 0 {
			acc, err := d.validate()
			if err != nil {
				return nil, err
			}
			res.ValAcc = acc
			res.Evaluated = true
			if acc > h.BestValAcc {
				h.BestValAcc = acc
				h.BestEpoch = e
				sinceImprove = 0
			} else {
				sinceImprove++
			}
		}
		res.Wall = time.Since(t0)
		h.Epochs = append(h.Epochs, res)
		if d.cfg.Verbose {
			mem := ""
			if res.DeadDevices > 0 || res.Rejoined > 0 {
				mem = fmt.Sprintf("  dead %d  rejoined %d", res.DeadDevices, res.Rejoined)
			}
			if res.Evaluated {
				fmt.Printf("epoch %2d  loss %.4f  val-acc %.3f  %v%s\n", e, res.MeanLoss, res.ValAcc, res.Wall.Round(time.Millisecond), mem)
			} else {
				fmt.Printf("epoch %2d  loss %.4f  %v%s\n", e, res.MeanLoss, res.Wall.Round(time.Millisecond), mem)
			}
		}
		if d.cfg.EarlyStopPatience > 0 && sinceImprove >= d.cfg.EarlyStopPatience {
			h.StoppedEarly = true
			break
		}
	}
	return h, nil
}

// validate prepares the fixed validation batch and evaluates accuracy.
func (d *Driver) validate() (float64, error) {
	b, err := d.tr.Prepare(d.valDsts, nil)
	if err != nil {
		return 0, err
	}
	defer b.Release()
	return d.tr.Evaluate(b)
}

// ckptPrefix names snapshot files; the zero-padded global batch cursor
// makes lexicographic order the recovery order.
const ckptPrefix = "ckpt-"

// checkpoint snapshots the trainer at global batch g and prunes old
// snapshots down to the newest two (the fallback pair: newest plus one
// spare in case the newest is later found damaged).
func (d *Driver) checkpoint(g uint64) error {
	path := filepath.Join(d.cfg.CheckpointDir, fmt.Sprintf("%s%010d", ckptPrefix, g))
	if err := d.tr.Checkpoint(path, g); err != nil {
		return err
	}
	names, err := d.snapshots()
	if err != nil {
		return err
	}
	for _, old := range names[:max(0, len(names)-2)] {
		if err := os.Remove(filepath.Join(d.cfg.CheckpointDir, old)); err != nil {
			return err
		}
	}
	return nil
}

// snapshots lists the checkpoint files in CheckpointDir, oldest first.
func (d *Driver) snapshots() ([]string, error) {
	entries, err := os.ReadDir(d.cfg.CheckpointDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ckptPrefix) && !strings.Contains(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// restoreLatest restores the newest readable snapshot, scanning past
// corrupt files to the previous good one. An empty (or absent) directory
// starts fresh at batch 0; a directory holding only corrupt snapshots is an
// error — training must never silently restart from zero weights when
// checkpoints were expected to exist.
func (d *Driver) restoreLatest() (uint64, error) {
	names, err := d.snapshots()
	if err != nil {
		return 0, err
	}
	if len(names) == 0 {
		return 0, nil
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(d.cfg.CheckpointDir, names[i])
		step, err := d.tr.Restore(path)
		switch {
		case err == nil:
			return step, nil
		case errors.Is(err, frameworks.ErrCheckpointCorrupt):
			continue // fall back to the previous snapshot
		default:
			return 0, err // mismatched run — refusing beats clobbering
		}
	}
	return 0, fmt.Errorf("train: every checkpoint in %s is corrupt: %w",
		d.cfg.CheckpointDir, frameworks.ErrCheckpointCorrupt)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
