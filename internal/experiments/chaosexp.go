package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/fault"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/serve"
	"graphtensor/internal/train"
)

// runChaos is the chaos-engineering acceptance run: seeded fault plans kill
// serving replicas mid-batch, kill training devices mid-run and crash a
// training job between checkpoints, and every row must end bitwise
// identical to its fault-free reference. A DIFF is returned as an error so
// CI fails loudly — fault tolerance that changes numerics is a silent
// correctness bug, not a degraded mode.
func runChaos(cfg Config) (string, error) {
	var sb strings.Builder
	ds, err := loadDataset("products")
	if err != nil {
		return "", err
	}

	// --- Serving: replica failover under a seeded kill schedule. ---
	tr, err := servingTrainer(cfg, ds)
	if err != nil {
		return "", err
	}
	nQueries := 48
	if cfg.Quick {
		nQueries = 24
	}
	queries := queryDsts(ds, nQueries, 70_000)

	fmt.Fprintf(&sb, "%-26s %5s %6s %9s %8s %7s %7s\n",
		"serving config", "nrep", "dead", "failovers", "rejoins", "p99", "logits")
	type kill struct {
		label    string
		replicas int
		plan     *fault.Plan
	}
	kills := []kill{
		{"fault-free reference", 2, nil},
		{"kill replica 0 @ batch 0", 2, fault.Schedule().Kill(0, 0)},
		{"kill 2 of 4 replicas", 4, fault.Schedule().Kill(0, 0).Kill(2, 1)},
		{"kill replica 0 + rejoin", 2, fault.NewPlan(1, fault.Config{RejoinProb: 1}).Kill(0, 0)},
	}
	if cfg.Quick {
		// The quick sweep keeps one plain kill and the kill+rejoin row.
		kills = []kill{kills[0], kills[1], kills[3]}
	}
	var refSums []uint64
	for _, k := range kills {
		scfg := serve.DefaultConfig()
		scfg.Replicas = k.replicas
		scfg.FaultPlan = k.plan
		run, err := serveAll(tr, scfg, queries, true)
		if err != nil {
			return "", err
		}
		v := "ref"
		if k.plan == nil {
			refSums = run.sums
		} else {
			v = verdict(slices.Equal(run.sums, refSums))
		}
		fmt.Fprintf(&sb, "%-26s %5d %6d %9d %8d %7s %7s\n",
			k.label, k.replicas, run.st.DeadReplicas, run.st.FailedOver, run.st.Rejoined,
			run.st.Latency.P99.Round(10_000), v)
		if v == "DIFF" {
			return "", fmt.Errorf("chaos: serving logits diverged under failover (%s)\nresolved fault schedule:\n%s",
				k.label, k.plan.Describe(nQueries, k.replicas))
		}
	}
	sb.WriteByte('\n')

	// --- Training: device death mid-run shrinks the group bitwise; on the
	// hierarchical fabric a whole node dies at one boundary, a degradation
	// window slows the modeled network, and the dead node's devices rejoin
	// (weight snapshot reinstalled over a modeled cross-node broadcast).
	// Still bitwise vs the 1-device run.
	nBatches := cfg.batches(6)
	refW, _, err := chaosTrainRun(cfg, ds, 1, 0, nBatches, nil)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "%-26s %8s %6s %8s %8s %8s\n", "training config", "devices", "dead", "retries", "rejoins", "weights")
	fmt.Fprintf(&sb, "%-26s %8d %6d %8s %8s %8s\n", "fault-free reference", 1, 0, "-", "-", "ref")
	rejoinStep := min(3, nBatches-1) // after one re-noded batch; earlier when the run is short
	for _, r := range []struct {
		label, devices string
		nDev, perNode  int
		plan           *fault.Plan
	}{
		{"kill device 1 @ batch 1", "2", 2, 0, fault.Schedule().Kill(1, 1)},
		{"kill node 1 + rejoin both", "4(2/nd)", 4, 2, fault.Schedule().KillNode(1, 1).
			Rejoin(2, rejoinStep).Rejoin(3, rejoinStep).DegradeLink(rejoinStep-1, 1, 0.5, time.Millisecond)},
	} {
		w, tr, err := chaosTrainRun(cfg, ds, r.nDev, r.perNode, nBatches, r.plan)
		if err != nil {
			return "", err
		}
		g := tr.Group()
		fmt.Fprintf(&sb, "%-26s %8s %6d %8d %8d %8s\n",
			r.label, r.devices, g.DeadDevices(), g.Retries(), g.Rejoined(), verdict(w == refW))
		if w != refW {
			return "", fmt.Errorf("chaos: training trajectory diverged (%s)\nresolved fault schedule:\n%s",
				r.label, r.plan.Describe(nBatches, r.nDev))
		}
	}

	// --- Training: crash after a checkpoint, resume on fewer devices. ---
	dir, err := os.MkdirTemp("", "gt-chaos-ckpt")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	// Two devices run half the batches and stop at a checkpoint; one device
	// resumes from it and runs the rest.
	half := (nBatches + 1) / 2
	var job *frameworks.Trainer // the crashed run, then the resumed one
	for i, phase := range []struct{ nDev, batches int }{{2, half}, {1, nBatches}} {
		if job, err = chaosTrainer(cfg, ds, phase.nDev, 0, nil); err != nil {
			return "", err
		}
		dcfg := train.Config{Epochs: 1, BatchesPerEpoch: phase.batches, LearningRate: 0.05,
			CheckpointDir: dir, CheckpointEvery: phase.batches, Resume: i > 0}
		if _, err := train.NewDriver(job, dcfg, nil).Run(); err != nil {
			return "", err
		}
	}
	resumedW := weightSum(job)
	fmt.Fprintf(&sb, "%-26s %8s %6s %8s %8s %8s\n",
		fmt.Sprintf("crash@%d, resume on 1 dev", half), "2->1", "-", "-", "-", verdict(resumedW == refW))
	if resumedW != refW {
		return "", fmt.Errorf("chaos: crash-resumed trajectory diverged from uninterrupted run")
	}

	sb.WriteString("\nEvery fault is drawn from a seeded plan — a pure function of\n" +
		"(seed, kind, id, step), never wall time — so each chaos run replays\n" +
		"bitwise. Failover re-enqueues whole micro-batches, the device group\n" +
		"replays whole batches on the survivors (re-noding the plan after a\n" +
		"whole-node loss), rejoins re-enter at batch boundaries by reinstalling\n" +
		"the survivors' weight snapshot over a modeled broadcast, and link\n" +
		"degradation scales modeled network time only — so the logits and the\n" +
		"training trajectory must equal the fault-free reference bit for bit; a\n" +
		"DIFF fails the experiment and prints the plan's resolved schedule.\n")
	return sb.String(), nil
}

// chaosTrainer builds the data-parallel trainer the chaos training rows
// share: BaseGT (the DKP-free build, so placement is deterministic at every
// device count), optionally on a hierarchical fabric (devsPerNode > 0) and
// optionally carrying a fault plan into the device group.
func chaosTrainer(cfg Config, ds *datasets.Dataset, nDev, devsPerNode int, plan *fault.Plan) (*frameworks.Trainer, error) {
	opt := trainerOptions(cfg, "gcn")
	opt.NumDevices = nDev
	opt.DevicesPerNode = devsPerNode
	opt.FaultPlan = plan
	return frameworks.New(frameworks.BaseGT, ds, opt)
}

// chaosTrainRun trains nBatches on an nDev-device group under the plan and
// returns the final weight checksum plus the trainer (for group stats).
func chaosTrainRun(cfg Config, ds *datasets.Dataset, nDev, devsPerNode, nBatches int, plan *fault.Plan) (uint64, *frameworks.Trainer, error) {
	tr, err := chaosTrainer(cfg, ds, nDev, devsPerNode, plan)
	if err != nil {
		return 0, nil, err
	}
	if _, _, err := tr.TrainEpoch(nBatches); err != nil {
		return 0, nil, err
	}
	return weightSum(tr), tr, nil
}

// weightSum checksums the trainer's canonical weights.
func weightSum(tr *frameworks.Trainer) uint64 {
	h := fnv.New64a()
	for _, l := range tr.Model.Layers {
		hashFloats(h, l.W.Data)
		hashFloats(h, l.B)
	}
	return h.Sum64()
}

// verdict is a faulted run's column against its fault-free reference.
func verdict(same bool) string {
	if same {
		return "exact"
	}
	return "DIFF"
}
