package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"graphtensor/internal/datasets"
)

func TestUpperPercentile(t *testing.T) {
	cases := []struct {
		n    int
		max  float64
		want float64
	}{
		{5000, 99, 99},
		{1000, 99, 99}, // exactly ten samples beyond p99
		{999, 99, 95},
		{200, 99, 95},
		{199, 99, 90},
		{100, 99, 90},
		{40, 99, 75},
		{20, 99, 50},
		{19, 99, 0},
		{5000, 95, 95}, // capped
	}
	for _, c := range cases {
		if got := upperPercentile(c.n, c.max); got != c.want {
			t.Errorf("upperPercentile(%d, %g) = %g, want %g", c.n, c.max, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, op: 0, start: 0, end: 100},
		{name: "a", parent: 0, op: 0, start: 10, end: 30},
		{name: "b", parent: 0, op: 0, start: 20, end: 50}, // overlaps a: counted once
		{name: "c", parent: 0, op: 0, start: 60, end: 70},
		{name: "a.inner", parent: 1, op: 0, start: 12, end: 20},
		{name: "late", parent: 0, op: 0, start: 95, end: 120}, // clipped to the parent
	}
	want := []int64{
		100 - (40 + 10 + 5), // children cover [10,50], [60,70], [95,100]
		20 - 8,
		30,
		10,
		8,
		25,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestLayerTableShares(t *testing.T) {
	spans := []span{
		{name: "train.step", parent: -1, op: 0, start: 0, end: 100},
		{name: "core.compute", parent: 0, op: 0, start: 0, end: 90},
		{name: "train.step", parent: -1, op: 1, start: 100, end: 200},
		{name: "core.compute", parent: 2, op: 1, start: 100, end: 190},
		{name: replayRoot, parent: -1, op: -1, start: 200, end: 300},
		{name: "kernels.linear_fwd", parent: 4, op: -1, start: 200, end: 250},
	}
	rows, unattributed := layerTable(spans)
	if unattributed != 10 {
		t.Errorf("unattributed op time = %g%%, want 10%%", unattributed)
	}
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.name] = r
	}
	if r := byName["core.compute"]; r.calls != 2 || r.share != 90 || r.replayed {
		t.Errorf("core.compute row = %+v, want 2 calls at a 90%% share", r)
	}
	// A replayed call's share is its mean over the mean op: 50 / 100.
	if r := byName["kernels.linear_fwd"]; r.calls != 1 || r.share != 50 || !r.replayed {
		t.Errorf("kernels.linear_fwd row = %+v, want 1 replayed call at a 50%% share", r)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8 * queryBlock
	if a, b := genQueries(ds, 1, n), genQueries(ds, 1, n); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different query sets")
	}
	if a, b := genQueries(ds, 1, n), genQueries(ds, 2, n); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same query set")
	}
	// Every block holds the whole size deck: 70 % small, 30 % large.
	qs := genQueries(ds, 3, n)
	if len(qs) != n {
		t.Fatalf("%d queries, want %d", len(qs), n)
	}
	for b := 0; b < n; b += queryBlock {
		small, large := 0, 0
		for _, q := range qs[b : b+queryBlock] {
			switch k := len(q); {
			case k >= 1 && k <= 4:
				small++
			case k >= 16 && k <= maxQueryDsts:
				large++
			default:
				t.Fatalf("query of %d dsts is outside the mix", k)
			}
		}
		if small != 28 || large != 12 {
			t.Errorf("block at %d: %d small / %d large queries, want 28 / 12", b, small, large)
		}
	}
	if a, b := genArrivals(1, 256, openRate), genArrivals(1, 256, openRate); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different arrival schedules")
	}
	if a, b := genArrivals(1, 256, openRate), genArrivals(2, 256, openRate); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same arrival schedule")
	}
	if a, b := batchDsts(ds, 30, 1, 5), batchDsts(ds, 30, 1, 5); !reflect.DeepEqual(a, b) {
		t.Error("same seed and index gave different batch dsts")
	}
	if a, b := batchDsts(ds, 30, 1, 5), batchDsts(ds, 30, 2, 5); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same batch dsts")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark's tables (exactly
// the names the binary emits) and to the limits its readers set.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var got benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := benchSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; regenerate it with -spec\n got %+v\nwant %+v", got, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed form", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is outside the allowed form", name, unit)
		}
		if better != "" && better != lower && better != higher {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == lower
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
}

// lastLine parses the JSON line a report ends with.
func lastLine(t *testing.T, report []byte) jsonResult {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(report), []byte("\n"))
	var res jsonResult
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestSmoke runs all four workloads, untraced and traced, at tiny op counts:
// every correctness check must pass, the untraced JSON must carry exactly
// the end-to-end metrics, none of them zero, and the traced JSON exactly the
// per-layer ones.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var report bytes.Buffer
			cfg := &runCfg{seed: 1, trace: traced, smoke: true}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			printResult(&report, res, nil)
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, traced, res.correct, res.attempted, res.failed, report.Bytes())
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			got := lastLine(t, report.Bytes())
			if len(got.Metrics) != len(specs) {
				t.Errorf("%s traced=%t: %d metrics in the JSON line, want %d", w.name, traced, len(got.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := got.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s traced=%t: metric %s missing or in unit %q, want %q", w.name, traced, s.name, m.Unit, s.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be zero", w.name, s.name, m.Value)
				}
			}
		}
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "train-lite", "-smoke"},
		{"-workload", "train-light", "-smoke", "-metrics", "cpu_ms"},
		{"-workload", "train-light", "-smoke", "-trace", "2"},
		{"-workload", "train-light", "-smoke", "stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
