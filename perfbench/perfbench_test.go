package main

import (
	"bytes"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func ms10(n int) time.Duration { return time.Duration(n) * 10 * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Parent 0–100 with overlapping children 10–30 and 20–50, and a
		// child 90–120 that outlives it: covered 10–50 and 90–100.
		{ID: 1, Name: "client.pay", Start: ms10(0), End: ms10(100)},
		{ID: 2, Parent: 1, Name: "rpc.handler", Start: ms10(10), End: ms10(30)},
		{ID: 3, Parent: 1, Name: "rpc.handler", Start: ms10(20), End: ms10(50)},
		{ID: 4, Parent: 1, Name: "store.put", Start: ms10(90), End: ms10(120)},
		// A grandchild inside span 3 and a root with no children.
		{ID: 5, Parent: 3, Name: "store.put", Start: ms10(25), End: ms10(35)},
		{ID: 6, Name: "store.batch", Start: ms10(200), End: ms10(207)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client.pay":  ms10(100 - 40 - 10),
		"rpc.handler": ms10(20) + ms10(30-10),
		"store.put":   ms10(30) + ms10(10),
		"store.batch": ms10(7),
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %s, want %s", name, got[name], w)
		}
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	p := span{Start: 0, End: ms10(100)}
	if c := covered(p, nil); c != 0 {
		t.Fatalf("covered with no children = %s", c)
	}
	kids := []span{{Start: ms10(60), End: ms10(70)}, {Start: ms10(10), End: ms10(20)}, {Start: ms10(110), End: ms10(130)}}
	if c := covered(p, kids); c != ms10(20) {
		t.Fatalf("covered = %s, want %s", c, ms10(20))
	}
}

func TestQuantiles(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {0.9, 90.1}, {1, 100}} {
		if got := s.quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !s.resolved(0.9) || s.resolved(0.99) {
		t.Errorf("with 100 samples p90 has %d beyond (want resolved), p99 %d (want not)", s.beyond(0.9), s.beyond(0.99))
	}
	if !math.IsNaN(samples(nil).quantile(0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := medianDuration([]time.Duration{3 * time.Second, time.Second, 2 * time.Second}); got != 2*time.Second {
		t.Errorf("medianDuration = %s", got)
	}
}

func TestLatencyReportsResolvedPercentileAndCount(t *testing.T) {
	var o outcome
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	o.latency("pay", s)
	o.latency("commit", s[:100])
	o.latency("restart", s[:5])
	var got []string
	for _, m := range o.named {
		got = append(got, m.name)
		if m.n != 1000 && m.n != 100 && m.n != 5 {
			t.Errorf("%s reports %d samples", m.name, m.n)
		}
	}
	want := []string{"pay_p50_ms", "pay_p99_ms", "commit_p50_ms", "commit_p90_ms", "restart_p50_ms"}
	if len(got) != len(want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reported %v, want %v", got, want)
		}
	}
}

// smokeSizes keep each workload's set-up to a second or two.
var smokeSizes = sizes{
	setups:         1,
	payPairs:       4,
	payChans:       2,
	settleVehicles: 2,
	sidePairs:      2,
	sideRate:       8,
	restartRounds:  2,
	restartTail:    4,
	restartSample:  4,
	replicaRate:    16,
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var layerKeys []string
	for _, l := range layerNames {
		layerKeys = append(layerKeys, l.name)
	}
	e2eKeys := []string{"op_p50_ms", "op_p90_ms", "ops_per_s", "rss_mb", "setup_s"}
	for _, name := range []string{"pay", "settle", "restart", "replicate"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, window: 1500 * time.Millisecond, trace: traced, workdir: t.TempDir(), size: smokeSizes}
			res, err := execute(cfg, workloads[name], io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: verdict %v attempted %d failed %d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2eKeys
			if traced {
				want = layerKeys
			}
			var keys []string
			for k, m := range res.Metrics {
				keys = append(keys, k)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", name, traced, k, m.Value)
				}
			}
			sort.Strings(keys)
			sort.Strings(want)
			if len(keys) != len(want) {
				t.Fatalf("%s traced=%v: metrics %v, want %v", name, traced, keys, want)
			}
			for i := range keys {
				if keys[i] != want[i] {
					t.Fatalf("%s traced=%v: metrics %v, want %v", name, traced, keys, want)
				}
			}
		}
	}
}

func TestReplicateRefillsDryPools(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster")
	}
	sz := smokeSizes
	sz.replicaRate = 1 // one pre-closed channel per validator
	cfg := config{workload: "replicate", seed: 7, window: 1500 * time.Millisecond, workdir: t.TempDir(), size: sz}
	var out bytes.Buffer
	res, err := execute(cfg, workloads["replicate"], &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 2 {
		t.Fatalf("verdict %v attempted %d", res.Correct, res.Attempted)
	}
	if !strings.Contains(out.String(), "pool_refills") {
		t.Fatalf("report does not count the refills:\n%s", out.String())
	}
}

func TestRSSIsRead(t *testing.T) {
	mb, err := rssMB()
	if err != nil || mb <= 0 {
		t.Fatalf("rssMB = %v, %v", mb, err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pay", "--trace", "2"},
		{"--workload", "pay", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}

func TestSpeedScaling(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// refWork cost twice refCost for the first 10 s, refCost after.
	var sp speed
	for i := 0; i < 400; i++ {
		at := t0.Add(time.Duration(i) * 50 * time.Millisecond)
		cost := 2 * ms(refCost)
		if at.Sub(t0) >= 10*time.Second {
			cost = ms(refCost)
		}
		sp.at = append(sp.at, at)
		sp.cost = append(sp.cost, cost)
	}
	near := func(got, want time.Duration) bool {
		return math.Abs(float64(got-want)) < float64(time.Microsecond)
	}
	// A slow stretch reads at half its length, a fast one at its length.
	if got := sp.scaled(interval{t0.Add(2 * time.Second), t0.Add(4 * time.Second)}); !near(got, time.Second) {
		t.Errorf("slow 2 s scaled to %s, want 1s", got)
	}
	if got := sp.scaled(interval{t0.Add(15 * time.Second), t0.Add(17 * time.Second)}); !near(got, 2*time.Second) {
		t.Errorf("fast 2 s scaled to %s, want 2s", got)
	}
	// A short op takes its neighbourhood's scale.
	if got := sp.scaled(interval{t0.Add(3 * time.Second), t0.Add(3*time.Second + 20*time.Millisecond)}); !near(got, 10*time.Millisecond) {
		t.Errorf("slow 20 ms scaled to %s, want 10ms", got)
	}
	// Far from any sample the whole run's median is used.
	if got := sp.scaled(interval{t0.Add(time.Hour), t0.Add(time.Hour + time.Second)}); got <= 0 {
		t.Errorf("unsampled second scaled to %s", got)
	}
	if got := durations([]interval{{t0, t0.Add(time.Second)}}, nil); got[0] != 1000 {
		t.Errorf("raw duration %v ms, want 1000", got[0])
	}
}

func TestRefWorkIsTimed(t *testing.T) {
	p := startSpeedProbe()
	time.Sleep(3 * speedEvery)
	sp, err := p.halt()
	if err != nil || len(sp.cost) < 2 || len(sp.at) != len(sp.cost) || !(sp.scale() > 0) {
		t.Fatalf("probe measured %d costs at %d times, scale %v", len(sp.cost), len(sp.at), sp.scale())
	}
}
