// Command perfbench is the repository benchmark: it composes the
// TinyEVM service in-process, serves it over loopback HTTP and drives
// it with rpc.Client through one of four workloads (pay, settle,
// restart, replicate). See README.md for the metrics and workloads.
//
//	go run . --workload pay --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: the verdict,
// the attempted and failed operation counts, and the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The lines before it
// print the same run for a reader, with sample counts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workdir  string
	spanFile string // where a traced run writes its spans
	size     sizes
}

// sizes are the fleet and history dimensions. The benchmark uses
// benchSizes; the package tests shrink them.
type sizes struct {
	setups int // setups per run; setup_s is their median

	payPairs, payChans int // pay: disjoint vehicle→meter pairs × channels

	settleVehicles int     // settle: lifecycle vehicles
	sidePairs      int     // settle: side-payment pairs (4 channels each)
	sideRate       float64 // settle: open-loop side payments per second

	restartRounds int // restart: lifecycles in the history
	restartTail   int // restart: payments after the last checkpoint
	restartSample int // restart: channels compared across a restart

	// replicate: the commit rate the pre-closed channel pools built in
	// set-up sustain over a whole window
	replicaRate float64
}

var benchSizes = sizes{
	setups:         3,
	payPairs:       64,
	payChans:       16,
	settleVehicles: 8,
	sidePairs:      16,
	sideRate:       32,
	restartRounds:  8,
	restartTail:    settleOpsPerBlock * ckptInterval / 2,
	restartSample:  16,
	// Twice the median 15.7 commits/s of the reference machine, whose
	// speed drift put single runs at up to 25.5/s.
	replicaRate: 32,
}

// named is one metric in the readable report.
type named struct {
	name, unit string
	value      float64
	n          int // samples behind the value; 0 for a count or ratio
}

// outcome is what a workload hands back.
type outcome struct {
	attempted, failed int
	problems          []string // failed correctness checks
	setups            []interval
	setupOnce         interval // set-up done once, added to the setups' median
	opsPerS           float64
	rateOver          []interval // the time opsPerS is a rate over
	rss               samples    // resident set size sampled in the window, MB
	op                []interval // the workload's headline latency, per op
	named             []named
	layers            map[string]float64
	speed             speed // the host's speed through the run (see speed.go)
}

// setupTime is the median of the repeated set-ups plus the once-only
// part in seconds, raw or scaled to the reference speed by sp.
func (o *outcome) setupTime(sp *speed) float64 {
	t := durations(o.setups, sp).quantile(0.5)
	if !o.setupOnce.start.IsZero() {
		t += durations([]interval{o.setupOnce}, sp)[0]
	}
	return t / 1e3
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, cfg config, t *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"pay":       runPay,
	"settle":    runSettle,
	"restart":   runRestart,
	"replicate": runReplicate,
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metrics: the same five on every workload (see README.md
// for what "op" is on each). Timings are scaled to the reference speed
// (see speed.go).
func endToEnd(o *outcome) map[string]metric {
	sp := &o.speed
	var raw, scaled float64
	for _, iv := range o.rateOver {
		raw += float64(iv.d())
		scaled += float64(sp.scaled(iv))
	}
	op := durations(o.op, sp)
	return map[string]metric{
		"setup_s":   {o.setupTime(sp), "s"},
		"rss_mb":    {o.rss.quantile(0.5), "MB"},
		"ops_per_s": {o.opsPerS * ratio(raw, scaled), "1/s"},
		"op_p50_ms": {op.quantile(0.50), "ms"},
		"op_p90_ms": {op.quantile(0.90), "ms"},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     = config{size: benchSizes}
		seconds = fs.Float64("seconds", 15, "measurement window in seconds")
		trace   = fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	fs.StringVar(&cfg.workload, "workload", "", "pay, settle, restart or replicate")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.StringVar(&cfg.workdir, "workdir", ".work", "scratch directory for data directories and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload pay|settle|restart|replicate, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	res, err := execute(cfg, wl, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a fresh directory under the workdir and
// removes it afterwards.
func execute(cfg config, wl workloadFunc, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.spanFile = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	cfg.workdir = dir

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	probe := startSpeedProbe()
	o, err := wl(context.Background(), cfg, t)
	sp, perr := probe.halt()
	if err = errors.Join(err, perr); err != nil {
		return nil, err
	}
	o.speed = sp
	res := &result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed}
	if cfg.trace {
		res.Metrics = make(map[string]metric, len(o.layers))
		for _, name := range layerNames {
			res.Metrics[name.name] = metric{o.layers[name.name], name.unit}
		}
	} else {
		res.Metrics = endToEnd(o)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	report(out, cfg, o, res)
	return res, nil
}

// report prints the run for a reader.
func report(w io.Writer, cfg config, o *outcome, res *result) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  window %s  %s\n", cfg.workload, cfg.seed, cfg.window, mode)
	fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", "ref_work_ms", o.speed.cost.quantile(0.5), "ms", len(o.speed.cost))
	fmt.Fprintf(w, "  %-34s %14.4f %-6s\n", "speed_scale", o.speed.scale(), "ratio")
	fmt.Fprintf(w, "  raw (unscaled):\n")
	fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", "setup_s", o.setupTime(nil), "s", len(o.setups))
	fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", "max_rss_mb", o.rss.quantile(1), "MB", len(o.rss))
	for _, m := range o.named {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, " n=%d", m.n)
		}
		fmt.Fprintln(w)
	}
	counts := map[string]int{
		"ops_per_s": len(o.op), "op_p50_ms": len(o.op), "op_p90_ms": len(o.op),
		"rss_mb": len(o.rss), "setup_s": len(o.setups),
	}
	if !cfg.trace {
		fmt.Fprintf(w, "  end-to-end, timings scaled by the host's speed:\n")
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		if n := counts[k]; n > 0 && !cfg.trace {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
	verdict := "ok"
	if !res.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "verdict %s  attempted %d  failed %d\n", verdict, res.Attempted, res.Failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  check failed: %s\n", p)
	}
}

// latency adds a latency set's median to the readable report, and its
// 99th or else 90th percentile when that one has minTail samples beyond
// it.
func (o *outcome) latency(name string, s samples) {
	o.named = append(o.named, named{name + "_p50_ms", "ms", s.quantile(0.5), len(s)})
	for _, q := range []float64{0.99, 0.9} {
		if s.resolved(q) {
			o.named = append(o.named, named{fmt.Sprintf("%s_p%.0f_ms", name, q*100), "ms", s.quantile(q), len(s)})
			return
		}
	}
}

func (o *outcome) add(name, unit string, v float64, n int) {
	o.named = append(o.named, named{name, unit, v, n})
}
