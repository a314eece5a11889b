// Command benchreport runs the repository's core benchmarks and emits a
// machine-readable report (ns/op, B/op, allocs/op and custom metrics
// per benchmark), optionally comparing it against a committed baseline
// and failing on regression. It is the measurement backbone behind the
// BENCH_<n>.json artifacts and the CI bench-gate job:
//
//	go run ./cmd/benchreport -out BENCH_3.json
//	go run ./cmd/benchreport -compare testdata/bench-baseline.json
//	go run ./cmd/benchreport -write-baseline testdata/bench-baseline.json
//
// The gate fails (exit 1) when any gated benchmark regresses by more
// than -threshold (default 25%) in a gated metric (-gate-metrics;
// ns/op and allocs/op by default, custom units like steps/s gate on
// drops) relative to the baseline. Escape hatches, in order of
// preference:
//
//  1. Intentional perf change: refresh the baseline with
//     -write-baseline and commit it alongside the change.
//  2. One-off skip: -allow-regression (or BENCH_GATE_SKIP=1 in the
//     environment) reports regressions but exits 0. CI also skips the
//     gate when the commit message contains [bench-skip].
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects the core engine/interpreter benchmarks (jump
// table, journaled snapshots), the table-2 corpus deployment
// throughput, cluster block replication over the in-process transport,
// the sharded-service payment throughput over the in-process batch-RPC
// gateway (10k concurrent channels), cold-start recovery replay (full
// vs checkpointed, recovery_ms), and the heap retained per payment and
// per channel lifecycle (retained-B/pay, retained-B/lifecycle,
// ckpt-B/lifecycle; reported, not gated).
const defaultBench = "^(BenchmarkEngineMineBlock|BenchmarkEVMTransferCall|BenchmarkInterpreterThroughput|BenchmarkSnapshotRevert|BenchmarkTableII_Fig3_Fig4_Deploy|BenchmarkClusterGossipThroughput|BenchmarkShardedServiceThroughput|BenchmarkRecoveryReplay|BenchmarkRetainedPerOp)$"

// gatedBench selects the benchmarks the regression gate enforces: the
// engine and interpreter hot paths, including the journaled
// snapshot/revert machinery every CALL/CREATE frame pays for, gossip
// replication end to end, the sharded service hot path (its allocs/op
// is the canary for accidental per-payment overhead on the striped
// gateway path), and the checkpointed cold-start (its ns/op is the
// restart-time promise: checkpoint load + bounded tail replay, never
// full history). The corpus benchmark and the full-replay recovery
// variants are reported but not gated (the former's ns/op is dominated
// by the simulated device clock; the latter scale with history length
// by design).
const gatedBench = "^(BenchmarkEngineMineBlock|BenchmarkEVMTransferCall|BenchmarkInterpreterThroughput|BenchmarkSnapshotRevert|BenchmarkClusterGossipThroughput|BenchmarkShardedServiceThroughput|BenchmarkRecoveryReplay/checkpointed)"

// Report is the machine-readable artifact (BENCH_<n>.json schema).
type Report struct {
	Schema      string      `json:"schema"`
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	GeneratedAt string      `json:"generated_at"`
	BenchArgs   string      `json:"bench_args"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// Benchmark is one measured benchmark (averaged over -count runs).
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// so reports compare across machines with different core counts.
	Name string `json:"name"`
	// Iters is the total number of benchmark iterations measured.
	Iters int64 `json:"iters"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard testing
	// metrics; custom b.ReportMetric units land in Metrics.
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		bench     = flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime value (time-based keeps micro-benchmarks statistically stable)")
		count     = flag.Int("count", 1, "go test -count value; runs are averaged")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "", "write the JSON report to this path")
		compare   = flag.String("compare", "", "baseline JSON report to gate against")
		threshold = flag.Float64("threshold", 0.25, "max allowed fractional regression in ns/op or allocs/op")
		baseline  = flag.String("write-baseline", "", "write the measured report as the new baseline to this path")
		allowRegr = flag.Bool("allow-regression", false, "report regressions but exit 0 (escape hatch)")
		rawIn     = flag.String("parse", "", "parse an existing `go test -bench` output file instead of running benchmarks")
		quietMode = flag.Bool("q", false, "suppress the raw benchmark output")
		gatePat   = flag.String("gate", gatedBench, "regex of benchmark names the regression gate enforces")
		gateUnits = flag.String("gate-metrics", "ns/op,allocs/op", "comma-separated metrics the gate enforces; custom b.ReportMetric units are looked up in each benchmark's metrics map, and units ending in /s (throughput, e.g. steps/s) gate on decreases instead of increases; use allocs/op alone when the baseline was measured on different hardware (allocs are machine-deterministic, wall time is not)")
		profile   = flag.Bool("profile-ops", false, "run the benchmarks with TINYEVM_PROFILE_OPS=1 so the interpreter reports per-opcode and per-superinstruction hit counts as custom metrics")
	)
	flag.Parse()

	var (
		output []byte
		err    error
	)
	benchArgs := fmt.Sprintf("-bench %s -benchtime %s -count %d -benchmem %s", *bench, *benchtime, *count, *pkg)
	if *rawIn != "" {
		output, err = os.ReadFile(*rawIn)
		if err != nil {
			fatal("read %s: %v", *rawIn, err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "benchreport: go test %s\n", benchArgs)
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", *bench, "-benchtime", *benchtime,
			"-count", strconv.Itoa(*count), "-benchmem", *pkg)
		cmd.Stderr = os.Stderr
		if *profile {
			cmd.Env = append(os.Environ(), "TINYEVM_PROFILE_OPS=1")
		}
		output, err = cmd.Output()
		if err != nil {
			os.Stderr.Write(output)
			fatal("go test -bench failed: %v", err)
		}
	}
	if !*quietMode {
		os.Stdout.Write(output)
	}

	rep := Report{
		Schema:      "tinyevm-bench/v1",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		BenchArgs:   benchArgs,
		Benchmarks:  parseBenchOutput(string(output)),
	}
	if len(rep.Benchmarks) == 0 {
		fatal("no benchmark results parsed")
	}

	for _, path := range []string{*out, *baseline} {
		if path == "" {
			continue
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
	}

	if *compare == "" {
		return
	}
	base, err := loadReport(*compare)
	if err != nil {
		fatal("load baseline %s: %v", *compare, err)
	}
	gateRe, err := regexp.Compile(*gatePat)
	if err != nil {
		fatal("bad -gate regex: %v", err)
	}
	units := map[string]bool{}
	for _, u := range strings.Split(*gateUnits, ",") {
		if u = strings.TrimSpace(u); u != "" {
			units[u] = true
		}
	}
	regressions := compareReports(base, &rep, gateRe, units, *threshold)
	for _, r := range regressions {
		fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", r)
	}
	if len(regressions) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: gate clean against %s (threshold %.0f%%)\n", *compare, *threshold*100)
		return
	}
	if *allowRegr || os.Getenv("BENCH_GATE_SKIP") == "1" {
		fmt.Fprintf(os.Stderr, "benchreport: %d regression(s) IGNORED (escape hatch active)\n", len(regressions))
		return
	}
	fmt.Fprintf(os.Stderr, "benchreport: %d regression(s) over the %.0f%% threshold; refresh the baseline with -write-baseline if intentional\n",
		len(regressions), *threshold*100)
	os.Exit(1)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchreport: "+format+"\n", args...)
	os.Exit(1)
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// gomaxprocsSuffix matches the trailing -N suffix go test appends to
// benchmark names when GOMAXPROCS > 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// stripCommonSuffix removes the -GOMAXPROCS suffix so results compare
// across machines with different core counts. Because sub-benchmark
// names can legitimately end in -N (workers-4), the suffix is stripped
// only when every parsed name carries the identical one — which is
// exactly how go test appends it (all lines or none).
func stripCommonSuffix(names []string) []string {
	if len(names) == 0 {
		return names
	}
	suffix := gomaxprocsSuffix.FindString(names[0])
	if suffix == "" {
		return names
	}
	for _, n := range names {
		if !strings.HasSuffix(n, suffix) {
			return names
		}
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = strings.TrimSuffix(n, suffix)
	}
	return out
}

// parseBenchOutput parses standard `go test -bench -benchmem` output
// lines into Benchmark records, averaging repeated runs (-count > 1).
func parseBenchOutput(out string) []Benchmark {
	type rawLine struct {
		name   string
		iters  int64
		fields []string
	}
	var lines []rawLine
	var names []string
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		lines = append(lines, rawLine{name: fields[0], iters: iters, fields: fields[2:]})
		names = append(names, fields[0])
	}
	names = stripCommonSuffix(names)

	type acc struct {
		b Benchmark
		n int
	}
	byName := map[string]*acc{}
	var order []string
	for i, l := range lines {
		name := names[i]
		a, ok := byName[name]
		if !ok {
			a = &acc{b: Benchmark{Name: name, Metrics: map[string]float64{}}}
			byName[name] = a
			order = append(order, name)
		}
		a.n++
		a.b.Iters += l.iters
		// Fields come in (value, unit) pairs.
		for i := 0; i+1 < len(l.fields); i += 2 {
			v, err := strconv.ParseFloat(l.fields[i], 64)
			if err != nil {
				continue
			}
			switch l.fields[i+1] {
			case "ns/op":
				a.b.NsPerOp += v
			case "B/op":
				a.b.BytesPerOp += v
			case "allocs/op":
				a.b.AllocsPerOp += v
			default:
				a.b.Metrics[l.fields[i+1]] += v
			}
		}
	}
	benchmarks := make([]Benchmark, 0, len(order))
	for _, name := range order {
		a := byName[name]
		a.b.NsPerOp /= float64(a.n)
		a.b.BytesPerOp /= float64(a.n)
		a.b.AllocsPerOp /= float64(a.n)
		for k := range a.b.Metrics {
			a.b.Metrics[k] /= float64(a.n)
		}
		if len(a.b.Metrics) == 0 {
			a.b.Metrics = nil
		}
		benchmarks = append(benchmarks, a.b)
	}
	return benchmarks
}

// compareReports returns one message per gated benchmark whose gated
// metrics (ns/op and/or allocs/op, per units) regressed past the
// threshold relative to base. Benchmarks missing from either side are
// reported informationally but never fail the gate (new benchmarks
// must be allowed to land).
func compareReports(base, cur *Report, gate *regexp.Regexp, units map[string]bool, threshold float64) []string {
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	var regressions []string
	names := make([]string, 0, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	curBy := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	for _, name := range names {
		b := curBy[name]
		if !gate.MatchString(name) {
			continue
		}
		old, ok := baseBy[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchreport: %s not in baseline (new benchmark, not gated)\n", name)
			continue
		}
		for unit := range units {
			var oldV, curV float64
			switch unit {
			case "ns/op":
				oldV, curV = old.NsPerOp, b.NsPerOp
			case "B/op":
				oldV, curV = old.BytesPerOp, b.BytesPerOp
			case "allocs/op":
				oldV, curV = old.AllocsPerOp, b.AllocsPerOp
			default:
				// Custom b.ReportMetric units (steps/s, payments/s, ...).
				// A benchmark that doesn't report the unit has no entry on
				// either side and is skipped by the oldV <= 0 guard.
				oldV, curV = old.Metrics[unit], b.Metrics[unit]
			}
			regressions = append(regressions, checkMetric(name, unit, oldV, curV, threshold)...)
		}
	}
	sort.Strings(regressions)
	return regressions
}

// checkMetric flags a regression past the threshold. Units ending in
// "/s" are throughputs where higher is better (a regression is a drop);
// every other unit is a cost where lower is better.
func checkMetric(name, unit string, old, cur, threshold float64) []string {
	if old <= 0 {
		return nil
	}
	ratio := cur / old
	if strings.HasSuffix(unit, "/s") {
		if ratio < 1-threshold {
			return []string{fmt.Sprintf("%s: %s %.6g -> %.6g (%+.1f%%, threshold -%.0f%%)",
				name, unit, old, cur, (ratio-1)*100, threshold*100)}
		}
		return nil
	}
	if ratio > 1+threshold {
		return []string{fmt.Sprintf("%s: %s %.6g -> %.6g (%+.1f%%, threshold %.0f%%)",
			name, unit, old, cur, (ratio-1)*100, threshold*100)}
	}
	return nil
}
