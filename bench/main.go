// Command bench is the repository's one benchmark: four workloads,
// each set up, warmed, driven closed loop and open loop, checked
// response by response, and (with -trace 1) replayed under spans for a
// per-layer budget. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract.
//
//	go run ./bench                             every workload, a table, bench/out/result.json
//	go run ./bench -workload v2_warm -seed 3 -seconds 20 -trace 0
//	go run ./bench -smoke                      a tenth of the duration, checks only
//	go run ./bench -merge set.json r1.json r2.json ...
//	go run ./bench -compare base.json candidate.json
//
// bash bench/run.sh is the same with the Go build cache kept under
// bench/out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the contract's one-line JSON result (default: all, as a table)")
		seed     = flag.Int64("seed", 1, "seeds every generator")
		seconds  = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: print the end-to-end metrics; 1: add the traced replay and print the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "one tenth of the duration, correctness and regime checks only")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare base.json candidate.json")
		merge    = flag.String("merge", "", "merge the result documents given as arguments into this file")
		out      = flag.String("out", "", "where to write the result document (default bench/out/result.json)")
	)
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *smoke, *compare, *merge, *out))
}

func run(workload string, seed int64, seconds float64, traced, smoke, compare bool, merge, out string) int {
	if compare || merge != "" {
		return docTool(compare, merge)
	}
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if smoke {
		seconds /= 10
	}
	// The process hosts server and generator on every core it has.
	runtime.GOMAXPROCS(nproc)
	env := &runEnv{outDir: outDir(), smoke: smoke}
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer removeWALDirs(env.outDir)

	// A run that hangs must still end, non-zero, inside the contract's
	// per-run limit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s, giving up")
		removeWALDirs(env.outDir)
		os.Exit(3)
	})
	defer watchdog.Stop()

	defs := workloads
	if workload != "" {
		def := workloadByName(workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
			return 2
		}
		defs = []*workloadDef{def}
	} else {
		watchdog.Stop() // a full run is four workloads long
	}

	doc := &resultDoc{Nproc: nproc, GoVersion: runtime.Version(), Runs: 1}
	ok := true
	for _, def := range defs {
		// Every phase runs once. -trace only adds the traced replay behind
		// them (a full run always has it) and selects the set the
		// contract line prints.
		res, err := runWorkload(ctx, env, def, seed, seconds, traced || workload == "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		ok = ok && res.Correct
		doc.Workloads = append(doc.Workloads, *res)
		printWorkload(os.Stderr, sp, res, smoke)
	}
	if out == "" {
		name := "result.json"
		if workload != "" {
			name = fmt.Sprintf("result-%s-%d.json", workload, boolInt(traced))
		}
		out = filepath.Join(env.outDir, name)
	}
	if err := writeDoc(out, doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if workload != "" {
		printContractLine(sp, &doc.Workloads[0], traced)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: a response, a recovery or a regime check did not hold")
		return 1
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// outDir is bench/out whether the program was started from the
// repository root (go run ./bench, run.sh) or from bench/ (go run .).
func outDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func removeWALDirs(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("wal-*-%d-*", os.Getpid())))
	for _, m := range matches {
		os.RemoveAll(m)
	}
}

// printContractLine writes the one JSON object the driver reads: with
// tracing off every end-to-end metric, with tracing on every per-layer
// metric, each as its median.
func printContractLine(sp *spec, res *workloadResult, traced bool) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	decl := sp.EndToEnd
	if traced {
		decl = sp.PerLayer
	}
	for _, d := range decl {
		m, ok := res.EndToEnd[d.Name]
		if !ok {
			m = res.PerLayer[d.Name]
		}
		metrics[d.Name] = val{Value: m.Median, Unit: d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Println(string(line))
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w *os.File, sp *spec, res *workloadResult, smoke bool) {
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%.1f  attempted=%d  failed=%d  correct=%v\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "   ", n)
	}
	if smoke {
		return
	}
	row := func(name string, m metric) {
		fmt.Fprintf(w, "  %-30s %14.4f %-6s [%.4f .. %.4f] n=%d  %s\n", name, m.Median, m.Unit, m.Min, m.Max, m.N, m.Note)
	}
	for _, name := range sortedKeys(res.EndToEnd) {
		row(name, res.EndToEnd[name])
	}
	layer := ""
	for _, name := range sortedKeys(res.PerLayer) {
		if l, _, _ := strings.Cut(name, "."); l != layer {
			layer = l
			fmt.Fprintf(w, "  -- %s: should move %s\n", layer, layerMoves[layer])
		}
		row(name, res.PerLayer[name])
	}
}

func sortedKeys(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// docTool is -merge and -compare.
func docTool(compare bool, merge string) int {
	args := flag.Args()
	var docs []*resultDoc
	for _, a := range args {
		d, err := readDoc(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		docs = append(docs, d)
	}
	if merge != "" {
		if len(docs) == 0 {
			fmt.Fprintln(os.Stderr, "bench: -merge needs result documents to merge")
			return 2
		}
		if err := writeDoc(merge, mergeDocs(docs)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if len(docs) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs exactly two result documents: base candidate")
		return 2
	}
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	if bad := compareDocs(os.Stdout, sp, docs[0], docs[1]); bad > 0 {
		fmt.Printf("%d row(s) not ok\n", bad)
		return 1
	}
	return 0
}
