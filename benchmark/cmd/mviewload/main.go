// Command mviewload is the mview benchmark: it builds cmd/mviewd,
// runs it as a child process, drives it over HTTP with generated
// traffic, checks every output, and prints end-to-end or per-layer
// metrics. See benchmark/README.md.
//
//	mviewload run [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	mviewload aa  [-n K] [-seed N] [-seconds S]
//
// `run -workload W` is the form BENCHMARK.json names: one workload,
// one mode, and the result as one JSON object on the last line of
// standard output. Without -workload, `run` makes the whole ledger:
// every workload, end to end and per layer, printed as
// `workload metric value unit` and written to benchmark/out/.
// `aa` runs the end-to-end suite K times over K seeds and prints each
// metric's spread against its bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"mview/benchmark/harness"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: mviewload run|aa [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "workload to run (default: all, as a ledger)")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 24, "measured seconds per run (half open loop, half closed loop)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (traced pass, probes)")
		n        = fs.Int("n", 5, "aa: how many times to run the suite")
	)
	_ = fs.Parse(os.Args[2:])

	code, err := func() (int, error) {
		dir, err := findRoot()
		if err != nil {
			return 1, err
		}
		env, err := harness.NewEnv(dir)
		if err != nil {
			return 1, err
		}
		defer env.Close()
		// Ctrl-C must not leave daemons or data directories behind: the
		// deferred Close cannot run while a phase is blocked on a daemon,
		// so the signal closes the environment itself.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			cancel()
			env.Close()
			os.Exit(130)
		}()
		runner, err := harness.NewRunner(harness.ProcessDeployer(env))
		if err != nil {
			return 1, err
		}
		b := &bench{env: env, runner: runner, seconds: *seconds, out: filepath.Join(dir, "benchmark", "out")}
		switch os.Args[1] {
		case "run":
			if *workload != "" {
				return b.single(ctx, *workload, *seed, *trace != 0)
			}
			return b.ledger(ctx, *seed)
		case "aa":
			return b.aa(ctx, *seed, *n)
		}
		return 2, fmt.Errorf("unknown command %q (want run or aa)", os.Args[1])
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mviewload:", err)
	}
	os.Exit(code)
}

// findRoot locates the repository: the directory holding
// BENCHMARK.json and cmd/mviewd, at or above the working directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = up
	}
}

type bench struct {
	env     *harness.Env
	runner  *harness.Runner
	seconds float64
	out     string
}

func (b *bench) run(ctx context.Context, workload string, seed int64, trace bool) (*harness.Result, error) {
	return b.runner.Run(ctx, harness.Options{
		Workload: workload, Seed: seed, Seconds: b.seconds, Trace: trace,
		TraceDir: b.out, Scratch: b.env.Tmp(), Log: os.Stdout,
	})
}

// header says what the numbers were measured on.
func (b *bench) header(seed int64) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = b.env.Root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	h := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"clients": b.runner.Clients, "kernel": strings.TrimSpace(string(kernel)),
		"seed": seed, "seconds": b.seconds, "commit": commit,
	}
	fmt.Printf("# mviewload go=%v nproc=%v gomaxprocs=%v clients<=%v kernel=%v seed=%v seconds=%v commit=%v\n",
		h["go"], h["nproc"], h["gomaxprocs"], h["clients"], h["kernel"], h["seed"], h["seconds"], h["commit"])
	return h
}

func printResult(res *harness.Result) {
	for _, note := range res.Notes {
		fmt.Printf("# %s: %s\n", res.Workload, note)
	}
	for _, m := range res.Metrics {
		fmt.Printf("%s %s %.6g %s (n=%d)\n", res.Workload, m.Name, m.Value, m.Unit, m.Samples)
	}
}

// single is the BENCHMARK.json form: one workload, one mode, and the
// result as the last line of standard output.
func (b *bench) single(ctx context.Context, workload string, seed int64, trace bool) (int, error) {
	b.header(seed)
	res, err := b.run(ctx, workload, seed, trace)
	if err != nil {
		return 1, err
	}
	printResult(res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, errors.New("the run failed its checks (see the notes above)")
	}
	return 0, nil
}

// ledger runs every workload in both modes and writes one JSON file.
func (b *bench) ledger(ctx context.Context, seed int64) (int, error) {
	h := b.header(seed)
	var all []*harness.Result
	code := 0
	for _, w := range harness.WorkloadNames {
		for _, trace := range []bool{false, true} {
			res, err := b.run(ctx, w, seed, trace)
			if err != nil {
				return 1, err
			}
			printResult(res)
			if !res.Correct {
				code = 1
			}
			all = append(all, res)
		}
	}
	raw, err := json.MarshalIndent(map[string]any{"host": h, "results": all, "claim": nil}, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return 1, err
	}
	path := filepath.Join(b.out, fmt.Sprintf("ledger-seed%d.json", seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return 1, err
	}
	fmt.Println("# wrote", path)
	return code, nil
}

// aa runs the end-to-end suite k times, each on another seed, and
// reports every metric's spread the way the driver measures it: the
// distance between the first and third quartile as a share of the
// median, which must stay within the metric's bound.
func (b *bench) aa(ctx context.Context, seed int64, k int) (int, error) {
	b.header(seed)
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	for i := 0; i < k; i++ {
		for _, w := range harness.WorkloadNames {
			res, err := b.run(ctx, w, seed+int64(i), false)
			if err != nil {
				return 1, err
			}
			if !res.Correct {
				printResult(res)
				return 1, fmt.Errorf("%s seed %d failed its checks", w, seed+int64(i))
			}
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			fmt.Printf("%s seed=%d", w, seed+int64(i))
			for _, m := range res.Metrics {
				values[w][m.Name] = append(values[w][m.Name], m.Value)
				fmt.Printf(" %s=%.6g", m.Name, m.Value)
			}
			fmt.Println()
		}
	}
	code := 0
	fmt.Printf("%-14s %-22s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "maxdev", "bound")
	for _, w := range harness.WorkloadNames {
		for _, spec := range b.runner.Spec.EndToEnd {
			s := harness.Summarise(values[w][spec.Name])
			verdict := ""
			if s.Spread > spec.Bound && spec.Name != "setup_s" {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-14s %-22s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s\n",
				w, spec.Name, s.Median, s.Q1, s.Q3, s.Spread, s.MaxDev, spec.Bound, verdict)
		}
	}
	return code, nil
}
