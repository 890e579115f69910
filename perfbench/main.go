// Command perfbench is the repository benchmark: it drives each named
// workload from one seeded generator process against servers running in
// separate processes over real loopback sockets, checks every reply,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics and a cost ledger) as one JSON object on the last line of
// standard output.
//
// Run it through run.sh from the repository root, which builds the
// servers and this program first:
//
//	bash perfbench/run.sh --workload service-tickets --seed 7 --seconds 10 --trace 0
//	bash perfbench/run.sh --selftest
//
// The program is Linux-only: it reads /proc for server CPU, memory,
// context switches and run-queue waits, and paces the open loop with
// nanosleep on a thread whose timer slack is 1 ns.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings to the workloads.
type bench struct {
	root    string // repository checkout
	out     string // root/.bench_build: fixtures, traces
	seed    int64
	seconds int
	trace   bool
	scale   float64 // offered-rate multiplier; below 1 for the self-test
	source  string  // digest of the checkout's Go sources
	env     map[string]any
}

// benchWorkload is one traffic mix. run returns the end-to-end metrics, or
// the per-layer metrics when b.trace is set.
type benchWorkload struct {
	name string
	why  string
	run  func(b *bench) (*result, error)
}

var workloads = []benchWorkload{
	{"login-storm", "the morning login burst: each AS request names a cold principal of a 1M-principal sharded KDB4 realm",
		runLoginStorm},
	{"service-tickets", "steady state: 5,000 users with TGTs ask for tickets to 65 services, Zipf-popular (exponent 1.01, assumed); replay check and 4-5 DES ops per request",
		runServiceTickets},
	{"nfs-a1-perop", "appendix A1, rejected design: Kerberos authentication on every NFS operation; 1 KiB read, 1 KiB write, 8 KiB read in equal shares (assumed)",
		runNFSPerOp},
	{"nfs-a1-mapped", "appendix A1, shipped design: Kerberos at mount time, then a kernel credential map; same NFS mix",
		runNFSMapped},
}

func main() {
	if len(os.Args) > 1 && strings.HasPrefix(os.Args[1], "serve-") {
		if err := serveRole(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
			os.Exit(1)
		}
		return
	}
	var (
		root     = flag.String("root", ".", "repository checkout to benchmark")
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measurement time")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		selftest = flag.Bool("selftest", false, "short low-rate pass of every workload, checking metric names, units and failures")
	)
	flag.Parse()
	b := &bench{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1}
	b.out = filepath.Join(b.root, ".bench_build")
	b.source = sourceDigest(b.root)
	if *selftest {
		if err := selfTest(b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench selftest: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if b.seconds < 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 2")
		os.Exit(2)
	}
	res, err := runWorkload(b, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// runWorkload stamps the environment, runs w and prints the stamp on
// standard output ahead of the result line.
func runWorkload(b *bench, w benchWorkload) (*result, error) {
	b.env = envStamp(b, w)
	res, err := w.run(b)
	if err != nil {
		return nil, err
	}
	stamp, _ := json.Marshal(map[string]any{"env": b.env})
	fmt.Println(string(stamp))
	return res, nil
}

// envStamp records what produced a result. The checkout is usually not
// a git repository, so the source is identified by a digest of its Go
// files as well as the commit when one is available.
func envStamp(b *bench, w benchWorkload) map[string]any {
	env := map[string]any{
		"workload":          w.name,
		"seed":              b.seed,
		"seconds":           b.seconds,
		"trace":             b.trace,
		"go_version":        runtime.Version(),
		"goos":              runtime.GOOS,
		"goarch":            runtime.GOARCH,
		"nproc":             runtime.NumCPU(),
		"gen_gomaxprocs":    runtime.GOMAXPROCS(0),
		"server_gomaxprocs": serverProcs(),
		"cpu_model":         cpuModel(),
		"source_sha256":     b.source,
	}
	if out, err := exec.Command("git", "-C", b.root, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout
// (paths and contents, in sorted order), skipping build output.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// selfTest runs every workload briefly at a quarter of its offered
// rate, traced and untraced, and checks each result against the metric
// list in BENCHMARK.json: every declared metric present with its unit,
// nothing undeclared, no failed operation.
func selfTest(b *bench) error {
	data, err := os.ReadFile(filepath.Join(b.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	var problems []string
	for _, ws := range spec.Workloads {
		w, ok := findWorkload(ws.Name)
		if !ok {
			problems = append(problems, fmt.Sprintf("BENCHMARK.json names unknown workload %s", ws.Name))
			continue
		}
		for _, traced := range []bool{false, true} {
			run := *b
			run.seconds, run.trace, run.scale = 2, traced, 0.25
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			fmt.Fprintf(os.Stderr, "selftest: %s trace=%v\n", w.name, traced)
			res, err := runWorkload(&run, w)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s trace=%v: %v", w.name, traced, err))
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				problems = append(problems, fmt.Sprintf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed))
			}
			seen := map[string]bool{}
			for _, m := range want {
				seen[m.Name] = true
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s missing", w.name, traced, m.Name))
				case got.Unit != m.Unit:
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit))
				case got.Value == 0:
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s is 0", w.name, traced, m.Name))
				}
			}
			for name := range res.Metrics {
				if !seen[name] {
					problems = append(problems, fmt.Sprintf("%s trace=%v: undeclared metric %s", w.name, traced, name))
				}
			}
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "\n"))
	}
	fmt.Fprintln(os.Stderr, "selftest: ok")
	return nil
}
