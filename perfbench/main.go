// Command perfbench is ageguardd's benchmark. It boots the daemon
// in-process on a loopback listener with ageguardd's default
// configuration on the paper's 7x7 characterization grid, drives one
// seeded closed-loop workload through the typed client, checks every
// answer, and prints its metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 20 --trace 0
//
// It exits non-zero when an answer fails its checks, when a cold
// workload's first query was not cold or a warm one characterized or
// synthesized, and when it cannot run at all. README.md describes the
// workloads and metrics.
package main

import (
	"compress/gzip"
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

var workloads = map[string]struct {
	run    func(*bench, pass) (*outcome, error)
	setups int  // set-ups before the timed phase of an untraced pass; setup_s is their median
	warm   bool // starts from the prepared disk cache
}{
	"cold-guardband": {(*bench).coldGuardband, 200, false},
	"warm-mix":       {(*bench).warmMix, 5, true},
	"miss-sweep":     {(*bench).missSweep, 5, true},
}

func main() {
	var (
		workload = flag.String("workload", "", "cold-guardband, warm-mix or miss-sweep")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: print the per-layer metrics of a traced run instead")
		prep     = flag.String("prepare", "", "internal: build the prepared disk cache in this directory and exit")
	)
	flag.Parse()
	if *prep != "" {
		if err := prepare(*prep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one invocation and reports whether every check passed.
func run(workload string, seed uint64, dur time.Duration, traced bool) (bool, error) {
	w, found := workloads[workload]
	if !found {
		return false, fmt.Errorf("unknown workload %q (want cold-guardband, warm-mix or miss-sweep)", workload)
	}
	if dur <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return false, fmt.Errorf("run from the repository root: %w", err)
	}
	ref, err := loadReference()
	if err != nil {
		return false, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	b := &bench{root: root, buildDir: buildDir, work: work, seed: seed, ref: ref}
	if w.warm {
		if err := b.prepareRunCache(); err != nil {
			return false, err
		}
	}
	env, err := environment(root, workload, seed)
	if err != nil {
		return false, err
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, seed, dur.Seconds(), traced)

	var metrics map[string]metric
	var u *outcome
	tot := newResults() // every request of every pass, for the failure accounting
	var violations []string
	if !traced {
		if u, err = w.run(b, pass{dur: dur, setups: w.setups}); err != nil {
			return false, err
		}
		metrics = endToEnd(u)
	} else {
		// The traced run measures half the time untraced, for the
		// counters and the untraced wall clock, then repeats exactly the
		// same requests with spans and replays.
		if u, err = w.run(b, pass{dur: dur / 2, setups: min(w.setups, 1)}); err != nil {
			return false, err
		}
		retries := b.retries.n.Load()
		tr := newTracer()
		t, err := w.run(b, pass{limit: u.done, setups: min(w.setups, 1), tr: tr})
		if err != nil {
			return false, err
		}
		metrics = perLayer(u, t, tr, retries)
		reportTrace(workload, seed, u, tr, buildDir, metrics)
		tot.merge(t.res)
		violations = t.violations
	}
	tot.merge(u.res)
	violations = append(violations, u.violations...)

	env.Requests = u.res.count
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	fmt.Print(classFigures(u))
	if !traced {
		fmt.Print(wallFigures(u))
		fmt.Print(workloadFigures(workload, u))
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %16.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, f := range tot.fails {
		fmt.Println("FAILED", f)
	}
	for _, v := range violations {
		fmt.Println("VIOLATION", v)
	}
	correct := tot.failed == 0 && len(violations) == 0
	if correct {
		fmt.Println("answers match reference.json and the run's own repeats. The model has no silicon reference: these checks guard against drift, not against model error.")
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, tot.attempted, tot.failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(last))
	return correct, nil
}

// reportTrace prints the per-layer table of a traced pass and writes
// its spans under the build directory.
func reportTrace(workload string, seed uint64, u *outcome, tr *tracer, buildDir string, m map[string]metric) {
	tb := tr.table()
	fmt.Print(tb.format())
	for _, line := range predictions(workload, m, tb, u) {
		fmt.Println(line)
	}
	var replay time.Duration
	for _, r := range tb.rows {
		if !strings.HasPrefix(r.name, "client.") && !strings.HasPrefix(r.name, "request.") && r.name != "bench.check" {
			replay += r.self
		}
	}
	untraced := u.wall * time.Duration(len(u.done)) // one lane per caller
	over := tb.wall - replay - untraced
	fmt.Printf("untraced wall clock of the same requests = %.6f s; replays = %.6f s; tracing overhead (traced - replays - untraced) = %.6f s (%.2f%%)\n",
		untraced.Seconds(), replay.Seconds(), over.Seconds(), 100*ratio(float64(over), float64(untraced)))
	path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl.gz", workload, seed))
	if err := writeSpansFile(path, tr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	fmt.Printf("spans written to %s\n", path)
}

// writeSpansFile writes the spans gzip-compressed: a traced warm-mix
// run records several hundred thousand.
func writeSpansFile(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := tr.writeSpans(zw); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env is the environment record every result carries.
type env struct {
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPU        string         `json:"cpu"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Requests   map[string]int `json:"requests"`
}

func environment(root, workload string, seed uint64) (*env, error) {
	sum, err := sourceHash(root)
	if err != nil {
		return nil, err
	}
	return &env{
		Commit:     gitCommit(root),
		SourceHash: sum,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Workload:   workload,
		Seed:       seed,
	}, nil
}

// gitCommit reads HEAD from the checkout's .git, if it has one; an
// exported tree has none and is identified by its source hash alone.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// predictions checks where a layer should do no work, or nearly none, on
// the traced workload, and prints the measured value beside each.
func predictions(workload string, m map[string]metric, tb layerTable, u *outcome) []string {
	var out []string
	check := func(what string, holds bool, got float64) {
		verdict := "holds"
		if !holds {
			verdict = "does not hold"
		}
		out = append(out, fmt.Sprintf("prediction: %-58s %s (%g)", what, verdict, got))
	}
	switch workload {
	case "warm-mix", "miss-sweep":
		for _, n := range []string{"spice.transients", "char.libraries", "synth.busy_s"} {
			check(n+" = 0", m[n].Value == 0, m[n].Value)
		}
		n := u.delta["synth.netlists"]
		check("synth.netlists = 0", n == 0, n)
		if workload == "warm-mix" {
			n := "serve.cache_fills"
			check(n+" = 0 (no TopPaths, no MC sampling)", m[n].Value == 0, m[n].Value)
		}
	case "cold-guardband":
		// Serve's share is its in-process handler and encode time; the
		// client's is the round trip minus the handler, measured on the
		// warm repeats, charged to every request.
		var serve time.Duration
		for _, r := range tb.rows {
			if strings.HasPrefix(r.name, "serve.") {
				serve += r.self
			}
		}
		client := time.Duration(m["client.overhead_us.guardband"].Value*float64(u.res.count[kindGuardband])) * time.Microsecond
		share := 100 * ratio(float64(serve+client), float64(tb.wall))
		check("serve and client < 1% of the traced wall clock [%]", share < 1, share)
	}
	return out
}
