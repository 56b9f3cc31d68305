// Command perfbench is the repository's load generator. It builds a
// database from a seed, drives one workload against it for a fixed number
// of seconds, checks every answer, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload oltp_read --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// calls into each layer and reports the per-layer metrics instead.
// BENCHMARK.json lists the workloads and the metrics with their units.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run: what a user of the engine
// sees. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_us", "us"},
	{"recovery_s", "s"},
	{"rss_mb", "MB"},
	{"space_amp", "ratio"},
}

// perLayer are the metrics of the traced run. A layer a workload does not
// reach reads 0.
var perLayer = []metricDef{
	// op_p99_us, write_p50_us and peak_rss_mb did not repeat between
	// runs on a shared 2-CPU host closely enough to bound them end to end.
	{"op_p99_us", "us"},
	{"write_p50_us", "us"},
	{"peak_rss_mb", "MB"},
	{"client.roundtrip_p50_us", "us"},
	{"core.stmt_p50_us", "us"},
	{"server.wire_us", "us"},
	{"server.codec_us", "us"},
	{"server.queue_p50_us", "us"},
	{"server.shed_ratio", "ratio"},
	{"sqlparse.parse_us", "us"},
	{"opt.build_us", "us"},
	{"opt.index_plan_ratio", "ratio"},
	{"opt.plancache_hit_ratio", "ratio"},
	{"opt.visits_per_query", "count"},
	{"exec.drain_us", "us"},
	{"exec.rows_scanned_per_row", "ratio"},
	{"core.unattributed_us", "us"},
	{"btree.search_us", "us"},
	{"table.get_versioned_us", "us"},
	{"txn.version_entries", "count"},
	{"txn.versions_reclaimed_per_op", "count"},
	{"buffer.get_us", "us"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.misses_per_op", "count"},
	{"buffer.evictions_per_op", "count"},
	{"buffer.writebacks_per_op", "count"},
	{"buffer.pool_pages", "count"},
	{"cachegov.polls", "count"},
	{"waits.buffer_read_us_per_op", "us"},
	{"wal.append_us", "us"},
	{"wal.flush_us", "us"},
	{"wal.flushes_per_commit", "ratio"},
	{"wal.commits_per_flush", "ratio"},
	{"wal.bytes_per_commit", "bytes"},
	{"waits.wal_flush_us_per_op", "us"},
	{"lock.acquires_per_op", "count"},
	{"lock.waits_per_op", "count"},
	{"waits.lock_acquire_us_per_op", "us"},
	{"mem.denials_per_query", "count"},
	{"setup.load_s", "s"},
	{"setup.index_s", "s"},
	{"setup.stats_s", "s"},
	{"trace_overhead_pct", "%"},
	{"trace.spans", "count"},
	{"failed_ratio", "ratio"},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
	// corrupt perturbs every expected answer; the self-test uses it to
	// prove that wrong answers are counted as failures.
	corrupt bool
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// bench is the state shared by one run: its directory, its checked
// operation counts, and (with --trace 1) its tracer.
type bench struct {
	cfg       config
	dir       string
	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64
	notes     atomic.Int64
}

// check counts one checked operation, and a failure when ok is false. The
// first few failures are described on standard error.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
		if b.notes.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// want returns the expected value of a checked answer, perturbed when the
// self-test asks for corrupted expectations.
func (b *bench) want(v int64) int64 {
	if b.cfg.corrupt {
		return v + 1
	}
	return v
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The benchmark must end within its time limit even if the engine
	// hangs; a stuck run fails instead of stalling the caller.
	go func() {
		time.Sleep(170 * time.Second)
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s, aborting")
		os.Exit(1)
	}()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	tr := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for databases and traces")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if *seed < 0 {
		return cfg, errors.New("--seed must be non-negative")
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return cfg, errors.New("--seconds must be between 1 and 60")
	}
	if *tr != 0 && *tr != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.seed = uint64(*seed)
	cfg.trace = *tr == 1
	return cfg, nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func run(cfg config) (*result, error) {
	dir := filepath.Join(cfg.workdir, "runs", cfg.workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, dir: dir}
	if cfg.trace {
		b.tr = newTracer()
	}
	vals, err := workloads[cfg.workload](b)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		vals["trace.spans"] = float64(b.tr.count())
		vals["failed_ratio"] = ratio(float64(b.failed.Load()), float64(b.attempted.Load()))
		tdir := filepath.Join(cfg.workdir, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", b.tr.count(), path)
	}
	res := &result{Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	res.Attempted = b.attempted.Load()
	res.Failed = b.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}
