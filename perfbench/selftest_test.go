package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The self-test runs every workload briefly, twice: once traced, once
// untraced with corrupted expected answers. It fails when a metric named
// in BENCHMARK.json is missing or has another unit, when the traced run
// recorded no spans for a probed layer, or when a wrong answer is not
// counted as a failure. Run it from this directory with
//
//	go test -timeout 15m .
//
// It builds the real databases, so it takes a few minutes.

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// spanNames reads the names of the spans in a trace file.
func spanNames(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		names[s.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}

func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			if _, ok := workloads[wl.Name]; !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %s", wl.Name)
			}
			workdir := t.TempDir()

			traced, err := run(config{workload: wl.Name, seed: 7, seconds: 2, trace: true, workdir: workdir})
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d of %d", traced.Correct, traced.Failed, traced.Attempted)
			}
			for _, m := range bf.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			names := spanNames(t, filepath.Join(workdir, "traces", wl.Name+"-seed7.jsonl"))
			layers := []string{"core.stmt", "sqlparse.parse", "btree.search", "table.get_versioned", "buffer.get", "wal.append", "wal.flush"}
			if wl.Name != "scan_large" {
				layers = append(layers, "client.roundtrip", "server.codec")
			}
			if wl.Name != "oltp_write" {
				layers = append(layers, "opt.build", "exec.drain")
			}
			for _, l := range layers {
				if names[l] == 0 {
					t.Errorf("traced run recorded no %s spans (got %v)", l, names)
				}
			}

			// Every expected answer off by one: each checked operation
			// must fail, and the run must not read as correct.
			bad, err := run(config{workload: wl.Name, seed: 7, seconds: 1, workdir: workdir, corrupt: true})
			if err != nil {
				t.Fatal(err)
			}
			if bad.Correct || bad.Failed == 0 {
				t.Errorf("corrupted expectations: correct=%v failed=%d of %d; wrong answers were not counted", bad.Correct, bad.Failed, bad.Attempted)
			}
			for _, m := range bf.EndToEnd {
				got, ok := bad.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}
