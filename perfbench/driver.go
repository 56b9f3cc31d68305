package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/val"
)

// workloads maps each --workload name to its run.
var workloads = map[string]func(b *bench) (map[string]float64, error){
	"oltp_read":  func(b *bench) (map[string]float64, error) { return drive(b, newOLTP(b, false)) },
	"oltp_write": func(b *bench) (map[string]float64, error) { return drive(b, newOLTP(b, true)) },
	"scan_large": func(b *bench) (map[string]float64, error) { return drive(b, newScan(b)) },
}

// workload is one traffic mix. drive calls its methods in this order:
// load (once per set-up), durableWrites and verifyDurable (around each
// crash), serve, run (warm-up, then the timed window), finalCheck, target
// (traced run only), stop.
type workload interface {
	// setups is how many times the database is built; setup_s is the
	// median.
	setups() int
	// crashes is how many rounds the durability step makes; recovery_s
	// is the median.
	crashes() int
	// load creates and fills the tables through conn; the files it needs
	// go in dir.
	load(conn *core.Conn, dir string) (phases, error)
	// durableWrites makes the durability step's acknowledged writes and
	// returns their latencies in µs.
	durableWrites(db *core.DB) ([]float64, error)
	// verifyDurable checks that every acknowledged write survived the
	// crash.
	verifyDurable(db *core.DB) error
	// serve starts the workload's clients against db.
	serve(db *core.DB) error
	// run drives the closed loop for d.
	run(d time.Duration, traced bool) window
	// finalCheck verifies the end-of-run invariants.
	finalCheck(db *core.DB) error
	// target names the table, index and key stream the layer probes use.
	target() probeTarget
	stop()
}

// phases are the timed set-up steps.
type phases struct{ load, index, stats float64 }

// stmtCall is one statement an operation sent, with its measured latency:
// the wire round trip for the server workloads, the embedded call for the
// embedded one. req is the traced request it belongs to; the layer probes
// of the statement record their spans under it.
type stmtCall struct {
	sql    string
	params []val.Value
	query  bool
	us     float64
	req    int64
}

// window is what one timed run of the closed loop produced.
type window struct {
	elapsed time.Duration
	opUS    []float64 // latency of each completed operation
	writeUS []float64 // latency of each write statement
	selects int       // SELECT statements completed
	commits int       // write transactions acknowledged
	samples [][]stmtCall
}

func (w window) opsPerS() float64 { return ratio(float64(len(w.opUS)), w.elapsed.Seconds()) }

// merge appends another run's results.
func (w window) merge(o window) window {
	w.elapsed += o.elapsed
	w.opUS = append(w.opUS, o.opUS...)
	w.writeUS = append(w.writeUS, o.writeUS...)
	w.selects += o.selects
	w.commits += o.commits
	w.samples = append(w.samples, o.samples...)
	return w
}

// warmup is the closed-loop run before timing starts: it fills the
// buffer pool and trains the plan caches.
const warmup = 2 * time.Second

func drive(b *bench, w workload) (map[string]float64, error) {
	out := map[string]float64{}

	// Set-up: generate, load, index, CREATE STATISTICS, checkpoint. The
	// checkpoint is part of set-up because DDL becomes durable only
	// through one.
	var db *core.DB
	var dbDir string
	var totals, loads, indexes, stats []float64
	for i := 0; i < w.setups(); i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dbDir); err != nil {
				return nil, err
			}
		}
		// Collect the previous database's garbage before timing the
		// next: a user builds one database, so setup_s should not carry
		// the heap of an earlier one.
		runtime.GC()
		dbDir = filepath.Join(b.dir, fmt.Sprintf("db%d", i))
		start := time.Now()
		var p phases
		var err error
		db, p, err = setupDB(w, dbDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, time.Since(start).Seconds())
		loads, indexes, stats = append(loads, p.load), append(indexes, p.index), append(stats, p.stats)
	}
	for _, name := range db.Catalog().TableNames() {
		if t, ok := db.Table(name); ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d rows, %d heap pages; buffer pool %d pages\n",
				name, t.RowCount(), t.PageCount(), db.Pool().SizePages())
		}
	}
	out["setup_s"] = median(totals)
	out["setup.load_s"] = median(loads)
	out["setup.index_s"] = median(indexes)
	out["setup.stats_s"] = median(stats)

	// Durability step, repeated; recovery_s is the median. Each round makes
	// acknowledged writes on top of a checkpoint, crashes, times the reopen
	// and checks the writes survived. It runs before the timed window so
	// the log it replays, and the tables recovery re-indexes, are the same
	// size in every run.
	var writeUS, recovery []float64
	for i := 0; i < w.crashes(); i++ {
		lat, err := w.durableWrites(db)
		if err != nil {
			return nil, fmt.Errorf("durability step: %w", err)
		}
		writeUS = append(writeUS, lat...)
		db.Crash()
		// As between set-ups: the reopen is timed without the crashed
		// instance's garbage.
		runtime.GC()
		start := time.Now()
		db, err = core.Open(core.Options{Dir: dbDir})
		if err != nil {
			return nil, fmt.Errorf("reopen after crash: %w", err)
		}
		recovery = append(recovery, time.Since(start).Seconds())
		if err := w.verifyDurable(db); err != nil {
			db.Close()
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.3f s, recoveries %.3f s\n", totals, recovery)
	out["recovery_s"] = median(recovery)
	defer db.Close()

	if err := w.serve(db); err != nil {
		return nil, err
	}
	defer w.stop()
	w.run(warmup, false)

	var win window
	if b.cfg.trace {
		// Alternate half-second untraced and traced slices: the gap in
		// throughput between the two halves is the tracing cost, and
		// interleaving keeps drift over the window out of it.
		var plain window
		sum := newCounters()
		var last counters
		for i := 0; i < 2*b.cfg.seconds; i++ {
			if i%2 == 0 {
				plain = plain.merge(w.run(time.Second/2, false))
				continue
			}
			base := readCounters(db)
			win = win.merge(w.run(time.Second/2, true))
			last = readCounters(db)
			sum.addDelta(base, last)
		}
		out["trace_overhead_pct"] = 100 * ratio(plain.opsPerS()-win.opsPerS(), plain.opsPerS())
		out["op_p99_us"] = quantile(plain.opUS, 0.99)
		if len(plain.writeUS) > 0 {
			// scan_large has no writes in its window; it reports the
			// durability step's inserts instead.
			writeUS = plain.writeUS
		}
		out["write_p50_us"] = median(writeUS)
		for k, v := range counterMetrics(sum, last, win) {
			out[k] = v
		}
	} else {
		// One-second slices, each metric the median over the slices: a
		// stall of the shared host that spans a few slices moves it little.
		// The resident set is sampled at the end of each slice. Its peak
		// (VmHWM, per-layer) is one garbage-collector overshoot: it swung
		// between 19 and 24 MB over runs of one seed, the median by 3%.
		var rates, p50s, rss []float64
		for i := 0; i < b.cfg.seconds; i++ {
			part := w.run(time.Second, false)
			rates = append(rates, part.opsPerS())
			p50s = append(p50s, median(part.opUS))
			rss = append(rss, statusMB("VmRSS"))
		}
		out["ops_per_s"] = median(rates)
		out["op_p50_us"] = median(p50s)
		out["rss_mb"] = median(rss)
	}
	if err := w.finalCheck(db); err != nil {
		return nil, err
	}

	if b.cfg.trace {
		pm, err := probeLayers(b, db, w, win)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range pm {
			out[k] = v
		}
	}
	w.stop()

	// Space: directory bytes after a final checkpoint over the bytes of
	// the live rows.
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	disk, err := dirBytes(dbDir)
	if err != nil {
		return nil, err
	}
	user, err := userBytes(db)
	if err != nil {
		return nil, err
	}
	out["space_amp"] = ratio(float64(disk), float64(user))
	out["peak_rss_mb"] = statusMB("VmHWM")
	return out, nil
}

// setupDB builds one database in dir and ends with a checkpoint.
func setupDB(w workload, dir string) (*core.DB, phases, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, phases{}, err
	}
	db, err := core.Open(core.Options{Dir: dir})
	if err != nil {
		return nil, phases{}, err
	}
	conn, err := db.Connect()
	if err != nil {
		db.Close()
		return nil, phases{}, err
	}
	p, err := w.load(conn, dir)
	if err == nil {
		err = conn.Close()
	}
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		db.Close()
		return nil, phases{}, err
	}
	return db, p, nil
}

// timedExec runs one set-up statement and returns its seconds.
func timedExec(conn *core.Conn, sql string) (float64, error) {
	start := time.Now()
	if _, err := conn.Exec(sql); err != nil {
		return 0, fmt.Errorf("%s: %w", sql, err)
	}
	return time.Since(start).Seconds(), nil
}

// counterMetrics turns the engine's counter deltas summed over the traced
// slices (d) into per-operation ratios; gauges come from the last reading.
func counterMetrics(d, last counters, win window) map[string]float64 {
	ops := float64(len(win.opUS))
	c := func(name string) float64 { return float64(d.reg[name]) }
	hits, misses := c("buffer.hits"), c("buffer.misses")
	pcHits, pcMisses := c("opt.plancache.hits"), c("opt.plancache.misses")
	flushes := c("wal.flushes")
	commits := float64(win.commits)
	return map[string]float64{
		"server.queue_p50_us":           d.queueP50(),
		"server.shed_ratio":             ratio(c("server.shed"), c("server.statements")),
		"opt.plancache_hit_ratio":       ratio(pcHits, pcHits+pcMisses),
		"opt.visits_per_query":          ratio(c("opt.visits"), float64(win.selects)),
		"exec.rows_scanned_per_row":     ratio(float64(d.scanRows), c("exec.rows_returned")),
		"txn.version_entries":           float64(last.reg["txn.version_entries"]),
		"txn.versions_reclaimed_per_op": ratio(c("txn.versions_reclaimed"), ops),
		"buffer.hit_ratio":              ratio(hits, hits+misses),
		"buffer.misses_per_op":          ratio(misses, ops),
		"buffer.evictions_per_op":       ratio(c("buffer.evictions"), ops),
		"buffer.writebacks_per_op":      ratio(c("buffer.writebacks"), ops),
		"buffer.pool_pages":             float64(last.reg["buffer.pool_pages"]),
		"cachegov.polls":                c("cachegov.polls"),
		"waits.buffer_read_us_per_op":   ratio(float64(d.waitUS["buffer.read"]), ops),
		"wal.flushes_per_commit":        ratio(flushes, commits),
		"wal.commits_per_flush":         ratio(commits, flushes),
		"wal.bytes_per_commit":          ratio(c("wal.bytes_appended"), commits),
		"waits.wal_flush_us_per_op":     ratio(float64(d.waitUS["wal.flush"]), ops),
		"lock.acquires_per_op":          ratio(c("lock.acquires"), ops),
		"lock.waits_per_op":             ratio(c("lock.waits"), ops),
		"waits.lock_acquire_us_per_op":  ratio(float64(d.waitUS["lock.acquire"]), ops),
		"mem.denials_per_query":         ratio(c("mem.denials"), float64(win.selects)),
	}
}

// userBytes sums the encoded size of every live row of every table.
func userBytes(db *core.DB) (int64, error) {
	conn, err := db.Connect()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var n int64
	for _, name := range db.Catalog().TableNames() {
		rows, err := conn.Query("SELECT * FROM " + name)
		if err != nil {
			return 0, err
		}
		for _, r := range rows.All() {
			n += int64(len(val.EncodeRow(r)))
		}
	}
	return n, nil
}
