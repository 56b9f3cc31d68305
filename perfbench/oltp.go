package main

import (
	"encoding/csv"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/server"
	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

// The OLTP workloads share one table: acct(id, bal, pad), 5,000 rows with
// a unique index on id. About 120 heap pages, so it fits the 256-page
// buffer pool the engine starts with. Keys are Zipf-skewed (theta 0.99).
const (
	acctRows   = 5000
	acctPad    = 80
	histPad    = 24
	zipfTheta  = 0.99
	rangeWidth = 50
	// wireClients is the number of closed-loop client connections. Both
	// workloads are CPU-bound while a `?` predicate scans the whole table
	// (fsync takes about 0.1 ms on the host they were sized on). There,
	// with 2 CPUs, two clients and their two server connections kept both
	// CPUs busy, and throughput swung by a quarter within a run and
	// between runs of one seed; with one client it held within 4%.
	wireClients = 1
	// durableTxns is the number of acknowledged writes between the
	// checkpoint and the crash of the durability step.
	durableTxns = 200
	// sampleEvery is how often the traced window keeps an operation for
	// the embedded replay and the layer probes.
	sampleEvery = 16
)

const (
	sqlPoint    = "SELECT id, bal, pad FROM acct WHERE id = ?"
	sqlRange    = "SELECT COUNT(*), SUM(bal) FROM acct WHERE id BETWEEN ? AND ?"
	sqlBump     = "UPDATE acct SET bal = bal + ? WHERE id = ?"
	sqlHist     = "INSERT INTO hist VALUES (?, ?, ?)"
	sqlBegin    = "BEGIN"
	sqlCommit   = "COMMIT"
	sqlRollback = "ROLLBACK"
)

// oltp is oltp_read (80% point reads, 10% 50-key range counts, 10%
// autocommit balance updates) or, with write set, oltp_write (TPC-B-style
// transfers: two updates in id order, one history insert, commit).
type oltp struct {
	b     *bench
	write bool
	keys  *zipf
	bal0  int64      // initial SUM(bal)
	drng  *rand.Rand // the durability step's key stream

	srv     *server.Server
	workers []*wireWorker

	// Acknowledged writes so far, folded in from the workers after each
	// run: the balance delta of oltp_read's updates and the transfer
	// count of oltp_write.
	ackDelta     int64
	ackTransfers int64
}

func newOLTP(b *bench, write bool) *oltp {
	o := &oltp{b: b, write: write, keys: newZipf(acctRows, zipfTheta, newRNG(b.cfg.seed, 1)), drng: newRNG(b.cfg.seed, 2)}
	for id := 1; id <= acctRows; id++ {
		o.bal0 += initialBal(b.cfg.seed, id)
	}
	return o
}

// initialBal is the opening balance of account id.
func initialBal(seed uint64, id int) int64 { return 1000 + int64(mix(seed, id)%1000) }

func (o *oltp) setups() int { return 3 }

func (o *oltp) crashes() int { return 7 }

func (o *oltp) load(conn *core.Conn, dir string) (phases, error) {
	var p phases
	if _, err := conn.Exec("CREATE TABLE acct (id INT, bal INT, pad VARCHAR(80))"); err != nil {
		return p, err
	}
	if _, err := conn.Exec("CREATE TABLE hist (aid INT, delta INT, pad VARCHAR(24))"); err != nil {
		return p, err
	}
	path := filepath.Join(dir, "acct.csv")
	if err := writeCSV(path, acctRows, func(i int) []string {
		id := i + 1
		return []string{strconv.Itoa(id), strconv.FormatInt(initialBal(o.b.cfg.seed, id), 10), pad(o.b.cfg.seed, id, acctPad)}
	}); err != nil {
		return p, err
	}
	var err error
	if p.load, err = timedExec(conn, "LOAD TABLE acct FROM '"+path+"'"); err != nil {
		return p, err
	}
	if p.index, err = timedExec(conn, "CREATE UNIQUE INDEX acct_id ON acct (id)"); err != nil {
		return p, err
	}
	t, err := timedExec(conn, "CREATE INDEX hist_aid ON hist (aid)")
	if err != nil {
		return p, err
	}
	p.index += t
	if p.stats, err = timedExec(conn, "CREATE STATISTICS acct"); err != nil {
		return p, err
	}
	return p, os.Remove(path)
}

// writeCSV writes n generated records.
func writeCSV(path string, n int, rec func(i int) []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	for i := 0; i < n; i++ {
		if err := w.Write(rec(i)); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durableWrites runs the durability step's writes embedded: autocommit
// updates for oltp_read, transfers for oltp_write.
func (o *oltp) durableWrites(db *core.DB) ([]float64, error) {
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	conn, err := db.Connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	rng := o.drng
	var lat []float64
	for i := 0; i < durableTxns; i++ {
		a, d := o.keys.next(rng), int64(1+rng.IntN(100))
		start := time.Now()
		if !o.write {
			res, err := conn.Exec(sqlBump, val.NewInt(d), val.NewInt(int64(a)))
			if err != nil {
				return nil, err
			}
			lat = append(lat, micros(time.Since(start)))
			if o.b.check(res.RowsAffected == 1, "durable update of %d affected %d rows", a, res.RowsAffected) {
				o.ackDelta += d
			}
			continue
		}
		bk := o.otherKey(rng, a)
		lo, hi, dlo := orderTransfer(a, bk, d)
		stmts := []struct {
			sql    string
			params []val.Value
		}{
			{sqlBegin, nil},
			{sqlBump, []val.Value{val.NewInt(dlo), val.NewInt(int64(lo))}},
			{sqlBump, []val.Value{val.NewInt(-dlo), val.NewInt(int64(hi))}},
			{sqlHist, []val.Value{val.NewInt(int64(a)), val.NewInt(d), val.NewStr(pad(o.b.cfg.seed, a, histPad))}},
			{sqlCommit, nil},
		}
		affected := int64(0)
		for _, st := range stmts {
			res, err := conn.Exec(st.sql, st.params...)
			if err != nil {
				return nil, err
			}
			affected += res.RowsAffected
		}
		lat = append(lat, micros(time.Since(start)))
		o.b.check(affected == 3, "durable transfer %d->%d affected %d rows, want 3", a, bk, affected)
		o.ackTransfers++
	}
	return lat, nil
}

// otherKey draws a transfer's second account, distinct from a.
func (o *oltp) otherKey(rng *rand.Rand, a int) int {
	for {
		if b := o.keys.next(rng); b != a {
			return b
		}
	}
}

// orderTransfer orders a transfer of d from a to b by account id, so that
// concurrent transfers lock rows in one global order and cannot deadlock.
// It returns the lower id, the higher id, and the delta of the lower one.
func orderTransfer(a, b int, d int64) (lo, hi int, dlo int64) {
	if a < b {
		return a, b, -d
	}
	return b, a, d
}

func (o *oltp) verifyDurable(db *core.DB) error { return o.checkTotals(db) }

func (o *oltp) finalCheck(db *core.DB) error { return o.checkTotals(db) }

// checkTotals checks SUM(bal) against the acknowledged writes and, for
// oltp_write, that hist holds one row per acknowledged transfer.
func (o *oltp) checkTotals(db *core.DB) error {
	conn, err := db.Connect()
	if err != nil {
		return err
	}
	defer conn.Close()
	rows, err := conn.Query("SELECT COUNT(*), SUM(bal) FROM acct")
	if err != nil {
		return err
	}
	r := rows.All()
	o.b.check(len(r) == 1 && r[0][0].I == o.b.want(acctRows) && r[0][1].I == o.b.want(o.bal0+o.ackDelta),
		"acct totals %v, want %d rows summing to %d", r, acctRows, o.bal0+o.ackDelta)
	rows, err = conn.Query("SELECT COUNT(*) FROM hist")
	if err != nil {
		return err
	}
	r = rows.All()
	o.b.check(len(r) == 1 && r[0][0].I == o.b.want(o.ackTransfers),
		"hist has %v rows, want one per acknowledged transfer (%d)", r, o.ackTransfers)
	return nil
}

func (o *oltp) serve(db *core.DB) error {
	srv, err := server.Start(db, server.Options{})
	if err != nil {
		return err
	}
	o.srv = srv
	for i := 0; i < wireClients; i++ {
		w, err := o.dial(i)
		if err != nil {
			o.stop()
			return err
		}
		o.workers = append(o.workers, w)
	}
	return nil
}

func (o *oltp) stop() {
	for _, w := range o.workers {
		w.cl.Close()
	}
	o.workers = nil
	if o.srv != nil {
		o.srv.Close()
		o.srv = nil
	}
}

// wireWorker is one closed-loop client connection with its prepared
// statements and its own key stream.
type wireWorker struct {
	o     *oltp
	cl    *client.Client
	stmts map[string]*client.Stmt
	rng   *rand.Rand

	sb       *spanBuf
	win      window
	ackDelta int64
	ackTxns  int64
	nops     int
}

func (o *oltp) dial(i int) (*wireWorker, error) {
	cl, err := client.Dial(o.srv.Addr().String(), client.Options{Name: fmt.Sprintf("perfbench-%d", i)})
	if err != nil {
		return nil, err
	}
	w := &wireWorker{o: o, cl: cl, stmts: map[string]*client.Stmt{}, rng: newRNG(o.b.cfg.seed, uint64(10+i))}
	for _, sql := range []string{sqlPoint, sqlRange, sqlBump, sqlHist, sqlBegin, sqlCommit, sqlRollback} {
		st, err := cl.Prepare(sql)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
		w.stmts[sql] = st
	}
	return w, nil
}

func (o *oltp) run(d time.Duration, traced bool) window {
	var tr *tracer
	if traced {
		tr = o.b.tr
	}
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range o.workers {
		w.win = window{}
		w.sb = nil
		if tr != nil {
			w.sb = tr.buf()
		}
		wg.Add(1)
		go func(w *wireWorker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if o.write {
					w.transfer()
				} else {
					w.readMixOp()
				}
			}
			w.sb.flush()
		}(w)
	}
	wg.Wait()
	win := window{elapsed: time.Since(start)}
	for _, w := range o.workers {
		win.opUS = append(win.opUS, w.win.opUS...)
		win.writeUS = append(win.writeUS, w.win.writeUS...)
		win.selects += w.win.selects
		win.commits += w.win.commits
		win.samples = append(win.samples, w.win.samples...)
		o.ackDelta += w.ackDelta
		o.ackTransfers += w.ackTxns
		w.ackDelta, w.ackTxns = 0, 0
	}
	return win
}

// call sends one prepared statement and records its round trip.
func (w *wireWorker) call(sql string, params []val.Value, query bool, parent, req int64, calls *[]stmtCall) (*client.Rows, client.Result, float64, error) {
	st := w.stmts[sql]
	start := time.Now()
	var rows *client.Rows
	var res client.Result
	var err error
	if query {
		rows, err = st.Query(params...)
	} else {
		res, err = st.Exec(params...)
	}
	end := time.Now()
	w.sb.add("client.roundtrip", parent, req, start, end)
	us := micros(end.Sub(start))
	if calls != nil {
		*calls = append(*calls, stmtCall{sql: sql, params: params, query: query, us: us, req: req})
	}
	return rows, res, us, err
}

// sampling reports whether the current operation is kept for the layer
// probes (traced windows only).
func (w *wireWorker) sampling() *[]stmtCall {
	w.nops++
	if w.sb == nil || w.nops%sampleEvery != 0 {
		return nil
	}
	return &[]stmtCall{}
}

func (w *wireWorker) keep(calls *[]stmtCall) {
	if calls != nil {
		w.win.samples = append(w.win.samples, *calls)
	}
}

// readMixOp runs one oltp_read operation and checks its answer.
func (w *wireWorker) readMixOp() {
	b := w.o.b
	seed := b.cfg.seed
	req := w.sb.newReq()
	calls := w.sampling()
	key := w.o.keys.next(w.rng)
	switch p := w.rng.IntN(10); {
	case p < 8:
		rows, _, us, err := w.call(sqlPoint, []val.Value{val.NewInt(int64(key))}, true, 0, req, calls)
		ok := err == nil && len(rows.Data) == 1 && len(rows.Data[0]) == 3 &&
			rows.Data[0][0].I == b.want(int64(key)) && rows.Data[0][2].S == pad(seed, key, acctPad)
		if b.check(ok, "point read of id %d: %v %v", key, rows, err) {
			w.win.opUS = append(w.win.opUS, us)
			w.win.selects++
		}
	case p < 9:
		lo := min(key, acctRows-rangeWidth+1)
		rows, _, us, err := w.call(sqlRange, []val.Value{val.NewInt(int64(lo)), val.NewInt(int64(lo + rangeWidth - 1))}, true, 0, req, calls)
		ok := err == nil && len(rows.Data) == 1 && rows.Data[0][0].I == b.want(rangeWidth)
		if b.check(ok, "range count from id %d: %v %v", lo, rows, err) {
			w.win.opUS = append(w.win.opUS, us)
			w.win.selects++
		}
	default:
		d := int64(1 + w.rng.IntN(100))
		_, res, us, err := w.call(sqlBump, []val.Value{val.NewInt(d), val.NewInt(int64(key))}, false, 0, req, calls)
		if b.check(err == nil && res.RowsAffected == b.want(1), "update of id %d: %d rows, %v", key, res.RowsAffected, err) {
			w.win.opUS = append(w.win.opUS, us)
			w.win.writeUS = append(w.win.writeUS, us)
			w.win.commits++
			w.ackDelta += d
		}
	}
	w.keep(calls)
}

// transfer runs one oltp_write transaction; a failed statement rolls it
// back and counts as a failed operation.
func (w *wireWorker) transfer() {
	b := w.o.b
	req := w.sb.newReq()
	root := w.sb.reserve()
	calls := w.sampling()
	a := w.o.keys.next(w.rng)
	bk := w.o.otherKey(w.rng, a)
	d := int64(1 + w.rng.IntN(100))
	lo, hi, dlo := orderTransfer(a, bk, d)
	start := time.Now()
	fail := func(what string, err error) {
		b.check(false, "transfer %d->%d: %s: %v", a, bk, what, err)
		if _, _, _, rerr := w.call(sqlRollback, nil, false, root, req, nil); rerr != nil {
			b.check(false, "rollback: %v", rerr)
		}
	}
	if _, _, _, err := w.call(sqlBegin, nil, false, root, req, calls); err != nil {
		b.check(false, "begin: %v", err)
		return
	}
	for _, u := range []struct {
		id    int
		delta int64
	}{{lo, dlo}, {hi, -dlo}} {
		_, res, us, err := w.call(sqlBump, []val.Value{val.NewInt(u.delta), val.NewInt(int64(u.id))}, false, root, req, calls)
		if err != nil || res.RowsAffected != b.want(1) {
			fail(fmt.Sprintf("update of id %d affected %d rows", u.id, res.RowsAffected), err)
			return
		}
		w.win.writeUS = append(w.win.writeUS, us)
	}
	_, res, us, err := w.call(sqlHist, []val.Value{val.NewInt(int64(a)), val.NewInt(d), val.NewStr(pad(b.cfg.seed, a, histPad))}, false, root, req, calls)
	if err != nil || res.RowsAffected != 1 {
		fail("history insert", err)
		return
	}
	w.win.writeUS = append(w.win.writeUS, us)
	if _, _, _, err := w.call(sqlCommit, nil, false, root, req, calls); err != nil {
		b.check(false, "commit of transfer %d->%d: %v", a, bk, err)
		return
	}
	end := time.Now()
	w.sb.addWithID(root, "oltp.transfer", 0, req, start, end)
	b.check(true, "")
	w.win.opUS = append(w.win.opUS, micros(end.Sub(start)))
	w.win.commits++
	w.ackTxns++
	w.keep(calls)
}
