package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"strings"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/exec"
	"anywheredb/internal/opt"
	"anywheredb/internal/server"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/store"
	"anywheredb/internal/table"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// probeTarget names what the storage-layer probes read: the workload's
// main table, its index, and a generator of that index's keys drawn like
// the workload draws them.
type probeTarget struct {
	table string
	index string
	key   func(*rand.Rand) int64
}

// probeCalls is how many calls each storage-layer probe times.
const probeCalls = 2000

// probeLayers times each layer's exported functions on the workload's own
// statements and keys, after the traced window. Spans go to the run's
// tracer; the returned map holds the per-layer metrics.
func probeLayers(b *bench, db *core.DB, w workload, win window) (map[string]float64, error) {
	out := map[string]float64{}
	tg := w.target()
	sb := b.tr.buf()
	defer sb.flush()

	// Embedded statement time. The wire workloads replay their sampled
	// operations on an embedded connection, so the wire's share is the
	// round trip minus the embedded call on the same statement.
	var calls []stmtCall
	for _, s := range win.samples {
		calls = append(calls, s...)
	}
	stmtUS := make([]float64, len(calls))
	if o, ok := w.(*oltp); ok {
		conn, err := db.Connect()
		if err != nil {
			return nil, err
		}
		var wire []float64
		for i, c := range calls {
			start := time.Now()
			var err error
			if c.query {
				_, err = conn.Query(c.sql, c.params...)
			} else {
				_, err = conn.Exec(c.sql, c.params...)
			}
			end := time.Now()
			sb.add("core.stmt", 0, c.req, start, end)
			b.check(err == nil, "embedded replay of %q: %v", c.sql, err)
			stmtUS[i] = micros(end.Sub(start))
			wire = append(wire, c.us-stmtUS[i])
		}
		conn.Close()
		out["core.stmt_p50_us"] = median(stmtUS)
		out["client.roundtrip_p50_us"] = median(b.tr.byName("client.roundtrip"))
		out["server.wire_us"] = median(wire)
		m, err := o.wireProbe(win)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	} else {
		for i, c := range calls {
			stmtUS[i] = c.us
		}
		out["core.stmt_p50_us"] = median(b.tr.byName("core.stmt"))
		out["client.roundtrip_p50_us"] = 0
		out["server.wire_us"] = 0
		out["server.codec_us"] = 0
	}

	// Parse, plan and drain each sampled statement outside core.Conn.
	var parseUS, buildUS, drainUS, unattributed []float64
	indexed := 0
	for i, c := range calls {
		req := c.req
		root := sb.reserve()
		t0 := time.Now()
		stmt, err := sqlparse.Parse(c.sql)
		t1 := time.Now()
		sb.add("sqlparse.parse", root, req, t0, t1)
		if !b.check(err == nil, "parse %q: %v", c.sql, err) {
			continue
		}
		parseUS = append(parseUS, micros(t1.Sub(t0)))
		sel, ok := stmt.(*sqlparse.Select)
		if !ok {
			sb.addWithID(root, "probe.statement", 0, req, t0, t1)
			continue
		}
		build, drain, hasIndex, err := buildAndDrain(db, sel, c.params, sb, root, req)
		sb.addWithID(root, "probe.statement", 0, req, t0, time.Now())
		if !b.check(err == nil, "plan and drain %q: %v", c.sql, err) {
			continue
		}
		buildUS = append(buildUS, build)
		drainUS = append(drainUS, drain)
		if hasIndex {
			indexed++
		}
		unattributed = append(unattributed, stmtUS[i]-(micros(t1.Sub(t0))+build+drain))
	}
	out["sqlparse.parse_us"] = median(parseUS)
	out["opt.build_us"] = median(buildUS)
	out["exec.drain_us"] = median(drainUS)
	out["opt.index_plan_ratio"] = ratio(float64(indexed), float64(len(buildUS)))
	out["core.unattributed_us"] = median(unattributed)

	tbl, ok := db.Table(tg.table)
	if !ok {
		return nil, fmt.Errorf("table %s missing", tg.table)
	}
	ix := tbl.IndexByName(tg.index)
	if ix == nil {
		return nil, fmt.Errorf("index %s missing", tg.index)
	}
	var err error
	if out["btree.search_us"], out["table.get_versioned_us"], err = probeIndexAndRows(b, db, tbl, ix, tg, sb); err != nil {
		return nil, err
	}
	if out["buffer.get_us"], err = probeBuffer(db, tbl, sb); err != nil {
		return nil, err
	}
	if out["wal.append_us"], out["wal.flush_us"], err = probeWAL(b, tbl, sb); err != nil {
		return nil, err
	}
	return out, nil
}

// buildAndDrain plans sel with opt.BuildSelect and runs the plan with
// exec.Drain under a fresh snapshot, the way core.Conn runs a query. It
// reports both times in µs and whether the plan reads through an index.
func buildAndDrain(db *core.DB, sel *sqlparse.Select, params []val.Value, sb *spanBuf, parent, req int64) (build, drain float64, hasIndex bool, err error) {
	snap := db.TxnManager().AcquireSnapshot(0)
	defer db.TxnManager().ReleaseSnapshot(snap)
	task := db.MemGovernor().Begin()
	defer task.Finish()
	ctx := &exec.Ctx{Pool: db.Pool(), St: db.Store(), Clk: db.Clock(), Task: task, Snap: snap,
		Context: context.Background(), Workers: 1}
	pool := db.Pool()
	env := &opt.Env{
		DTT:            db.DTTModel(),
		PoolPages:      pool.SizePages,
		SoftLimitPages: func() int { return pool.SizePages() / db.MemGovernor().MPL() },
		Property:       db.Telemetry().Value,
	}
	t0 := time.Now()
	plan, err := opt.BuildSelect(sel, &opt.BuildEnv{Env: env, Res: db, Ctx: ctx, Params: params})
	t1 := time.Now()
	sb.add("opt.build", parent, req, t0, t1)
	if err != nil {
		return 0, 0, false, err
	}
	_, err = exec.Drain(ctx, plan.Root)
	t2 := time.Now()
	sb.add("exec.drain", parent, req, t1, t2)
	return micros(t1.Sub(t0)), micros(t2.Sub(t1)), planUses(plan.Root, "IndexScan"), err
}

// planUses reports whether any operator of the tree is of the named kind.
func planUses(op exec.Operator, kind string) bool {
	if strings.HasPrefix(exec.Describe(op), kind) {
		return true
	}
	for _, c := range exec.Children(op) {
		if planUses(c, kind) {
			return true
		}
	}
	return false
}

// probeIndexAndRows times btree.Tree.Search on keys drawn like the
// workload's, then table.Table.GetVersioned on the rows found, under a
// snapshot. Both report mean µs per call.
func probeIndexAndRows(b *bench, db *core.DB, tbl *table.Table, ix *table.Index, tg probeTarget, sb *spanBuf) (search, get float64, err error) {
	rng := newRNG(b.cfg.seed, 30)
	rids := make([]table.RID, 0, probeCalls)
	req := sb.newReq()
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		v, found, err := ix.Tree.Search(val.EncodeKey([]val.Value{val.NewInt(tg.key(rng))}))
		if err != nil {
			return 0, 0, err
		}
		if found {
			rids = append(rids, table.RIDFromBytes(v))
		}
	}
	t1 := time.Now()
	sb.add("btree.search", 0, req, t0, t1)
	b.check(len(rids) == probeCalls, "btree.Search found %d of %d keys", len(rids), probeCalls)

	snap := db.TxnManager().AcquireSnapshot(0)
	defer db.TxnManager().ReleaseSnapshot(snap)
	visible := 0
	t2 := time.Now()
	for _, rid := range rids {
		_, ok, err := tbl.GetVersioned(rid, snap)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			visible++
		}
	}
	t3 := time.Now()
	sb.add("table.get_versioned", 0, req, t2, t3)
	b.check(visible == len(rids), "GetVersioned saw %d of %d indexed rows", visible, len(rids))
	return micros(t1.Sub(t0)) / probeCalls, ratio(micros(t3.Sub(t2)), float64(len(rids))), nil
}

// probeBuffer times buffer.Pool Get and Unpin over every page of the table
// in chain order, three passes: a table larger than the pool misses on
// each pass, one that fits hits.
func probeBuffer(db *core.DB, tbl *table.Table, sb *spanBuf) (float64, error) {
	var pages []store.PageID
	seen := map[store.PageID]bool{}
	err := tbl.Scan(func(rid table.RID, _ []val.Value) (bool, error) {
		if !seen[rid.Page] {
			seen[rid.Page] = true
			pages = append(pages, rid.Page)
		}
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	pool := db.Pool()
	start := time.Now()
	for pass := 0; pass < 3; pass++ {
		for _, id := range pages {
			f, err := pool.Get(id)
			if err != nil {
				return 0, err
			}
			pool.Unpin(f, false)
		}
	}
	end := time.Now()
	sb.add("buffer.get", 0, sb.newReq(), start, end)
	return ratio(micros(end.Sub(start)), float64(3*len(pages))), nil
}

// walCommits is how many commits the WAL probe appends and flushes.
const walCommits = 200

// probeWAL appends commit-sized groups of records (two row updates, one
// insert, the commit) to a scratch log in the run directory and flushes
// each, reporting mean µs per commit for wal.Log.Append and FlushTo.
func probeWAL(b *bench, tbl *table.Table, sb *spanBuf) (appendUS, flushUS float64, err error) {
	var row []byte
	if err := tbl.Scan(func(_ table.RID, r []val.Value) (bool, error) {
		row = val.EncodeRow(r)
		return false, nil
	}); err != nil {
		return 0, 0, err
	}
	log, err := wal.Open(filepath.Join(b.dir, "probe.wal"))
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	var appendD, flushD time.Duration
	for i := 0; i < walCommits; i++ {
		txn := uint64(i + 1)
		req := sb.newReq()
		t0 := time.Now()
		log.Append(&wal.Record{Type: wal.RecUpdate, Txn: txn, Table: tbl.ID, Before: row, After: row})
		log.Append(&wal.Record{Type: wal.RecUpdate, Txn: txn, Table: tbl.ID, Before: row, After: row})
		log.Append(&wal.Record{Type: wal.RecInsert, Txn: txn, Table: tbl.ID, After: row})
		lsn := log.Append(&wal.Record{Type: wal.RecCommit, Txn: txn})
		t1 := time.Now()
		if err := log.FlushTo(lsn); err != nil {
			return 0, 0, err
		}
		t2 := time.Now()
		sb.add("wal.append", 0, req, t0, t1)
		sb.add("wal.flush", 0, req, t1, t2)
		appendD += t1.Sub(t0)
		flushD += t2.Sub(t1)
	}
	n := float64(walCommits)
	return micros(appendD) / n, micros(flushD) / n, nil
}

func (o *oltp) target() probeTarget {
	return probeTarget{table: "acct", index: "acct_id", key: func(r *rand.Rand) int64 { return int64(o.keys.next(r)) }}
}

// wireProbe times the wire codec on the workload's own payloads: it sends
// the sampled statements once over a raw connection to capture the
// server's response frames, then times encoding and framing each request
// and re-framing and decoding each response, in memory.
func (o *oltp) wireProbe(win window) (map[string]float64, error) {
	nc, err := net.Dial("tcp", o.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	if err := server.WriteFrame(nc, server.MsgHello, server.EncodeHello("", "perfbench-codec", 0)); err != nil {
		return nil, err
	}
	if typ, _, err := server.ReadFrame(nc); err != nil || typ != server.MsgHelloOK {
		return nil, fmt.Errorf("codec probe handshake: frame %#x, %v", typ, err)
	}
	type frame struct {
		typ     byte
		payload []byte
	}
	type exchange struct {
		call  stmtCall
		reply []frame
	}
	var ex []exchange
	for _, s := range win.samples {
		for _, c := range s {
			if err := server.WriteFrame(nc, server.MsgExec, server.EncodeExec(0, c.sql, 0, c.params)); err != nil {
				return nil, err
			}
			e := exchange{call: c}
			for {
				typ, payload, err := server.ReadFrame(nc)
				if err != nil {
					return nil, err
				}
				e.reply = append(e.reply, frame{typ, payload})
				if typ == server.MsgDone || typ == server.MsgError {
					break
				}
			}
			ex = append(ex, e)
		}
	}
	sb := o.b.tr.buf()
	defer sb.flush()
	var buf bytes.Buffer
	start := time.Now()
	for _, e := range ex {
		buf.Reset()
		if err := server.WriteFrame(&buf, server.MsgExec, server.EncodeExec(1, "", 0, e.call.params)); err != nil {
			return nil, err
		}
		for _, f := range e.reply {
			if err := server.WriteFrame(&buf, f.typ, f.payload); err != nil {
				return nil, err
			}
		}
		for range 1 + len(e.reply) {
			typ, payload, err := server.ReadFrame(&buf)
			if err != nil {
				return nil, err
			}
			switch typ {
			case server.MsgRowHeader:
				_, err = server.DecodeRowHeader(payload)
			case server.MsgRowBatch:
				_, err = server.DecodeRowBatch(payload)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	end := time.Now()
	sb.add("server.codec", 0, sb.newReq(), start, end)
	return map[string]float64{"server.codec_us": ratio(micros(end.Sub(start)), float64(len(ex)))}, nil
}
