package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"anywheredb/internal/val"
)

// These tests hold the optimizer to the invariant "a plan that claims an
// index uses it, and gets the scan's answer": predicates with ? parameters
// are sargable exactly like literals, for =, <, <=, >, >= and BETWEEN.

// sqlLit renders v as a SQL literal (a negative number parses as unary
// minus over a literal).
func sqlLit(v val.Value) string {
	switch v.Kind {
	case val.KNull:
		return "NULL"
	case val.KInt:
		return strconv.FormatInt(v.I, 10)
	case val.KDouble:
		return strconv.FormatFloat(v.F, 'f', 1, 64)
	}
	return "'" + v.S + "'"
}

// multiset renders a result as a sorted list of rows.
func multiset(rows [][]val.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// explainIndex runs EXPLAIN for sql and reports the index the chosen plan's
// first step names ("" for none) and whether the plan tree holds an
// IndexScan over that index.
func explainIndex(t *testing.T, c *Conn, sql string, params []val.Value) (step string, scanned bool) {
	t.Helper()
	ex := mustQuery(t, c, "EXPLAIN "+sql, params...)
	var ops []string
	for _, r := range ex.All() {
		ops = append(ops, r[0].S)
	}
	plan := ex.Plan()
	if plan.Enum == nil || len(plan.Enum.Order) == 0 {
		t.Fatalf("EXPLAIN %s: no enumerated plan", sql)
	}
	if ix := plan.Enum.Order[0].Index; ix != nil {
		step = ix.Name
	}
	for _, op := range ops {
		if strings.Contains(op, "IndexScan(") {
			if step == "" || !strings.Contains(op, "."+step+")") {
				t.Fatalf("EXPLAIN %s %v: IndexScan without the step naming its index (%q)\n%s", sql, params, step, strings.Join(ops, "\n"))
			}
			scanned = true
		}
	}
	return step, scanned
}

// seedTwins loads one seeded dataset into ix (indexed: a non-unique INT
// index with duplicates and NULLs, a string index, a two-column index) and
// nx (no index), with statistics on both.
func seedTwins(t *testing.T, c *Conn, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	strs := []string{"", "ab", "abc", "abd"}
	orNull := func(v val.Value) val.Value {
		if rng.Intn(20) == 0 {
			return val.Null
		}
		return v
	}
	var rows []string
	for i := 0; i < 800; i++ {
		s := fmt.Sprintf("s%03d", rng.Intn(60))
		if rng.Intn(8) == 0 {
			s = strs[rng.Intn(len(strs))]
		}
		rows = append(rows, fmt.Sprintf("(%s, %s, %s, %d)",
			sqlLit(orNull(val.NewInt(int64(rng.Intn(200)-50)))),
			sqlLit(orNull(val.NewStr(s))),
			sqlLit(orNull(val.NewInt(int64(rng.Intn(10))))),
			rng.Intn(100)))
	}
	for _, tbl := range []string{"ix", "nx"} {
		mustExec(t, c, "CREATE TABLE "+tbl+" (id INT, s VARCHAR(8), g INT, v INT)")
		for i := 0; i < len(rows); i += 200 {
			mustExec(t, c, "INSERT INTO "+tbl+" VALUES "+strings.Join(rows[i:i+200], ", "))
		}
	}
	mustExec(t, c, "CREATE INDEX ix_id ON ix (id)")
	mustExec(t, c, "CREATE INDEX ix_s ON ix (s)")
	mustExec(t, c, "CREATE INDEX ix_gv ON ix (g, v)")
	mustExec(t, c, "CREATE STATISTICS ix")
	mustExec(t, c, "CREATE STATISTICS nx")
}

// TestIndexAccessMatchesScan is the differential oracle: every comparison
// operator and BETWEEN, in ? and literal form, over NULLs, reversed BETWEEN
// bounds, negative literals, DOUBLE values against INT columns (-0 too),
// string keys and the leading column of a two-column index, must return the
// same multiset from the indexed table as from its unindexed twin; and
// EXPLAIN shows an IndexScan exactly when the chosen plan's step names an
// index.
func TestIndexAccessMatchesScan(t *testing.T) {
	I, D, S := val.NewInt, val.NewDouble, val.NewStr
	consts := map[string][]val.Value{
		"id": {val.Null, I(-20), I(0), I(7), I(149), I(500), D(2.5), D(-3.5), D(7), D(math.Copysign(0, -1))},
		"s":  {val.Null, S(""), S("ab"), S("abc"), S("s010"), S("s05"), S("zzz")},
		"g":  {val.Null, I(0), I(3), I(9), I(-1), D(4.5)},
	}
	type probe struct {
		where  string // with ? placeholders
		params []val.Value
	}
	var probes []probe
	for _, col := range []string{"id", "s", "g"} {
		cs := consts[col]
		for _, op := range []string{"=", "<", "<=", ">", ">="} {
			for _, v := range cs {
				probes = append(probes, probe{col + " " + op + " ?", []val.Value{v}})
			}
		}
		for _, lo := range cs {
			for _, hi := range cs { // includes reversed bounds and NULLs
				probes = append(probes, probe{col + " BETWEEN ? AND ?", []val.Value{lo, hi}})
			}
		}
	}
	probes = append(probes,
		probe{"id > ? AND id <= ?", []val.Value{I(-20), I(40)}},
		probe{"? <= id AND id < ?", []val.Value{I(7), D(60.5)}},
		probe{"id >= ? AND id < ? AND v > ?", []val.Value{I(0), I(100), I(50)}},
		probe{"id BETWEEN ? AND ? AND id > ?", []val.Value{I(-50), I(10), I(5)}},
		probe{"id = ? AND id < ?", []val.Value{I(7), I(3)}},
		probe{"id = ? AND v >= ?", []val.Value{I(7), I(20)}},
		probe{"g = ? AND v > ?", []val.Value{I(3), I(40)}},
		probe{"g >= ? AND g < ? AND v < ?", []val.Value{I(2), I(4), I(30)}},
		probe{"s >= ? AND s < ?", []val.Value{S("ab"), S("s020")}},
	)

	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			db := openDB(t, Options{})
			c := conn(t, db)
			seedTwins(t, c, seed)
			indexed := map[string]int{}
			for _, p := range probes {
				literal := p.where
				for _, v := range p.params {
					literal = strings.Replace(literal, "?", sqlLit(v), 1)
				}
				for _, form := range []struct {
					where  string
					params []val.Value
				}{{p.where, p.params}, {literal, nil}} {
					sql := "SELECT id, s, g, v FROM %s WHERE " + form.where
					got := multiset(mustQuery(t, c, fmt.Sprintf(sql, "ix"), form.params...).All())
					want := multiset(mustQuery(t, c, fmt.Sprintf(sql, "nx"), form.params...).All())
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("%s %v: indexed table returned %d rows, scan %d\nindexed: %v\nscan:    %v",
							fmt.Sprintf(sql, "ix"), form.params, len(got), len(want), got, want)
					}
					step, scanned := explainIndex(t, c, fmt.Sprintf(sql, "ix"), form.params)
					if step != "" && !scanned {
						t.Fatalf("%s %v: plan step names index %s but EXPLAIN shows no IndexScan", form.where, form.params, step)
					}
					if scanned {
						indexed[step]++
					}
				}
			}
			// The oracle must actually cover each index.
			for _, ix := range []string{"ix_id", "ix_s", "ix_gv"} {
				if indexed[ix] == 0 {
					t.Fatalf("no probe planned an IndexScan over %s: %v", ix, indexed)
				}
			}
		})
	}
}

// TestEqualsNullNeverUsesIndex: a comparison with NULL is never true, so
// it must neither drive nor be consumed by an index probe (a NULL key
// encodes like any other key and would match the NULL-keyed rows).
func TestEqualsNullNeverUsesIndex(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	mustExec(t, c, "CREATE TABLE t (a INT, s VARCHAR(8))")
	mustExec(t, c, "INSERT INTO t VALUES (NULL, 'n1'), (NULL, 'n2'), (1, 'one'), (2, 'two'), (3, 'three')")
	mustExec(t, c, "CREATE INDEX t_a ON t (a)")
	mustExec(t, c, "CREATE STATISTICS t")
	for _, q := range []struct {
		sql    string
		params []val.Value
	}{
		{"SELECT s FROM t WHERE a = NULL", nil},
		{"SELECT s FROM t WHERE a = ?", []val.Value{val.Null}},
		{"SELECT s FROM t WHERE NULL = a", nil},
		{"SELECT s FROM t WHERE a <= ?", []val.Value{val.Null}},
		{"SELECT s FROM t WHERE a BETWEEN ? AND ?", []val.Value{val.Null, val.NewInt(3)}},
		{"SELECT s FROM t WHERE a BETWEEN NULL AND NULL", nil},
	} {
		for i := 0; i < 5; i++ { // cold, training and cached plans
			if rows := mustQuery(t, c, q.sql, q.params...); rows.Count() != 0 {
				t.Fatalf("%s %v returned %v, want no rows", q.sql, q.params, rows.All())
			}
		}
		if step, scanned := explainIndex(t, c, q.sql, q.params); step != "" || scanned {
			t.Fatalf("%s %v plans an index probe (step %q)", q.sql, q.params, step)
		}
	}
	// The same text with a non-NULL value still probes the index.
	if rows := mustQuery(t, c, "SELECT s FROM t WHERE a = ?", val.NewInt(2)); rows.Count() != 1 || rows.All()[0][0].S != "two" {
		t.Fatalf("a = 2 returned %v", rows.All())
	}
}

// seedAcct loads acct(id, bal) with ids 0..n-1, bal = 3*id, a unique index
// on id and statistics.
func seedAcct(t *testing.T, c *Conn, n int) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE acct (id INT, bal INT)")
	for i := 0; i < n; i += 500 {
		var vals []string
		for j := i; j < i+500 && j < n; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", j, 3*j))
		}
		mustExec(t, c, "INSERT INTO acct VALUES "+strings.Join(vals, ", "))
	}
	mustExec(t, c, "CREATE UNIQUE INDEX acct_id ON acct (id)")
	mustExec(t, c, "CREATE STATISTICS acct")
}

// pointEstimate reports EXPLAIN's row estimate for the index probe of
// "id = ?", failing when the point query does not plan an IndexScan.
func pointEstimate(t *testing.T, c *Conn, id int64) int64 {
	t.Helper()
	for _, r := range mustQuery(t, c, "EXPLAIN SELECT bal FROM acct WHERE id = ?", val.NewInt(id)).All() {
		if strings.Contains(r[0].S, "IndexScan(acct.acct_id)") {
			return r[1].I
		}
	}
	t.Fatal("the point query does not plan IndexScan(acct.acct_id)")
	return 0
}

// TestRangeFeedbackKeepsPointEstimate: the conjunct that drives an index
// range sees only the rows the index selected. Were its feedback fed to
// the histogram, each range count would report selectivity ≈ 1, inflating
// the histogram's mass until (here, after about 1,500 counts) its
// estimates degenerate and point reads fall back to scans.
func TestRangeFeedbackKeepsPointEstimate(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	seedAcct(t, c, 5000)
	if est := pointEstimate(t, c, 1234); est > 2 {
		t.Fatalf("point estimate %d before any feedback", est)
	}
	rng := rand.New(rand.NewSource(7))
	const counts = 2500
	for i := 0; i < counts; i++ {
		lo := int64(rng.Intn(4950))
		row := mustQuery(t, c, "SELECT COUNT(*), SUM(bal) FROM acct WHERE id BETWEEN ? AND ?",
			val.NewInt(lo), val.NewInt(lo+49)).All()[0]
		if row[0].I != 50 || row[1].I != 3*(50*lo+49*50/2) {
			t.Fatalf("range [%d, %d]: got %v", lo, lo+49, row)
		}
	}
	for _, id := range []int64{0, 1234, 4321, 4999} {
		if est := pointEstimate(t, c, id); est > 2 {
			t.Fatalf("after %d range counts the estimate for id = %d is %d rows, want ≤ 2", counts, id, est)
		}
	}
	if step, _ := explainIndex(t, c, "SELECT COUNT(*) FROM acct WHERE id BETWEEN ? AND ?",
		[]val.Value{val.NewInt(100), val.NewInt(149)}); step != "acct_id" {
		t.Fatalf("after %d range counts a 50-id range plans index %q", counts, step)
	}
}

// TestPlanCacheParameterSensitivity: one statement text alternates a
// 50-id range (an index plan) with a whole-table range (a scan plan) under
// skewed parameters. Whatever skeleton the plan cache holds, every answer
// must be right, and the cache's logarithmic re-verification must keep
// re-checking the cached skeleton against fresh optimizations.
func TestPlanCacheParameterSensitivity(t *testing.T) {
	db := openDB(t, Options{})
	c := conn(t, db)
	const n = 5000
	seedAcct(t, c, n)
	const sql = "SELECT COUNT(*), SUM(bal) FROM acct WHERE id BETWEEN ? AND ?"
	narrowPlan, _ := explainIndex(t, c, sql, []val.Value{val.NewInt(10), val.NewInt(59)})
	widePlan, _ := explainIndex(t, c, sql, []val.Value{val.NewInt(0), val.NewInt(n - 1)})
	if narrowPlan != "acct_id" || widePlan != "" {
		t.Fatalf("premise: narrow range plans %q, whole-table range plans %q", narrowPlan, widePlan)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		lo := int64(rng.Intn(n - 50))
		hi := lo + 49
		if i%7 == 6 {
			lo, hi = 0, n-1
		}
		row := mustQuery(t, c, sql, val.NewInt(lo), val.NewInt(hi)).All()[0]
		cnt := hi - lo + 1
		if row[0].I != cnt || row[1].I != 3*(cnt*lo+cnt*(cnt-1)/2) {
			t.Fatalf("execution %d, range [%d, %d]: got %v", i, lo, hi, row)
		}
	}
	hits, _, verifications, _ := c.PlanCacheStats()
	if hits == 0 || verifications == 0 {
		t.Fatalf("plan cache hits=%d verifications=%d: the cached skeleton was never re-checked", hits, verifications)
	}
}
