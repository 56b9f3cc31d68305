package main

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/val"
)

// scan_large is the embedded deployment over a database larger than the
// buffer pool: orders(id, cust, amt, day, pad), 20,000 rows bulk-loaded
// from CSV, an index on day, and a 1,000-row cust table. The wide pad puts
// orders at about 830 heap pages, over three times the 256-page pool the
// engine starts with, while keeping set-up and recovery short enough to
// repeat within one run. One embedded connection runs three queries
// round-robin.
const (
	orderRows   = 20000
	orderPad    = 145
	custRows    = 1000
	regions     = 8
	days        = 365
	maxAmt      = 10000
	weekDays    = 7
	joinDays    = 30
	selectAmt   = 200 // COUNT(*) WHERE amt < ? draws its bound below this
	durableRows = 200
	// scanCrashes is the durability step's rounds: recovery re-indexes
	// orders, so each takes seconds.
	scanCrashes = 3
)

const (
	sqlWeek  = "SELECT day, COUNT(*), SUM(amt) FROM orders WHERE day BETWEEN ? AND ? GROUP BY day"
	sqlJoin  = "SELECT c.region, COUNT(*), SUM(o.amt) FROM orders o JOIN cust c ON o.cust = c.id WHERE o.day BETWEEN ? AND ? GROUP BY c.region"
	sqlCheap = "SELECT COUNT(*) FROM orders WHERE amt < ?"
	sqlOrder = "INSERT INTO orders VALUES (?, ?, ?, ?, ?)"
)

type order struct{ id, cust, amt, day int64 }

type scan struct {
	b        *bench
	orders   []order // the loaded rows, then the durability step's rows
	inserted int     // durability-step rows inserted so far
	region   []int64 // cust id -> region

	// Expected answers, from the generated rows.
	dayCount, daySum [days]int64
	regCount, regSum [days][regions]int64
	amts             []int64 // sorted

	conn *core.Conn
	rng  *rand.Rand
	nops int
}

func newScan(b *bench) *scan {
	s := &scan{b: b, rng: newRNG(b.cfg.seed, 20)}
	g := newRNG(b.cfg.seed, 3)
	s.region = make([]int64, custRows+1)
	for c := 1; c <= custRows; c++ {
		s.region[c] = int64(g.IntN(regions))
	}
	for i := 1; i <= orderRows+scanCrashes*durableRows; i++ {
		o := order{id: int64(i), cust: int64(1 + g.IntN(custRows)), amt: int64(1 + g.IntN(maxAmt)), day: int64(g.IntN(days))}
		s.orders = append(s.orders, o)
		s.dayCount[o.day]++
		s.daySum[o.day] += o.amt
		s.regCount[o.day][s.region[o.cust]]++
		s.regSum[o.day][s.region[o.cust]] += o.amt
		s.amts = append(s.amts, o.amt)
	}
	sort.Slice(s.amts, func(i, j int) bool { return s.amts[i] < s.amts[j] })
	return s
}

func (s *scan) setups() int { return 2 }

func (s *scan) crashes() int { return scanCrashes }

func (s *scan) load(conn *core.Conn, dir string) (phases, error) {
	var p phases
	for _, ddl := range []string{
		"CREATE TABLE orders (id INT, cust INT, amt INT, day INT, pad VARCHAR(160))",
		"CREATE TABLE cust (id INT, region INT, name VARCHAR(16))",
	} {
		if _, err := conn.Exec(ddl); err != nil {
			return p, err
		}
	}
	seed := s.b.cfg.seed
	opath, cpath := filepath.Join(dir, "orders.csv"), filepath.Join(dir, "cust.csv")
	if err := writeCSV(opath, orderRows, func(i int) []string {
		o := s.orders[i]
		return []string{strconv.FormatInt(o.id, 10), strconv.FormatInt(o.cust, 10),
			strconv.FormatInt(o.amt, 10), strconv.FormatInt(o.day, 10), pad(seed, int(o.id), orderPad)}
	}); err != nil {
		return p, err
	}
	if err := writeCSV(cpath, custRows, func(i int) []string {
		return []string{strconv.Itoa(i + 1), strconv.FormatInt(s.region[i+1], 10), pad(seed, -(i + 1), 16)}
	}); err != nil {
		return p, err
	}
	for _, path := range []string{opath, cpath} {
		name := "orders"
		if path == cpath {
			name = "cust"
		}
		t, err := timedExec(conn, "LOAD TABLE "+name+" FROM '"+path+"'")
		if err != nil {
			return p, err
		}
		p.load += t
		if err := os.Remove(path); err != nil {
			return p, err
		}
	}
	var err error
	if p.index, err = timedExec(conn, "CREATE INDEX orders_day ON orders (day)"); err != nil {
		return p, err
	}
	for _, tbl := range []string{"orders", "cust"} {
		t, err := timedExec(conn, "CREATE STATISTICS "+tbl)
		if err != nil {
			return p, err
		}
		p.stats += t
	}
	return p, nil
}

// durableWrites inserts the generator's next durability-step rows, one
// autocommit INSERT each. All of them are in place before the timed window,
// so every expected answer counts them.
func (s *scan) durableWrites(db *core.DB) ([]float64, error) {
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	conn, err := db.Connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var lat []float64
	for _, o := range s.orders[orderRows+s.inserted : orderRows+s.inserted+durableRows] {
		start := time.Now()
		res, err := conn.Exec(sqlOrder, val.NewInt(o.id), val.NewInt(o.cust), val.NewInt(o.amt),
			val.NewInt(o.day), val.NewStr(pad(s.b.cfg.seed, int(o.id), orderPad)))
		if err != nil {
			return nil, err
		}
		lat = append(lat, micros(time.Since(start)))
		s.b.check(res.RowsAffected == 1, "insert of order %d affected %d rows", o.id, res.RowsAffected)
	}
	s.inserted += durableRows
	return lat, nil
}

func (s *scan) verifyDurable(db *core.DB) error {
	conn, err := db.Connect()
	if err != nil {
		return err
	}
	defer conn.Close()
	rows, err := conn.Query("SELECT COUNT(*), SUM(amt) FROM orders WHERE id > ?", val.NewInt(orderRows))
	if err != nil {
		return err
	}
	var sum int64
	for _, o := range s.orders[orderRows : orderRows+s.inserted] {
		sum += o.amt
	}
	r := rows.All()
	s.b.check(len(r) == 1 && r[0][0].I == s.b.want(int64(s.inserted)) && r[0][1].I == sum,
		"acknowledged orders after the crash: %v, want %d rows summing to %d", r, s.inserted, sum)
	return nil
}

func (s *scan) serve(db *core.DB) error {
	conn, err := db.Connect()
	if err != nil {
		return err
	}
	s.conn = conn
	return nil
}

func (s *scan) stop() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

func (s *scan) finalCheck(db *core.DB) error { return nil }

func (s *scan) run(d time.Duration, traced bool) window {
	var sb *spanBuf
	if traced {
		sb = s.b.tr.buf()
	}
	var win window
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		s.nops++
		call, check := s.next()
		t0 := time.Now()
		rows, err := s.conn.Query(call.sql, call.params...)
		t1 := time.Now()
		call.req = sb.newReq()
		sb.add("core.stmt", 0, call.req, t0, t1)
		call.us = micros(t1.Sub(t0))
		var got [][]val.Value
		if err == nil {
			got = rows.All()
		}
		if s.b.check(err == nil && check(got), "%s %v: got %v, %v", call.sql, call.params, got, err) {
			win.opUS = append(win.opUS, call.us)
			win.selects++
		}
		if sb != nil && s.nops%sampleEvery == 0 {
			win.samples = append(win.samples, []stmtCall{call})
		}
	}
	win.elapsed = time.Since(start)
	sb.flush()
	return win
}

// next returns the next query round-robin, with its parameters from the
// seeded stream and a checker of its answer against the generated rows.
func (s *scan) next() (stmtCall, func([][]val.Value) bool) {
	switch s.nops % 3 {
	case 0:
		lo := int64(s.rng.IntN(days - weekDays + 1))
		hi := lo + weekDays - 1
		return stmtCall{sql: sqlWeek, params: ints(lo, hi), query: true}, func(got [][]val.Value) bool {
			want := map[int64][2]int64{}
			for d := lo; d <= hi; d++ {
				if s.dayCount[d] > 0 {
					want[d] = [2]int64{s.b.want(s.dayCount[d]), s.daySum[d]}
				}
			}
			return sameGroups(got, want)
		}
	case 1:
		lo := int64(s.rng.IntN(days - joinDays + 1))
		hi := lo + joinDays - 1
		return stmtCall{sql: sqlJoin, params: ints(lo, hi), query: true}, func(got [][]val.Value) bool {
			want := map[int64][2]int64{}
			for r := 0; r < regions; r++ {
				var c, sum int64
				for d := lo; d <= hi; d++ {
					c += s.regCount[d][r]
					sum += s.regSum[d][r]
				}
				if c > 0 {
					want[int64(r)] = [2]int64{s.b.want(c), sum}
				}
			}
			return sameGroups(got, want)
		}
	default:
		bound := int64(1 + s.rng.IntN(selectAmt))
		return stmtCall{sql: sqlCheap, params: ints(bound), query: true}, func(got [][]val.Value) bool {
			n := int64(sort.Search(len(s.amts), func(i int) bool { return s.amts[i] >= bound }))
			return len(got) == 1 && got[0][0].I == s.b.want(n)
		}
	}
}

// sameGroups compares (key, count, sum) result rows with the expected
// groups, in any order.
func sameGroups(got [][]val.Value, want map[int64][2]int64) bool {
	if len(got) != len(want) {
		return false
	}
	for _, r := range got {
		w, ok := want[r[0].I]
		if !ok || len(r) != 3 || r[1].I != w[0] || r[2].I != w[1] {
			return false
		}
	}
	return true
}

func ints(xs ...int64) []val.Value {
	out := make([]val.Value, len(xs))
	for i, x := range xs {
		out[i] = val.NewInt(x)
	}
	return out
}

func (s *scan) target() probeTarget {
	return probeTarget{table: "orders", index: "orders_day", key: func(r *rand.Rand) int64 { return int64(r.IntN(days)) }}
}
