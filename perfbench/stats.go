package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/telemetry"
)

// quantile returns the q-quantile of xs by nearest rank (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle of xs, or the mean of the two middle values
// (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// micros converts a duration to µs.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio divides, reading 0 for an empty base.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// counters is one reading of the engine's own instrumentation: the
// telemetry registry, the flight recorder's wait totals and per-table scan
// rows, and the server's admission-queue histogram. The benchmark reports
// deltas between two readings.
type counters struct {
	reg      map[string]int64
	waitUS   map[string]int64
	scanRows int64
	queue    [telemetry.HistBuckets]uint64
}

func newCounters() counters {
	return counters{reg: map[string]int64{}, waitUS: map[string]int64{}}
}

func readCounters(db *core.DB) counters {
	c := newCounters()
	reg := db.Telemetry()
	for _, s := range reg.Snapshot() {
		c.reg[s.Name] = s.Value
	}
	for _, w := range db.FlightRecorder().Waits().Snapshot() {
		c.waitUS[w.Name] = w.TotalUS
	}
	for _, a := range db.FlightRecorder().Access().Snapshot() {
		c.scanRows += a.ScanRows
	}
	if _, ok := c.reg["server.queue_us"]; ok {
		c.queue = reg.Histogram("server.queue_us").Buckets()
	}
	return c
}

// addDelta adds the change from base to end into c.
func (c *counters) addDelta(base, end counters) {
	for k, v := range end.reg {
		c.reg[k] += v - base.reg[k]
	}
	for k, v := range end.waitUS {
		c.waitUS[k] += v - base.waitUS[k]
	}
	c.scanRows += end.scanRows - base.scanRows
	for i := range c.queue {
		c.queue[i] += end.queue[i] - base.queue[i]
	}
}

// queueP50 estimates the median admission-queue wait of a delta reading,
// interpolating inside the registry's power-of-two buckets the way
// telemetry.Histogram.Quantile does.
func (c counters) queueP50() float64 {
	total := 0.0
	for _, n := range c.queue {
		total += float64(n)
	}
	if total == 0 {
		return 0
	}
	target := max(0.5*total, 1)
	cum := 0.0
	for i, u := range c.queue {
		n := float64(u)
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := 0.0, 0.0
			if i > 0 {
				lo, hi = float64(int64(1)<<i-1), float64(int64(1)<<(i+1)-2)
			}
			return lo + (target-cum)/n*(hi-lo)
		}
		cum += n
	}
	return 0
}

// statusMB reads one memory field of /proc/self/status, such as VmRSS
// (the resident set now) or VmHWM (its high-water mark), in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
