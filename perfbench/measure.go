package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmp/internal/pipeline"
)

// span is one timed call at a layer boundary. Parent is the index of the
// enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory. A nil *spanLog records
// nothing, so untraced passes pay one nil check per boundary.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartNS: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].EndNS = int64(time.Since(l.t0))
	l.mu.Unlock()
}

// selfMS sums, over every span with the given name, its duration minus the
// part its direct children cover: the layer's self time in milliseconds.
func (l *spanLog) selfMS(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var ns int64
	for i, s := range l.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS - child[i]
		}
	}
	return float64(ns) / 1e6
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostFacts records what a result needs to be compared across hosts,
// including a fixed calibration loop's time: a change in it between two
// runs is host drift, not a regression.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"calib_ms":   calibrate(),
	}
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

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed single-threaded integer loop (xorshift plus a
// dependent multiply, 50M iterations) and returns the best of three in
// milliseconds.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		acc := uint64(0)
		for i := 0; i < 50_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc = acc*31 + x
		}
		calibSink += acc
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return ms(best)
}

// hashJSON returns the hex sha256 over the JSON encodings of vs.
func hashJSON(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // only plain data structures are hashed
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// machineAgg sums the modelled machine's counts over a workload's
// simulations. Every figure it reports is exact: a speed-only change must
// leave them byte-identical.
type machineAgg struct {
	baseRet, baseCyc, dmpRet, dmpCyc uint64
	ret, misp, flushes               uint64
	entries, merged, saved           uint64
	wasted                           int64
	l1iA, l1iM, l1dA, l1dM, l2A, l2M uint64
	ciSum                            float64
	ciN                              int
}

func (a *machineAgg) add(st pipeline.Stats, dmp bool) {
	if dmp {
		a.dmpRet += st.Retired
		a.dmpCyc += uint64(st.Cycles)
		a.entries += st.DpredEntries
		a.merged += st.DpredMerged
		a.saved += st.DpredSavedFlushes
		a.wasted += st.AuditTotals().WastedCycles
	} else {
		a.baseRet += st.Retired
		a.baseCyc += uint64(st.Cycles)
	}
	a.ret += st.Retired
	a.misp += st.Mispredicted
	a.flushes += st.Flushes
	a.l1iA += st.ICache.Accesses
	a.l1iM += st.ICache.Misses
	a.l1dA += st.DCache.Accesses
	a.l1dM += st.DCache.Misses
	a.l2A += st.L2.Accesses
	a.l2M += st.L2.Misses
}

// addCI folds one sampled estimate's relative confidence half-width.
func (a *machineAgg) addCI(relErr float64) {
	a.ciSum += relErr
	a.ciN++
}

func (a *machineAgg) metrics() map[string]float64 {
	m := map[string]float64{
		"pipeline.ipc_base":       ratio(float64(a.baseRet), float64(a.baseCyc)),
		"pipeline.ipc_dmp":        ratio(float64(a.dmpRet), float64(a.dmpCyc)),
		"bpred.mpki":              ratio(float64(a.misp)*1000, float64(a.ret)),
		"pipeline.flushes_per_ki": ratio(float64(a.flushes)*1000, float64(a.ret)),
		"dpred.entries":           float64(a.entries),
		"dpred.merged_ratio":      ratio(float64(a.merged), float64(a.entries)),
		"dpred.saved_flushes":     float64(a.saved),
		"dpred.wasted_cycles":     float64(a.wasted),
		"cache.l1i_miss_rate":     ratio(float64(a.l1iM), float64(a.l1iA)),
		"cache.l1d_miss_rate":     ratio(float64(a.l1dM), float64(a.l1dA)),
		"cache.l2_miss_rate":      ratio(float64(a.l2M), float64(a.l2A)),
	}
	if a.ciN > 0 {
		m["sample.ci_halfwidth_pct"] = 100 * a.ciSum / float64(a.ciN)
	}
	return m
}

// passTimer measures a pass's timed region: wall clock, process heap
// allocations, and peak resident memory, sampled from /proc/self/statm
// every rssEvery so that the checks after the region do not count.
type passTimer struct {
	t0      time.Time
	allocs0 uint64
	peak    atomic.Int64
	stop    chan struct{}
	done    chan struct{}
}

const rssEvery = 5 * time.Millisecond

func startPass() *passTimer {
	t := &passTimer{allocs0: mallocs(), stop: make(chan struct{}), done: make(chan struct{})}
	t.sample()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.sample()
			}
		}
	}()
	t.t0 = time.Now()
	return t
}

// finish stops the timer and returns the region's wall time, allocations
// and peak resident set in MB.
func (t *passTimer) finish() (time.Duration, uint64, float64) {
	wall := time.Since(t.t0)
	close(t.stop)
	<-t.done
	t.sample()
	return wall, mallocs() - t.allocs0, float64(t.peak.Load()) / (1 << 20)
}

func (t *passTimer) sample() {
	rss := residentBytes()
	for {
		cur := t.peak.Load()
		if rss <= cur || t.peak.CompareAndSwap(cur, rss) {
			return
		}
	}
}

// residentBytes reads the process's current resident set size.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
