package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dmp/internal/codegen"
	"dmp/internal/emu"
	"dmp/internal/gen"
	"dmp/internal/harness"
	"dmp/internal/serve"
	"dmp/internal/simcache"
)

// serveEnv is a running in-process daemon on loopback plus the seeded job
// sequence: the generated corpus, the job order over it (repeats point at
// earlier programs) and each program's request body.
type serveEnv struct {
	corpus []*gen.Program
	order  []int
	bodies [][]byte

	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	budget int
}

// serveShape returns the jobs per pass and the programs the layer drive
// covers.
func serveShape(rc runConfig) (jobs, driven int) {
	if rc.size == tinySize {
		return 24, 4
	}
	return 1000, 48
}

// pollEvery is the clients' status-poll period. Job latency comes from the
// daemon's own submit and finish stamps, so the period does not round it.
const pollEvery = 2 * time.Millisecond

// serveJobs derives the corpus and job order from the seed and the pass
// index, so each pass of a run serves programs of its own and a run's tail
// latency rests on more distinct programs: programs cycle through the
// generator presets, and about one job in five repeats an earlier
// program's spec.
func serveJobs(rc runConfig) ([]*gen.Program, []int) {
	n, _ := serveShape(rc)
	rng := rand.New(rand.NewPCG(rc.seed, uint64(rc.pass)))
	presets := gen.PresetNames()
	var corpus []*gen.Program
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if len(corpus) > 0 && rng.IntN(5) == 0 {
			order = append(order, rng.IntN(len(corpus)))
			continue
		}
		conf, _ := gen.Preset(presets[len(corpus)%len(presets)])
		order = append(order, len(corpus))
		corpus = append(corpus, gen.Build(conf, rng.Uint64()))
	}
	return corpus, order
}

func serveSetup(rc runConfig) (env, error) {
	e := &serveEnv{budget: harness.HelperBudget()}
	e.corpus, e.order = serveJobs(rc)
	for _, p := range e.corpus {
		b, err := json.Marshal(serve.JobSpec{Name: p.Name, Source: p.Source, Input: p.RunInput, Train: p.TrainInput})
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, b)
	}

	// As cmd/dmpserve does: the daemon's workers are the only parallelism.
	harness.SetHelperBudget(0)
	e.srv = serve.New(serve.Config{Workers: rc.par, Cache: simcache.New("")})
	e.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Shutdown(context.Background())
		harness.SetHelperBudget(e.budget)
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	e.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: rc.par},
	}
	return e, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.client.CloseIdleConnections()
	_ = e.hs.Shutdown(ctx) // the listener is ours; nothing to report on close
	<-e.served
	e.srv.Shutdown(ctx)
	harness.SetHelperBudget(e.budget)
}

// serveWarm serves a few hundred jobs of a corpus no pass uses before the
// timed passes. A daemon is long-running: its users meet a process whose
// heap and runtime are warm, and without this the first pass of every run
// measures ~10% slower than the rest.
func serveWarm(rc runConfig) error {
	rc.pass = -1
	e, err := serveSetup(rc)
	if err != nil {
		return err
	}
	defer e.close()
	se := e.(*serveEnv)
	se.order = se.order[:len(se.order)*3/10]
	_, err = servePass(rc, se, nil)
	return err
}

// jobRec is one job as the client saw it.
type jobRec struct {
	refused bool
	err     error
	st      serve.JobStatus
	rtt     time.Duration
	polls   int
}

func servePass(rc runConfig, e env, sp *spanLog) (*passResult, error) {
	se := e.(*serveEnv)
	recs := make([]jobRec, len(se.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	timer := startPass()
	for c := 0; c < rc.par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				id := sp.start("serve.job", -1)
				recs[i] = se.do(se.bodies[se.order[i]], sp, id)
				sp.end(id)
			}
		}()
	}
	wg.Wait()
	wall, allocs, rss := timer.finish()
	snap := se.srv.Cache().Metrics()
	if rc.corruptFirst {
		corruptFirstRepeated(se.order, recs)
	}

	pr := &passResult{wall: wall, rssMB: rss, ops: len(recs), refIPC: map[string]float64{}}
	var queueMS, runMS, rttMS, gains []float64
	polls, refused := 0, 0
	first := map[int]int{}
	for i, r := range recs {
		u := se.order[i]
		p := se.corpus[u]
		polls += r.polls
		if r.refused {
			refused++
		}
		res := r.st.Result
		if r.err != nil || r.refused || r.st.State != serve.StateDone || res == nil || r.st.Started == nil || r.st.Finished == nil {
			pr.failed++
			continue
		}
		pr.jobLatMS = append(pr.jobLatMS, r.st.LatencyMS)
		queueMS = append(queueMS, ms(r.st.Started.Sub(r.st.Submitted)))
		runMS = append(runMS, ms(r.st.Finished.Sub(*r.st.Started)))
		rttMS = append(rttMS, ms(r.rtt))
		pr.insts += 2 * res.Retired // baseline and DMP each retire the program

		ref, err := emuCount("serve/"+p.Name, func() (uint64, error) {
			prog, err := codegen.CompileSource(p.Source)
			if err != nil {
				return 0, err
			}
			return emu.New(prog, p.RunInput, 0).Run(0)
		})
		if err != nil {
			return nil, err
		}
		if res.Retired != ref {
			pr.failed++
		}
		if j, ok := first[u]; ok {
			if !bytes.Equal(mustJSON(recs[j].st.Result), mustJSON(res)) {
				pr.failed++ // a repeated spec must return its first result
			}
			continue
		}
		first[u] = i
		gains = append(gains, res.DeltaPct)
		pr.refIPC[p.Name] = res.DMPIPC
		pr.refIPC[p.Name+"/base"] = res.BaseIPC
	}
	results := make([]any, len(recs))
	for i, r := range recs {
		results[i] = r.st.Result
	}
	pr.ipcGain = mean(gains)
	pr.digest = hashJSON(results...)
	pr.counters = cacheCounters(snap)
	pr.counters["harness.allocs_per_ki"] = ratio(float64(allocs)*1000, float64(pr.insts))
	pr.counters["serve.queue_wait_p50_ms"] = quantile(queueMS, 0.5)
	pr.counters["serve.queue_wait_p99_ms"] = quantile(queueMS, 0.99)
	pr.counters["serve.run_p50_ms"] = quantile(runMS, 0.5)
	pr.counters["serve.submit_rtt_p50_ms"] = quantile(rttMS, 0.5)
	pr.counters["serve.polls_per_job"] = float64(polls) / float64(len(recs))
	pr.counters["serve.refused"] = float64(refused)
	return pr, nil
}

// do submits one job and polls it to a terminal state. A 429 or 503 is a
// refusal: the job counts as failed, not retried.
func (se *serveEnv) do(body []byte, sp *spanLog, parent int) jobRec {
	var r jobRec
	id := sp.start("serve.submit", parent)
	t0 := time.Now()
	resp, err := se.client.Post(se.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.end(id)
		r.err = err
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.rtt = time.Since(t0)
	sp.end(id)
	switch {
	case err != nil:
		r.err = err
		return r
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		r.refused = true
		return r
	case resp.StatusCode != http.StatusAccepted:
		r.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
		return r
	}
	if r.err = json.Unmarshal(data, &r.st); r.err != nil {
		return r
	}
	id = sp.start("serve.wait", parent)
	defer sp.end(id)
	for {
		time.Sleep(pollEvery)
		r.polls++
		resp, err := se.client.Get(se.base + "/jobs/" + r.st.ID)
		if err != nil {
			r.err = err
			return r
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			r.err = fmt.Errorf("poll %s: %w", r.st.ID, err)
			return r
		}
		r.st = st
		if st.State == serve.StateDone || st.State == serve.StateFailed || st.State == serve.StateCanceled {
			return r
		}
	}
}

// corruptFirstRepeated perturbs the first submission of the first repeated
// program, so the repeat check must report a failure.
func corruptFirstRepeated(order []int, recs []jobRec) {
	seen := map[int]int{}
	for i, u := range order {
		if j, ok := seen[u]; ok {
			if res := recs[j].st.Result; res != nil {
				c := *res
				c.DMPIPC += 1e-9
				recs[j].st.Result = &c
			}
			return
		}
		seen[u] = i
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data
	}
	return b
}

func serveDrive(rc runConfig, e env, ref *passResult, sp *spanLog) (*driveResult, error) {
	se := e.(*serveEnv)
	_, n := serveShape(rc)
	var progs []driveProg
	for _, p := range se.corpus[:min(n, len(se.corpus))] {
		progs = append(progs, driveProg{name: p.Name, source: p.Source, run: p.RunInput, prof: p.TrainInput, train: p.TrainInput})
	}
	o := driveOpts{pipeCap: serve.DefaultMaxInsts, simCfg: machine(true, serve.DefaultMaxInsts)}
	layers, drv, mach, err := driveLayers(progs, o, sp)
	if err != nil {
		return nil, err
	}
	dr := &driveResult{layers: layers, machine: mach, ops: 2 * len(drv)}
	for _, d := range drv {
		// The daemon's job result must be what the layers compute directly.
		if d.sim.IPC() != ref.refIPC[d.name] || d.bare.IPC() != ref.refIPC[d.name+"/base"] || d.dmp.IPC() != d.sim.IPC() {
			dr.failed++
		}
		if n, ok := emuCounts.Load("serve/" + d.name); !ok || d.emuInsts != n.(uint64) {
			dr.failed++
		}
	}
	return dr, nil
}
