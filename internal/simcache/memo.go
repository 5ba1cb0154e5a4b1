package simcache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// memo is one memoized namespace of the cache: an in-flight table with
// singleflight deduplication in front of an optional on-disk directory. The
// full-fidelity and sampled namespaces are two instances that differ only in
// their value type, disk directory, codec and note func.
type memo[V any] struct {
	dir     string // schema-versioned entry directory; "" = memory-only
	encode  func(V) ([]byte, error)
	decode  func([]byte) (V, error)
	note    func(*Metrics, V) // records the payload counters of one executed run
	metrics *Metrics

	mu  sync.Mutex
	mem map[Key]*entry[V]
}

// entry is one memoized run. ready is closed once val/err are final, so
// concurrent requesters of the same key can block on it.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// newMemo returns a namespace whose disk entries live under root/sub (no
// disk layer when root is "").
func newMemo[V any](m *Metrics, root, sub string, encode func(V) ([]byte, error), decode func([]byte) (V, error), note func(*Metrics, V)) *memo[V] {
	dir := ""
	if root != "" {
		dir = filepath.Join(root, sub)
	}
	return &memo[V]{dir: dir, encode: encode, decode: decode, note: note, metrics: m, mem: map[Key]*entry[V]{}}
}

// isCtxErr reports whether err stems from a cancelled or expired context.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// exec runs sim once, charging its wall time and, on success, its payload.
func (m *memo[V]) exec(ctx context.Context, sim func(context.Context) (V, error)) (V, error) {
	start := time.Now()
	v, err := sim(ctx)
	m.metrics.simWallNS.Add(int64(time.Since(start)))
	if err == nil {
		m.note(m.metrics, v)
	}
	return v, err
}

// bypass runs a traced simulation unmemoized: a cached answer would
// silently emit no events, and the tracer is deliberately not part of the
// key.
func (m *memo[V]) bypass(ctx context.Context, sim func(context.Context) (V, error)) (V, error) {
	m.metrics.bypasses.Add(1)
	return m.exec(ctx, sim)
}

// run returns the memoized value for key, executing sim at most once per
// process. Cancellation never poisons the namespace: a run aborted by its
// context is evicted before its waiters wake, and a waiter deduplicating
// against a run cancelled by the *runner's* context retries with its own
// live context instead of inheriting the error.
func (m *memo[V]) run(ctx context.Context, key Key, sim func(context.Context) (V, error)) (V, error) {
	for {
		m.mu.Lock()
		e, ok := m.mem[key]
		if !ok {
			e = &entry[V]{ready: make(chan struct{})}
			m.mem[key] = e
			m.mu.Unlock()
			return m.compute(ctx, key, e, sim)
		}
		m.mu.Unlock()
		select {
		case <-e.ready:
			m.metrics.hits.Add(1)
		default:
			// Another goroutine is running this exact simulation; wait for
			// it — or for our own context, whichever ends first.
			m.metrics.dedups.Add(1)
			select {
			case <-e.ready:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		if e.err != nil && isCtxErr(e.err) {
			// The runner was cancelled and evicted the entry before closing
			// ready. Our context may still be live: retry.
			if err := ctx.Err(); err != nil {
				var zero V
				return zero, err
			}
			continue
		}
		return e.val, e.err
	}
}

// compute executes (or disk-loads) the run for a freshly inserted in-flight
// entry, publishing the result to waiters when it returns.
func (m *memo[V]) compute(ctx context.Context, key Key, e *entry[V], sim func(context.Context) (V, error)) (V, error) {
	defer close(e.ready)
	if v, ok := m.load(key); ok {
		m.metrics.diskHits.Add(1)
		e.val = v
		return v, nil
	}
	e.val, e.err = m.exec(ctx, sim)
	if e.err != nil && isCtxErr(e.err) {
		// Evict before the deferred close wakes any waiters: a cancelled
		// run is not a result, and must not be memoized.
		m.metrics.cancels.Add(1)
		m.mu.Lock()
		delete(m.mem, key)
		m.mu.Unlock()
		return e.val, e.err
	}
	m.metrics.misses.Add(1)
	if e.err == nil {
		m.store(key, e.val)
	}
	return e.val, e.err
}

func (m *memo[V]) path(key Key) string { return filepath.Join(m.dir, key.String()+".json") }

// load consults the disk layer; any failure (missing file, corrupt entry)
// reads as a miss.
func (m *memo[V]) load(key Key) (V, bool) {
	var zero V
	if m.dir == "" {
		return zero, false
	}
	b, err := os.ReadFile(m.path(key))
	if err != nil {
		return zero, false
	}
	v, err := m.decode(b)
	if err != nil {
		return zero, false
	}
	return v, true
}

// store persists a result best-effort: a read-only or missing directory
// never fails the simulation. The write is atomic (temp file + rename) so
// concurrent processes sharing a cache directory cannot observe torn
// entries.
func (m *memo[V]) store(key Key, v V) {
	if m.dir == "" {
		return
	}
	b, err := m.encode(v)
	if err != nil {
		return
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(m.dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, m.path(key)); err != nil {
		os.Remove(name)
	}
}
