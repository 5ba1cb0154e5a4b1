package bpred

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistoryPush(t *testing.T) {
	var h History
	h = h.Push(true).Push(false).Push(true)
	if h != 0b101 {
		t.Errorf("history = %b, want 101", h)
	}
}

func trainAndScore(p Predictor, outcomes func(i int) (pc int, taken bool), n int) float64 {
	var h History
	correct := 0
	for i := 0; i < n; i++ {
		pc, taken := outcomes(i)
		if p.Predict(pc, h) == taken {
			correct++
		}
		p.Update(pc, h, taken)
		h = h.Push(taken)
	}
	return float64(correct) / float64(n)
}

func TestPerceptronLearnsBias(t *testing.T) {
	p := NewPerceptron(64, 16)
	acc := trainAndScore(p, func(i int) (int, bool) { return 0x40, true }, 2000)
	if acc < 0.99 {
		t.Errorf("always-taken accuracy = %v", acc)
	}
	p = NewPerceptron(64, 16)
	acc = trainAndScore(p, func(i int) (int, bool) { return 0x40, false }, 2000)
	if acc < 0.99 {
		t.Errorf("always-not-taken accuracy = %v", acc)
	}
}

func TestPerceptronLearnsAlternation(t *testing.T) {
	// Strict alternation is linearly separable on history bit 0.
	p := NewPerceptron(64, 16)
	acc := trainAndScore(p, func(i int) (int, bool) { return 0x80, i%2 == 0 }, 4000)
	if acc < 0.95 {
		t.Errorf("alternation accuracy = %v", acc)
	}
}

func TestPerceptronLearnsHistoryCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's outcome three branches ago.
	p := NewPerceptron(256, 32)
	var h History
	rng := rand.New(rand.NewSource(7))
	window := make([]bool, 0, 4096)
	correct, total := 0, 0
	for i := 0; i < 6000; i++ {
		a := rng.Intn(2) == 0
		// Branch A at pc 100.
		p.Update(100, h, a)
		h = h.Push(a)
		window = append(window, a)
		// Two noise branches.
		for j := 0; j < 2; j++ {
			nz := rng.Intn(2) == 0
			p.Update(200+j, h, nz)
			h = h.Push(nz)
		}
		// Branch B at pc 300 repeats A.
		want := a
		if i > 1000 {
			total++
			if p.Predict(300, h) == want {
				correct++
			}
		}
		p.Update(300, h, want)
		h = h.Push(want)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Errorf("correlated accuracy = %v, want >= 0.9", acc)
	}
}

func TestPerceptronRandomIsHard(t *testing.T) {
	// Random outcomes cannot be predicted: accuracy should hover near 50%.
	p := NewPerceptron(256, 64)
	rng := rand.New(rand.NewSource(3))
	acc := trainAndScore(p, func(i int) (int, bool) { return 0x77, rng.Intn(2) == 0 }, 10000)
	if acc < 0.40 || acc > 0.60 {
		t.Errorf("random accuracy = %v, want ~0.5", acc)
	}
}

// refPerceptron is the scalar reference kernel the packed Perceptron must
// match bit for bit. It is the predictor's original layout and arithmetic:
// one int8 slice per row with weights[r][0] the bias, a branchless ±w_i dot
// product unrolled 4×, and a per-weight saturating train.
type refPerceptron struct {
	weights [][]int8 // [table][histLen+1], weights[i][0] is the bias
	histLen int
	theta   int32
}

func newRefPerceptron(tables, histLen int) *refPerceptron {
	p := &refPerceptron{
		weights: make([][]int8, ceilPow2(tables)),
		histLen: histLen,
		theta:   int32(1.93*float64(histLen) + 14),
	}
	for i := range p.weights {
		p.weights[i] = make([]int8, histLen+1)
	}
	return p
}

func (p *refPerceptron) index(pc int) int { return pc & (len(p.weights) - 1) }

// output computes y = w0 + sum_i (h_i ? +w_i : -w_i) using the identity
// (w ^ m) - m == (m == 0 ? w : -w) for m in {0, -1}.
func (p *refPerceptron) output(pc int, h History) int32 {
	w := p.weights[p.index(pc)]
	_ = w[p.histLen]
	y := int32(w[0])
	hh := uint64(h)
	i := 1
	for ; i+3 <= p.histLen; i += 4 {
		m0 := int32(hh&1) - 1
		m1 := int32(hh>>1&1) - 1
		m2 := int32(hh>>2&1) - 1
		m3 := int32(hh>>3&1) - 1
		y += (int32(w[i]) ^ m0) - m0
		y += (int32(w[i+1]) ^ m1) - m1
		y += (int32(w[i+2]) ^ m2) - m2
		y += (int32(w[i+3]) ^ m3) - m3
		hh >>= 4
	}
	for ; i <= p.histLen; i++ {
		m := int32(hh&1) - 1
		y += (int32(w[i]) ^ m) - m
		hh >>= 1
	}
	return y
}

func (p *refPerceptron) update(pc int, h History, taken bool) {
	y := p.output(pc, h)
	if (y >= 0) == taken && abs32(y) > p.theta {
		return
	}
	p.train(pc, h, taken)
}

func (p *refPerceptron) train(pc int, h History, taken bool) {
	w := p.weights[p.index(pc)]
	_ = w[p.histLen]
	w[0] = sat8(w[0], taken)
	t := uint64(0)
	if taken {
		t = 1
	}
	hh := uint64(h)
	for i := 1; i <= p.histLen; i++ {
		d := int32(1) - int32((hh&1)^t)<<1
		v := int32(w[i]) + d
		if v > 127 {
			v = 127
		}
		if v < -127 {
			v = -127
		}
		w[i] = int8(v)
		hh >>= 1
	}
}

// weight returns the packed history weight i of row r, unbiased.
func (p *Perceptron) weight(r, i int) int8 {
	return int8(int32(p.w[r*p.stride+i]) - weightBias)
}

// checkAgainstRef compares every bias and history weight of p with the
// reference, and checks the packed invariants: Σw matches the weights and
// the padding bytes hold the bias value.
func checkAgainstRef(t *testing.T, label string, p *Perceptron, ref *refPerceptron) {
	t.Helper()
	for r, w := range ref.weights {
		if got := p.rows[r].bias; got != int32(w[0]) {
			t.Fatalf("%s: row %d bias = %d, want %d", label, r, got, w[0])
		}
		sum := int32(0)
		for i := 1; i <= ref.histLen; i++ {
			if got := p.weight(r, i-1); got != w[i] {
				t.Fatalf("%s: row %d weight %d = %d, want %d", label, r, i-1, got, w[i])
			}
			sum += int32(w[i])
		}
		if p.rows[r].sum != sum {
			t.Fatalf("%s: row %d Σw = %d, want %d", label, r, p.rows[r].sum, sum)
		}
		for i := ref.histLen; i < p.stride; i++ {
			if b := p.w[r*p.stride+i]; b != weightBias {
				t.Fatalf("%s: row %d padding byte %d = %d", label, r, i, b)
			}
		}
	}
}

// TestPerceptronMatchesReference drives the packed kernel and the scalar
// reference with the same seeded (pc, history, outcome) streams across
// history lengths that straddle the 8-byte word boundaries and table counts
// from one row up, comparing the output at every step and all weights at the
// end. Random phases alternate with saturating phases, which train one
// branch 300 times under a fixed history, driving its bias and every history
// weight to +127 or -127 (threshold training alone stops far short of
// that); the random phases that follow then predict and train from the
// clamps. The PCs alias onto shared rows, and the histories carry bits above
// histLen, which the kernel must ignore.
func TestPerceptronMatchesReference(t *testing.T) {
	for _, histLen := range []int{1, 7, 8, 9, 31, 63, 64} {
		for _, tables := range []int{1, 2, 256} {
			label := fmt.Sprintf("hist=%d tables=%d", histLen, tables)
			p, ref := NewPerceptron(tables, histLen), newRefPerceptron(tables, histLen)
			rng := rand.New(rand.NewSource(int64(histLen*1000 + tables)))
			pcs := []int{3, 3 + tables, 3 + 2*tables, 7, 7 + 256, 100}
			for phase := 0; phase < 12; phase++ {
				if phase%2 == 1 {
					pc, h, taken := pcs[rng.Intn(len(pcs))], History(rng.Uint64()), rng.Intn(2) == 0
					for i := 0; i < 300; i++ {
						p.train(p.index(pc), h, taken)
						ref.train(pc, h, taken)
					}
					w := ref.weights[ref.index(pc)]
					if w[0] != pole(taken) || w[1] != pole((h&1 != 0) == taken) {
						t.Fatalf("%s phase %d: weights not saturated: %v", label, phase, w[:2])
					}
					continue
				}
				for i := 0; i < 600; i++ {
					pc, h, taken := pcs[rng.Intn(len(pcs))], History(rng.Uint64()), rng.Intn(2) == 0
					want := ref.output(pc, h)
					if got := p.output(p.index(pc), h); got != want {
						t.Fatalf("%s phase %d step %d: output = %d, want %d", label, phase, i, got, want)
					}
					// Exercise every update path; all must train identically.
					switch i % 3 {
					case 0:
						p.Update(pc, h, taken)
					case 1:
						if got := p.PredictAndTrain(pc, h, taken); got != (want >= 0) {
							t.Fatalf("%s: PredictAndTrain = %v, want %v", label, got, want >= 0)
						}
					default:
						p.UpdateVote(pc, h, taken, p.Lookup(pc, h))
					}
					ref.update(pc, h, taken)
				}
			}
			checkAgainstRef(t, label, p, ref)
		}
	}
}

// pole is the saturated weight a run of agreeing (up) or disagreeing trains
// converges to.
func pole(up bool) int8 {
	if up {
		return 127
	}
	return -127
}

// TestPerceptronWeightSaturation trains every row hard in both directions
// and checks that the bias and every history weight stop at exactly ±127.
func TestPerceptronWeightSaturation(t *testing.T) {
	const tables, histLen = 4, 12
	for _, taken := range []bool{true, false} {
		p := NewPerceptron(tables, histLen)
		h := History(0xA5A) // mixed bits: agreeing and disagreeing weights
		for i := 0; i < 400; i++ {
			for r := 0; r < tables; r++ {
				p.train(r, h, taken)
			}
		}
		for r := 0; r < tables; r++ {
			if got, want := p.rows[r].bias, int32(pole(taken)); got != want {
				t.Errorf("taken=%v row %d: bias = %d, want %d", taken, r, got, want)
			}
			for i := 0; i < histLen; i++ {
				if got, want := p.weight(r, i), pole((h>>i&1 != 0) == taken); got != want {
					t.Errorf("taken=%v row %d weight %d = %d, want %d", taken, r, i, got, want)
				}
			}
		}
	}
}

// TestPerceptronStaleVote: a vote cast before another branch trains the same
// row is stale, and UpdateVote must notice and recompute rather than train
// from the old output. The result must equal a plain Update.
func TestPerceptronStaleVote(t *testing.T) {
	const tables, histLen = 16, 32
	pcA, pcB := 5, 5+tables // alias onto row 5
	// B trains not-taken under A's history, flipping A's output from
	// confidently taken (no training) to confidently not-taken (a
	// misprediction that trains): a stale vote changes the decision.
	hA, hB := History(0x0F0F_1234), History(0x0F0F_1234)
	mk := func() *Perceptron {
		p := NewPerceptron(tables, histLen)
		for i := 0; i < 20; i++ {
			p.Update(pcA, hA, true) // make A's output strongly positive
		}
		return p
	}
	got, want := mk(), mk()
	v := got.Lookup(pcA, hA)
	for i := 0; i < 200; i++ {
		got.Update(pcB, hB, false)
		want.Update(pcB, hB, false)
	}
	if v.Gen == got.rows[got.index(pcA)].gen {
		t.Fatal("training the aliasing branch did not bump the row generation")
	}
	if v.Y < 0 || got.output(got.index(pcA), hA) >= 0 {
		t.Fatal("test setup: aliasing training did not flip A's vote")
	}
	got.UpdateVote(pcA, hA, true, v)
	want.Update(pcA, hA, true)
	if !reflect.DeepEqual(got, want) {
		t.Error("UpdateVote with a stale vote diverged from Update")
	}
}

// BenchmarkPerceptron measures one predict-then-update pair at the Table 1
// geometry over a seeded branch stream, the pipeline's per-branch pattern.
func BenchmarkPerceptron(b *testing.B) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(1))
	pcs, taken := make([]int, n), make([]bool, n)
	for i := range pcs {
		pcs[i] = rng.Intn(4096)
		taken[i] = rng.Intn(3) != 0
	}
	p := NewPerceptron(PerceptronDefaultTables, PerceptronDefaultHist)
	var h History
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (n - 1)
		v := p.Lookup(pcs[j], h)
		p.UpdateVote(pcs[j], h, taken[j], v)
		h = h.Push(taken[j])
	}
}

func TestPerceptronDefaults(t *testing.T) {
	p := NewPerceptron(0, 0)
	if len(p.rows) != PerceptronDefaultTables {
		t.Errorf("tables = %d", len(p.rows))
	}
	if p.histLen != PerceptronDefaultHist {
		t.Errorf("histLen = %d", p.histLen)
	}
	if len(p.w) != PerceptronDefaultTables*PerceptronDefaultHist {
		t.Errorf("packed weights = %d bytes, want 16KB", len(p.w))
	}
	hist := float64(PerceptronDefaultHist)
	if p.theta != int32(1.93*hist+14) {
		t.Errorf("theta = %d", p.theta)
	}
}

func TestGshareLearns(t *testing.T) {
	g := NewGshare(12)
	acc := trainAndScore(g, func(i int) (int, bool) { return 0x123, true }, 1000)
	// History churn during warmup costs a few indices before it saturates.
	if acc < 0.97 {
		t.Errorf("gshare always-taken accuracy = %v", acc)
	}
	g = NewGshare(12)
	acc = trainAndScore(g, func(i int) (int, bool) { return 0x123, i%2 == 0 }, 4000)
	if acc < 0.95 {
		t.Errorf("gshare alternation accuracy = %v", acc)
	}
}

func TestGshareCounterBounds(t *testing.T) {
	g := NewGshare(4)
	for i := 0; i < 10; i++ {
		g.Update(1, 0, true)
	}
	if !g.Predict(1, 0) {
		t.Error("saturated-up counter predicts not-taken")
	}
	for i := 0; i < 10; i++ {
		g.Update(1, 0, false)
	}
	if g.Predict(1, 0) {
		t.Error("saturated-down counter predicts taken")
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(16)
	if _, hit := b.Lookup(5); hit {
		t.Error("cold BTB hit")
	}
	b.Update(5, 100)
	if tgt, hit := b.Lookup(5); !hit || tgt != 100 {
		t.Errorf("lookup = %d,%v", tgt, hit)
	}
	// Aliasing: pc 5+16 maps to the same set and evicts.
	b.Update(21, 200)
	if _, hit := b.Lookup(5); hit {
		t.Error("aliased entry still hits for old pc")
	}
	if tgt, hit := b.Lookup(21); !hit || tgt != 200 {
		t.Errorf("new entry = %d,%v", tgt, hit)
	}
}

func TestRASLifo(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := 3; want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("pop = %d,%v, want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("drained RAS popped")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if got, _ := r.Pop(); got != 3 {
		t.Errorf("pop = %d, want 3", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("pop = %d, want 2", got)
	}
	if _, ok := r.Pop(); ok {
		t.Error("wrapped RAS popped a third value")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(10)
	r.Push(20)
	snap := r.Snapshot()
	r.Pop()
	r.Push(99)
	r.Push(98)
	r.Restore(snap)
	if got, ok := r.Pop(); !ok || got != 20 {
		t.Errorf("after restore pop = %d,%v, want 20", got, ok)
	}
	if got, ok := r.Pop(); !ok || got != 10 {
		t.Errorf("after restore pop = %d,%v, want 10", got, ok)
	}
}

func TestConfidenceColdIsLow(t *testing.T) {
	c := NewConfidence(0, 0, 0)
	if !c.LowConfidence(42, 0) {
		t.Error("cold estimator should report low confidence")
	}
}

func TestConfidenceBuildsUp(t *testing.T) {
	c := NewConfidence(64, 4, 14)
	for i := 0; i < 20; i++ {
		c.Update(42, 0, false)
	}
	if c.LowConfidence(42, 0) {
		t.Error("confidence not built after 20 correct predictions")
	}
	// A single misprediction must NOT drop a saturated counter below the
	// threshold (31-4=27 >= 14); sustained mispredictions must.
	c.Update(42, 0, true)
	if c.LowConfidence(42, 0) {
		t.Error("one miss flagged a well-predicted branch low-confidence")
	}
	for i := 0; i < 5; i++ {
		c.Update(42, 0, true)
	}
	if !c.LowConfidence(42, 0) {
		t.Error("sustained mispredictions did not drop confidence")
	}
	c.SetPenalty(0) // classic reset-to-zero JRS
	c.Update(42, 0, true)
	if !c.LowConfidence(42, 0) {
		t.Error("reset-mode estimator not low after miss")
	}
}

func TestConfidencePVNStats(t *testing.T) {
	c := NewConfidence(64, 4, 14)
	// 10 low-confidence updates, 4 of them mispredicted.
	for i := 0; i < 10; i++ {
		c.Update(1, 0, i < 4)
		// Keep it low-confidence by injecting a miss whenever the counter
		// would cross the threshold — with threshold 14 and only 10 updates
		// it cannot cross.
	}
	if got := c.PVN(); got != 0.4 {
		t.Errorf("PVN = %v, want 0.4", got)
	}
	if got := c.Coverage(); got != 1.0 {
		t.Errorf("Coverage = %v, want 1 (no high-conf misses)", got)
	}
	c.ResetStats()
	if c.PVN() != 0 {
		t.Error("ResetStats did not clear PVN")
	}
}

func TestConfidenceHistoryInIndex(t *testing.T) {
	c := NewConfidence(4096, 12, 14)
	// Same PC under different histories must use different counters.
	for i := 0; i < 20; i++ {
		c.Update(100, 0, false)
	}
	if c.LowConfidence(100, 0) {
		t.Fatal("not confident under trained history")
	}
	if !c.LowConfidence(100, History(0xABC)) {
		t.Error("confident under untrained history: index ignores history")
	}
}

// TestPredictorQuickDeterminism: identical update sequences produce
// identical predictions for both predictor implementations.
func TestPredictorQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		mk := func() []Predictor {
			return []Predictor{NewPerceptron(64, 16), NewGshare(10)}
		}
		a, b := mk(), mk()
		rng := rand.New(rand.NewSource(seed))
		var h History
		for i := 0; i < 500; i++ {
			pc := rng.Intn(1024)
			taken := rng.Intn(2) == 0
			for j := range a {
				if a[j].Predict(pc, h) != b[j].Predict(pc, h) {
					return false
				}
				a[j].Update(pc, h, taken)
				b[j].Update(pc, h, taken)
			}
			h = h.Push(taken)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 4096: 4096, 4097: 8192}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
