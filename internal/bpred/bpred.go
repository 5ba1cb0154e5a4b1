// Package bpred implements the front-end prediction structures of the
// baseline processor and its DMP extension (Table 1 of the paper):
//
//   - a perceptron conditional-branch predictor (Jiménez & Lin, HPCA-7),
//     16KB with 64-bit global history and 256 perceptrons;
//   - a gshare predictor, used in tests and as a smaller alternative;
//   - a 4K-entry branch target buffer;
//   - a 64-entry return address stack;
//   - an enhanced JRS confidence estimator (Jacobsen-Rotenberg-Smith,
//     refined per Grunwald et al.), 2KB, 12-bit history, threshold 14.
//
// All structures are deterministic and allocation-free in steady state. The
// caller (pipeline or profiler) owns the global history register so that it
// can maintain separate speculative and retired copies.
package bpred

import (
	"encoding/binary"
	"math/bits"
)

// History is a global branch history register: bit 0 is the most recent
// branch outcome (1 = taken).
type History uint64

// Push shifts outcome t into the history.
func (h History) Push(t bool) History {
	h <<= 1
	if t {
		h |= 1
	}
	return h
}

// Predictor is a conditional branch direction predictor.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc under
	// global history h.
	Predict(pc int, h History) bool
	// Update trains the predictor with the resolved outcome.
	Update(pc int, h History, taken bool)
}

// Perceptron is the Jiménez-Lin perceptron predictor.
//
// The history weights are packed for a word-at-a-time dot product (see
// output): row r's weight for history bit i is the byte w[r*stride+i],
// stored biased by +128 so every weight in [-127, 127] is a byte in
// [1, 255]. The stride is histLen rounded up to a multiple of 8, and the
// padding bytes hold 128 (weight 0). Beside each row sit its bias w0, the
// sum Σw of its history weights, and a generation counter that every
// training step bumps, so a caller holding a Vote can tell whether the row
// has changed since the vote was cast.
type Perceptron struct {
	w       []byte
	rows    []percRow
	stride  int
	histLen int
	hmask   uint64 // low histLen bits: the history bits the weights see
	theta   int32
}

// percRow is the per-row state kept beside the packed history weights.
type percRow struct {
	bias int32  // w0, in [-127, 127]
	sum  int32  // Σ w_i over the row's history weights (unbiased)
	gen  uint32 // incremented by every train of the row
}

// Vote is one perceptron lookup: the output y for a branch, and the
// generation of the row that produced it. Its direction is y >= 0.
type Vote struct {
	Y   int32
	Gen uint32
}

// Taken reports the vote's predicted direction.
func (v Vote) Taken() bool { return v.Y >= 0 }

// PerceptronDefaultTables and PerceptronDefaultHist match Table 1 (16KB:
// 256 entries × 65 8-bit weights).
const (
	PerceptronDefaultTables = 256
	PerceptronDefaultHist   = 64
)

// NewPerceptron creates a perceptron predictor with the given table count
// (rounded up to a power of two) and history length (max 64).
func NewPerceptron(tables, histLen int) *Perceptron {
	if tables <= 0 {
		tables = PerceptronDefaultTables
	}
	tables = ceilPow2(tables)
	if histLen <= 0 || histLen > 64 {
		histLen = PerceptronDefaultHist
	}
	stride := (histLen + 7) &^ 7
	p := &Perceptron{
		w:       make([]byte, tables*stride),
		rows:    make([]percRow, tables),
		stride:  stride,
		histLen: histLen,
		hmask:   ^uint64(0) >> (64 - histLen),
		// Training threshold from Jiménez & Lin: 1.93*h + 14.
		theta: int32(1.93*float64(histLen) + 14),
	}
	for i := range p.w {
		p.w[i] = weightBias
	}
	return p
}

// weightBias is the offset of the packed byte encoding: byte = weight + 128.
const weightBias = 128

// laneMask[b] has byte lane i set to 0xFF exactly when bit i of b is set.
var laneMask = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			if b>>i&1 != 0 {
				t[b] |= 0xFF << (8 * i)
			}
		}
	}
	return t
}()

func (p *Perceptron) index(pc int) int { return pc & (len(p.rows) - 1) }

// output computes the perceptron sum y = w0 + Σ_i (h_i ? +w_i : -w_i) of row
// r under history h, through the identity
//
//	y = w0 + 2·Σ_{h_i=1} w_i − Σw
//
// where Σw is the row's cached weight sum. The masked sum runs over the
// packed bytes eight lanes at a time: each 8-byte word is ANDed with the
// lane mask of its history byte, folded pairwise into four 16-bit lanes and
// accumulated; one multiply by 0x0001000100010001 then adds the four lanes
// into the top 16 bits. Every lane is at most 8 words × 2 bytes × 255 =
// 4080 and the four-lane total at most 16320, so nothing carries across a
// lane: the sum is exact. Subtracting 128 per set history bit removes the
// byte bias, leaving Σ_{h_i=1} w_i. All of it is exact integer arithmetic,
// so y is bit-identical to the term-by-term ±w_i sum.
func (p *Perceptron) output(r int, h History) int32 {
	hm := uint64(h) & p.hmask
	row := p.w[r*p.stride : (r+1)*p.stride]
	const lo = 0x00FF00FF00FF00FF
	var acc uint64
	for hh := hm; len(row) >= 8; hh >>= 8 {
		x := binary.LittleEndian.Uint64(row) & laneMask[byte(hh)]
		acc += x&lo + x>>8&lo
		row = row[8:]
	}
	set := int32(acc*0x0001000100010001>>48) - weightBias*int32(bits.OnesCount64(hm))
	pr := &p.rows[r]
	return pr.bias + 2*set - pr.sum
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc int, h History) bool {
	return p.output(p.index(pc), h) >= 0
}

// Lookup predicts the branch at pc under h and returns the vote, for a
// caller that will train the same branch later with UpdateVote.
func (p *Perceptron) Lookup(pc int, h History) Vote {
	r := p.index(pc)
	return Vote{Y: p.output(r, h), Gen: p.rows[r].gen}
}

// Update implements Predictor: train on misprediction or weak output.
func (p *Perceptron) Update(pc int, h History, taken bool) {
	r := p.index(pc)
	p.resolve(r, h, p.output(r, h), taken)
}

// UpdateVote is Update for a branch whose vote v was returned by Lookup with
// the same pc and h. When the row has not been trained since the lookup its
// output is still v.Y, so the dot product is not recomputed; otherwise it
// is. Either way the result is exactly that of Update.
//
// The generation is a uint32, so a stale vote could only be mistaken for a
// fresh one after 2^32 trains of its row between lookup and update. In the
// pipeline the trains in that window come from the retirement of branches
// older than the one in flight, all of which were already in the machine
// when it was fetched, so their number is bounded by the reorder buffer and
// fetch queue capacities, far below 2^32.
func (p *Perceptron) UpdateVote(pc int, h History, taken bool, v Vote) {
	r := p.index(pc)
	y := v.Y
	if v.Gen != p.rows[r].gen {
		y = p.output(r, h)
	}
	p.resolve(r, h, y, taken)
}

// PredictAndTrain predicts the branch and immediately trains on its resolved
// outcome, computing the perceptron sum once. It is exactly equivalent to
// Predict followed by Update with the same arguments; the profiler uses it
// because it resolves each branch in the same step it predicts it.
func (p *Perceptron) PredictAndTrain(pc int, h History, taken bool) bool {
	r := p.index(pc)
	return p.resolve(r, h, p.output(r, h), taken)
}

// resolve is the training decision shared by every update path: row r,
// whose output under h is y, trains toward taken on a misprediction or when
// |y| does not exceed the threshold. It returns the predicted direction.
func (p *Perceptron) resolve(r int, h History, y int32, taken bool) bool {
	pred := y >= 0
	if pred != taken || abs32(y) <= p.theta {
		p.train(r, h, taken)
	}
	return pred
}

// train applies one saturating-increment step of row r toward the outcome:
// each history weight moves +1 when its bit agrees with the outcome and -1
// otherwise, clamped to ±127 (bytes [1, 255]), and Σw follows the weights.
func (p *Perceptron) train(r int, h History, taken bool) {
	pr := &p.rows[r]
	pr.bias = int32(sat8(int8(pr.bias), taken))
	row := p.w[r*p.stride : r*p.stride+p.histLen]
	t := uint64(0)
	if taken {
		t = 1
	}
	hh := uint64(h)
	sum := pr.sum
	for i, b := range row {
		v := int32(b) + 1 - int32((hh&1)^t)<<1
		if v > weightBias+127 {
			v = weightBias + 127
		}
		if v < weightBias-127 {
			v = weightBias - 127
		}
		row[i] = byte(v)
		sum += v - int32(b)
		hh >>= 1
	}
	pr.sum = sum
	pr.gen++
}

func sat8(w int8, up bool) int8 {
	if up {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -127 {
		return w - 1
	}
	return w
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// Gshare is a classic 2-bit-counter gshare predictor.
type Gshare struct {
	ctr  []uint8
	mask History
}

// NewGshare creates a gshare predictor with 2^bits counters.
func NewGshare(bits int) *Gshare {
	if bits <= 0 || bits > 24 {
		bits = 14
	}
	return &Gshare{ctr: make([]uint8, 1<<bits), mask: History(1<<bits) - 1}
}

func (g *Gshare) index(pc int, h History) int {
	return int((History(pc) ^ h) & g.mask)
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc int, h History) bool { return g.ctr[g.index(pc, h)] >= 2 }

// Update implements Predictor.
func (g *Gshare) Update(pc int, h History, taken bool) {
	i := g.index(pc, h)
	if taken {
		if g.ctr[i] < 3 {
			g.ctr[i]++
		}
	} else if g.ctr[i] > 0 {
		g.ctr[i]--
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
