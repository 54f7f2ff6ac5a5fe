// Package stabilizer implements the Aaronson–Gottesman CHP tableau
// simulator for Clifford circuits (Gottesman–Knill theorem). It is the
// engine behind QRIO's fidelity-ranking strategy (§3.4.1): Clifford
// "canary" versions of user circuits are simulated here in polynomial time
// — both noiselessly (for the reference distribution) and under sampled
// Pauli noise (for the per-device canary fidelity) — even at the fleet's
// 100-qubit device sizes where dense simulation is impossible.
//
// Runner.Counts does the per-circuit work once per call: it lowers every
// gate to tableau primitives and resolves its error probabilities, then
// replays that program shot after shot on one tableau reset in place. The
// work shared across devices — choosing canaries and their exact ideal
// outcome probabilities (OutcomeProbability) — is memoised a layer up, by
// package fidelity; each device costs one noisy Counts per canary.
package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Tableau is the stabilizer tableau of an n-qubit state. Rows 0..n-1 are
// destabilizer generators, rows n..2n-1 stabilizer generators, and row 2n a
// scratch row used during measurement. Bits are packed into uint64 words,
// each part one contiguous block (xs, zs) that x and z slice into rows:
// gates stride through the block, row operations use the row slices.
type Tableau struct {
	n      int
	words  int
	x, z   [][]uint64 // X- and Z-part bits, (2n+1) rows
	xs, zs []uint64   // the blocks behind x and z
	r      []uint8    // sign bits (0 = +, 1 = -)
}

// New returns the tableau of |0...0>: destabilizers X_i, stabilizers Z_i.
func New(n int) *Tableau {
	if n < 0 {
		panic("stabilizer: negative qubit count")
	}
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	rows := 2*n + 1
	t := &Tableau{
		n: n, words: words,
		x: make([][]uint64, rows), z: make([][]uint64, rows),
		xs: make([]uint64, rows*words), zs: make([]uint64, rows*words),
		r: make([]uint8, rows),
	}
	for i := range t.x {
		t.x[i] = t.xs[i*words : (i+1)*words : (i+1)*words]
		t.z[i] = t.zs[i*words : (i+1)*words : (i+1)*words]
	}
	t.reset()
	return t
}

// reset returns the tableau to |0...0> in place, so a shot loop can reuse
// one tableau instead of allocating a new one per shot.
func (t *Tableau) reset() {
	clear(t.xs)
	clear(t.zs)
	clear(t.r)
	for i := 0; i < t.n; i++ {
		setBit(t.x[i], i)     // destabilizer i = X_i
		setBit(t.z[i+t.n], i) // stabilizer i = Z_i
	}
}

// NumQubits returns the register size.
func (t *Tableau) NumQubits() int { return t.n }

// Copy returns a deep copy of the tableau.
func (t *Tableau) Copy() *Tableau {
	c := New(t.n)
	copy(c.xs, t.xs)
	copy(c.zs, t.zs)
	copy(c.r, t.r)
	return c
}

func setBit(w []uint64, i int) { w[i>>6] |= 1 << uint(i&63) }
func getBit(w []uint64, i int) uint8 {
	return uint8((w[i>>6] >> uint(i&63)) & 1)
}

// The gates below visit qubit a's word in every generator row by striding
// through the xs and zs blocks from index a>>6, with a's bit at shift sh.

// H applies a Hadamard on qubit a.
func (t *Tableau) H(a int) {
	sh := uint(a & 63)
	for i, k := 0, a>>6; i < 2*t.n; i, k = i+1, k+t.words {
		x, z := t.xs[k], t.zs[k]
		flip := (x ^ z) & (1 << sh) // swap the bits only when they differ
		t.r[i] ^= uint8(x & z >> sh & 1)
		t.xs[k] = x ^ flip
		t.zs[k] = z ^ flip
	}
}

// S applies the phase gate diag(1, i) on qubit a.
func (t *Tableau) S(a int) {
	sh := uint(a & 63)
	for i, k := 0, a>>6; i < 2*t.n; i, k = i+1, k+t.words {
		x, z := t.xs[k], t.zs[k]
		t.r[i] ^= uint8(x & z >> sh & 1)
		t.zs[k] = z ^ x&(1<<sh)
	}
}

// Sdg applies S† = diag(1, -i) on qubit a.
func (t *Tableau) Sdg(a int) {
	t.Z(a)
	t.S(a)
}

// X applies a Pauli X on qubit a.
func (t *Tableau) X(a int) {
	sh := uint(a & 63)
	for i, k := 0, a>>6; i < 2*t.n; i, k = i+1, k+t.words {
		t.r[i] ^= uint8(t.zs[k] >> sh & 1)
	}
}

// Z applies a Pauli Z on qubit a.
func (t *Tableau) Z(a int) {
	sh := uint(a & 63)
	for i, k := 0, a>>6; i < 2*t.n; i, k = i+1, k+t.words {
		t.r[i] ^= uint8(t.xs[k] >> sh & 1)
	}
}

// Y applies a Pauli Y on qubit a.
func (t *Tableau) Y(a int) {
	sh := uint(a & 63)
	for i, k := 0, a>>6; i < 2*t.n; i, k = i+1, k+t.words {
		t.r[i] ^= uint8((t.xs[k] ^ t.zs[k]) >> sh & 1)
	}
}

// CX applies controlled-X with control a and target b.
func (t *Tableau) CX(a, b int) {
	sa, sb := uint(a&63), uint(b&63)
	for i, ka, kb := 0, a>>6, b>>6; i < 2*t.n; i, ka, kb = i+1, ka+t.words, kb+t.words {
		xa, za := t.xs[ka]>>sa&1, t.zs[ka]>>sa&1
		xb, zb := t.xs[kb]>>sb&1, t.zs[kb]>>sb&1
		t.r[i] ^= uint8(xa & zb & (xb ^ za ^ 1))
		t.xs[kb] ^= xa << sb
		t.zs[ka] ^= zb << sa
	}
}

// CZ applies controlled-Z on the pair (a, b).
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CX(a, b)
	t.H(b)
}

// Swap exchanges qubits a and b.
func (t *Tableau) Swap(a, b int) {
	t.CX(a, b)
	t.CX(b, a)
	t.CX(a, b)
}

// SX applies sqrt(X) (equal to H·S·H up to global phase).
func (t *Tableau) SX(a int) {
	t.H(a)
	t.S(a)
	t.H(a)
}

// rowsum multiplies generator row i into row h, tracking the sign. The
// phase exponent sums, over qubits, the contribution g of multiplying
// single-qubit Pauli (x1,z1) of row i into (x2,z2) of row h (Aaronson &
// Gottesman, PRA 70, 052328 (2004)): +1 for X·Y, Y·Z and Z·X, -1 for the
// reverse orders, 0 otherwise. Each word counts its +1 and -1 qubits at
// once.
func (t *Tableau) rowsum(h, i int) {
	phase := 2*int(t.r[h]) + 2*int(t.r[i])
	for w := 0; w < t.words; w++ {
		x1, z1 := t.x[i][w], t.z[i][w]
		x2, z2 := t.x[h][w], t.z[h][w]
		plus := x1&z1&z2&^x2 | x1&^z1&x2&z2 | z1&^x1&x2&^z2
		minus := x1&z1&x2&^z2 | x1&^z1&z2&^x2 | z1&^x1&x2&z2
		phase += bits.OnesCount64(plus) - bits.OnesCount64(minus)
		t.x[h][w] = x2 ^ x1
		t.z[h][w] = z2 ^ z1
	}
	phase = ((phase % 4) + 4) % 4
	if phase == 0 {
		t.r[h] = 0
	} else {
		t.r[h] = 1 // phase is guaranteed to be 0 or 2 for valid tableaus
	}
}

// anticommutingStabilizer returns the first stabilizer row index p in
// [n, 2n) whose X part has bit a set, or -1 when the measurement of Z_a is
// deterministic.
func (t *Tableau) anticommutingStabilizer(a int) int {
	for p := t.n; p < 2*t.n; p++ {
		if getBit(t.x[p], a) == 1 {
			return p
		}
	}
	return -1
}

// Measure performs a Z-basis measurement of qubit a, collapsing the state.
// rng supplies the coin for random outcomes.
func (t *Tableau) Measure(a int, rng *rand.Rand) int {
	p := t.anticommutingStabilizer(a)
	if p < 0 {
		return t.deterministicOutcome(a)
	}
	out := uint8(rng.Intn(2))
	t.collapse(a, p, out)
	return int(out)
}

// ForcedMeasure measures qubit a forcing the given outcome. It returns the
// probability of that outcome (1, 0.5 or 0); on probability 0 the state is
// left untouched.
func (t *Tableau) ForcedMeasure(a, outcome int) float64 {
	p := t.anticommutingStabilizer(a)
	if p < 0 {
		if t.deterministicOutcome(a) == outcome {
			return 1
		}
		return 0
	}
	t.collapse(a, p, uint8(outcome))
	return 0.5
}

// deterministicOutcome computes the determined measurement value of Z_a
// using the scratch row.
func (t *Tableau) deterministicOutcome(a int) int {
	scratch := 2 * t.n
	for w := 0; w < t.words; w++ {
		t.x[scratch][w] = 0
		t.z[scratch][w] = 0
	}
	t.r[scratch] = 0
	for i := 0; i < t.n; i++ {
		if getBit(t.x[i], a) == 1 {
			t.rowsum(scratch, i+t.n)
		}
	}
	return int(t.r[scratch])
}

// collapse performs the random-outcome measurement update: p is an
// anticommuting stabilizer row and out the chosen outcome bit.
func (t *Tableau) collapse(a, p int, out uint8) {
	for i := 0; i < 2*t.n; i++ {
		if i != p && getBit(t.x[i], a) == 1 {
			t.rowsum(i, p)
		}
	}
	// Destabilizer p-n becomes the old stabilizer row p.
	d := p - t.n
	copy(t.x[d], t.x[p])
	copy(t.z[d], t.z[p])
	t.r[d] = t.r[p]
	// Stabilizer p becomes ±Z_a with the measured sign.
	for w := 0; w < t.words; w++ {
		t.x[p][w] = 0
		t.z[p][w] = 0
	}
	setBit(t.z[p], a)
	t.r[p] = out
}

// Reset measures qubit a and flips it to |0> when the outcome was 1.
func (t *Tableau) Reset(a int, rng *rand.Rand) {
	if t.Measure(a, rng) == 1 {
		t.X(a)
	}
}

// String renders the stabilizer generators for debugging.
func (t *Tableau) String() string {
	out := ""
	for i := t.n; i < 2*t.n; i++ {
		if t.r[i] == 1 {
			out += "-"
		} else {
			out += "+"
		}
		for j := 0; j < t.n; j++ {
			x, z := getBit(t.x[i], j), getBit(t.z[i], j)
			switch {
			case x == 1 && z == 1:
				out += "Y"
			case x == 1:
				out += "X"
			case z == 1:
				out += "Z"
			default:
				out += "I"
			}
		}
		out += "\n"
	}
	return out
}

var errNotClifford = fmt.Errorf("stabilizer: gate is not Clifford")
