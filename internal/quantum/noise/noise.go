// Package noise models device noise for QRIO's simulated backends.
//
// The model mirrors the calibration surface the paper's vendors must
// publish for every node (§3.1): per-qubit single-qubit gate error, per-edge
// two-qubit gate error, and per-qubit readout error. Gate errors are treated
// as depolarizing channels realised by Monte-Carlo Pauli sampling, which
// keeps the identical model usable by both the dense state-vector simulator
// and the polynomial-time stabilizer simulator (Pauli errors are Clifford).
package noise

import (
	"fmt"
	"math/rand"
)

// Pauli identifies a single-qubit Pauli error.
type Pauli byte

const (
	PauliX Pauli = 'X'
	PauliY Pauli = 'Y'
	PauliZ Pauli = 'Z'
)

// Error is a Pauli error on one qubit.
type Error struct {
	Qubit int
	Pauli Pauli
}

// Model holds the error rates of one device.
//
// The zero value is a noiseless model. All probabilities are in [0, 1).
type Model struct {
	NumQubits int
	// OneQubit[q] is the depolarizing probability after a 1-qubit gate on q.
	OneQubit []float64
	// TwoQubit[edge] is the depolarizing probability after a 2-qubit gate on
	// the normalised (low, high) qubit pair.
	TwoQubit map[[2]int]float64
	// TwoQubitDefault applies to pairs missing from TwoQubit (e.g. after a
	// routing bug); keeping it high makes such bugs visible in fidelity.
	TwoQubitDefault float64
	// Readout[q] is the classical bit-flip probability when measuring q.
	Readout []float64
}

// Noiseless returns a model with zero error everywhere.
func Noiseless(n int) *Model {
	return &Model{NumQubits: n}
}

// Uniform returns a model with uniform error rates; handy in tests.
func Uniform(n int, e1, e2, ro float64) *Model {
	m := &Model{
		NumQubits:       n,
		OneQubit:        make([]float64, n),
		Readout:         make([]float64, n),
		TwoQubit:        map[[2]int]float64{},
		TwoQubitDefault: e2,
	}
	for q := 0; q < n; q++ {
		m.OneQubit[q] = e1
		m.Readout[q] = ro
	}
	return m
}

// Validate checks all probabilities are within [0, 1].
func (m *Model) Validate() error {
	check := func(p float64, what string) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("noise: %s probability %g out of [0,1]", what, p)
		}
		return nil
	}
	for q, p := range m.OneQubit {
		if err := check(p, fmt.Sprintf("1q[%d]", q)); err != nil {
			return err
		}
	}
	for e, p := range m.TwoQubit {
		if err := check(p, fmt.Sprintf("2q[%d-%d]", e[0], e[1])); err != nil {
			return err
		}
	}
	for q, p := range m.Readout {
		if err := check(p, fmt.Sprintf("readout[%d]", q)); err != nil {
			return err
		}
	}
	return check(m.TwoQubitDefault, "2q default")
}

// NormPair returns the normalised (low, high) qubit pair key.
func NormPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// OneQubitProb returns the error probability for a one-qubit gate on q.
func (m *Model) OneQubitProb(q int) float64 {
	if q < len(m.OneQubit) {
		return m.OneQubit[q]
	}
	return 0
}

// TwoQubitProb returns the error probability for a gate on pair (a, b).
func (m *Model) TwoQubitProb(a, b int) float64 {
	if m.TwoQubit != nil {
		if p, ok := m.TwoQubit[NormPair(a, b)]; ok {
			return p
		}
	}
	return m.TwoQubitDefault
}

// ReadoutProb returns the readout flip probability of qubit q.
func (m *Model) ReadoutProb(q int) float64 {
	if q < len(m.Readout) {
		return m.Readout[q]
	}
	return 0
}

var paulis = [3]Pauli{PauliX, PauliY, PauliZ}

// SampleGateError draws the Pauli errors (possibly none) that follow one
// gate application on the given qubits. One-qubit gates use the depolarizing
// channel {I: 1-p, X/Y/Z: p/3 each}; two-qubit gates use the 16-element
// two-qubit depolarizing channel with the 15 non-identity Paulis equally
// likely. Gates on 3+ qubits are charged one two-qubit error per qubit pair
// (they should have been decomposed before execution anyway).
func (m *Model) SampleGateError(qubits []int, rng *rand.Rand) []Error {
	if m == nil {
		return nil
	}
	switch len(qubits) {
	case 0:
		return nil
	case 1:
		q := qubits[0]
		k := DrawOneQubit(m.OneQubitProb(q), rng)
		if k == 0 {
			return nil
		}
		return []Error{{Qubit: q, Pauli: paulis[k-1]}}
	case 2:
		return m.sampleTwoQubit(qubits[0], qubits[1], rng)
	default:
		var errs []Error
		for i := 0; i < len(qubits); i++ {
			for j := i + 1; j < len(qubits); j++ {
				errs = append(errs, m.sampleTwoQubit(qubits[i], qubits[j], rng)...)
			}
		}
		return errs
	}
}

// DrawOneQubit samples the one-qubit depolarizing channel with error
// probability p: 0 for no error, otherwise 1, 2 or 3 for X, Y or Z. It is
// SampleGateError's draw for one qubit, for callers that must not allocate.
func DrawOneQubit(p float64, rng *rand.Rand) int {
	if rng.Float64() >= p {
		return 0
	}
	return 1 + rng.Intn(3)
}

// DrawTwoQubit samples the two-qubit depolarizing channel with error
// probability p, returning the Pauli on each qubit (0 = I, 1..3 = X, Y, Z).
// An error is one of the 15 non-identity two-qubit Paulis, uniformly.
func DrawTwoQubit(p float64, rng *rand.Rand) (pa, pb int) {
	if rng.Float64() >= p {
		return 0, 0
	}
	k := rng.Intn(15) + 1 // 1..15, base-4 digits (pa, pb), never (0,0)
	return k % 4, k / 4
}

func (m *Model) sampleTwoQubit(a, b int, rng *rand.Rand) []Error {
	pa, pb := DrawTwoQubit(m.TwoQubitProb(a, b), rng)
	var errs []Error
	if pa > 0 {
		errs = append(errs, Error{Qubit: a, Pauli: paulis[pa-1]})
	}
	if pb > 0 {
		errs = append(errs, Error{Qubit: b, Pauli: paulis[pb-1]})
	}
	return errs
}

// FlipReadout applies classical readout error in place: bits[i] is the
// measured value of qubit qubits[i] and flips with Readout[qubit].
func (m *Model) FlipReadout(qubits []int, bits []int, rng *rand.Rand) {
	if m == nil {
		return
	}
	for i, q := range qubits {
		if rng.Float64() < m.ReadoutProb(q) {
			bits[i] ^= 1
		}
	}
}

// AverageTwoQubit returns the mean two-qubit error over known edges,
// falling back to the default when no edges are recorded.
func (m *Model) AverageTwoQubit() float64 {
	if len(m.TwoQubit) == 0 {
		return m.TwoQubitDefault
	}
	s := 0.0
	for _, p := range m.TwoQubit {
		s += p
	}
	return s / float64(len(m.TwoQubit))
}
