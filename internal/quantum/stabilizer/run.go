package stabilizer

import (
	"fmt"
	"math"
	"math/rand"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
)

// opcode names one instruction of a lowered circuit: a tableau primitive
// every Clifford gate reduces to, or a shot-level step only Runner
// programs contain.
type opcode uint8

const (
	opH opcode = iota
	opS
	opX // opX, opY, opZ stay consecutive: pauli indexes them
	opY
	opZ
	opCX
	// opMeasure measures qubit a into key position b; opMeasureNoisy then
	// flips the outcome with probability p.
	opMeasure
	opMeasureNoisy
	// opReset measures qubit a and flips it back to |0>.
	opReset
	// opNoise1 and opNoise2 sample the depolarizing channel with error
	// probability p after a gate on a (and b).
	opNoise1
	opNoise2
)

// instr is one lowered instruction.
type instr struct {
	op   opcode
	a, b int
	p    float64
}

// ApplyGate applies a unitary Clifford gate from the circuit vocabulary.
// Parameterised gates are accepted when their angles are multiples of π/2.
// Non-Clifford gates return an error: callers should cliffordize first.
func (t *Tableau) ApplyGate(g circuit.Gate) error {
	var buf [8]instr
	prog, err := appendGate(buf[:0], g, t.n)
	if err != nil {
		return err
	}
	for _, in := range prog {
		t.apply(in)
	}
	return nil
}

// apply executes one tableau primitive.
func (t *Tableau) apply(in instr) {
	switch in.op {
	case opH:
		t.H(in.a)
	case opS:
		t.S(in.a)
	case opX:
		t.X(in.a)
	case opY:
		t.Y(in.a)
	case opZ:
		t.Z(in.a)
	case opCX:
		t.CX(in.a, in.b)
	}
}

// pauli applies Pauli k (1..3 = X, Y, Z; 0 = identity) on qubit a.
func (t *Tableau) pauli(a, k int) {
	if k > 0 {
		t.apply(instr{op: opX + opcode(k-1), a: a})
	}
}

// appendGate lowers a unitary Clifford gate on an n-qubit register to
// tableau primitives, appending them to dst. The primitive sequences are
// the gates' definitions: sdg = Z·S, cz = H·CX·H, swap = three CX, and so
// on.
func appendGate(dst []instr, g circuit.Gate, n int) ([]instr, error) {
	for _, q := range g.Qubits {
		if q < 0 || q >= n {
			return nil, fmt.Errorf("stabilizer: qubit %d out of range (n=%d)", q, n)
		}
	}
	q := g.Qubits
	one := func(ops ...opcode) []instr {
		for _, op := range ops {
			dst = append(dst, instr{op: op, a: q[0]})
		}
		return dst
	}
	cx := func(a, b int) { dst = append(dst, instr{op: opCX, a: a, b: b}) }
	switch g.Name {
	case circuit.GateID, circuit.GateBarrier:
		return dst, nil
	case circuit.GateX:
		return one(opX), nil
	case circuit.GateY:
		return one(opY), nil
	case circuit.GateZ:
		return one(opZ), nil
	case circuit.GateH:
		return one(opH), nil
	case circuit.GateS:
		return one(opS), nil
	case circuit.GateSdg:
		return one(opZ, opS), nil
	case circuit.GateSX: // sqrt(X) = H·S·H up to global phase
		return one(opH, opS, opH), nil
	case circuit.GateCX:
		cx(q[0], q[1])
	case circuit.GateCZ:
		dst = append(dst, instr{op: opH, a: q[1]})
		cx(q[0], q[1])
		dst = append(dst, instr{op: opH, a: q[1]})
	case circuit.GateCY:
		dst = append(dst, instr{op: opZ, a: q[1]}, instr{op: opS, a: q[1]})
		cx(q[0], q[1])
		dst = append(dst, instr{op: opS, a: q[1]})
	case circuit.GateSwap:
		cx(q[0], q[1])
		cx(q[1], q[0])
		cx(q[0], q[1])
	case circuit.GateU1, circuit.GateP, circuit.GateRZ:
		return appendRotation(dst, q[0], g.Params[0], &rzTurns)
	case circuit.GateRX:
		return appendRotation(dst, q[0], g.Params[0], &rxTurns)
	case circuit.GateRY:
		return appendRotation(dst, q[0], g.Params[0], &ryTurns)
	case circuit.GateU2:
		return appendU3(dst, q[0], math.Pi/2, g.Params[0], g.Params[1])
	case circuit.GateU3:
		return appendU3(dst, q[0], g.Params[0], g.Params[1], g.Params[2])
	default:
		return nil, fmt.Errorf("%w: %q", errNotClifford, g.Name)
	}
	return dst, nil
}

// quarterTurns converts an angle to its multiple of π/2 mod 4, or errors.
func quarterTurns(a float64) (int, error) {
	k := a / (math.Pi / 2)
	r := math.Round(k)
	if math.Abs(k-r) > 1e-7 {
		return 0, fmt.Errorf("%w: angle %g is not a multiple of π/2", errNotClifford, a)
	}
	m := int(r) % 4
	if m < 0 {
		m += 4
	}
	return m, nil
}

// Quarter-turn tables: rotation k·π/2 about each axis lowers to the
// primitives at index k (mod 4).
var (
	rzTurns = [4][]opcode{nil, {opS}, {opZ}, {opZ, opS}}
	// rx(π/2) ≅ sqrt(X) = H·S·H up to global phase.
	rxTurns = [4][]opcode{nil, {opH, opS, opH}, {opX}, {opH, opZ, opS, opH}}
	// ry(π/2) ≅ H·Z: conjugation Z→X, X→-Z.
	ryTurns = [4][]opcode{nil, {opZ, opH}, {opY}, {opH, opZ}}
)

// appendRotation appends a rotation by angle a about the axis whose
// quarter-turn table is turns.
func appendRotation(dst []instr, q int, a float64, turns *[4][]opcode) ([]instr, error) {
	m, err := quarterTurns(a)
	if err != nil {
		return nil, err
	}
	for _, op := range turns[m] {
		dst = append(dst, instr{op: op, a: q})
	}
	return dst, nil
}

// appendU3 uses u3(θ,φ,λ) ≅ rz(φ)·ry(θ)·rz(λ) up to global phase.
func appendU3(dst []instr, q int, theta, phi, lambda float64) ([]instr, error) {
	dst, err := appendRotation(dst, q, lambda, &rzTurns)
	if err != nil {
		return nil, err
	}
	if dst, err = appendRotation(dst, q, theta, &ryTurns); err != nil {
		return nil, err
	}
	return appendRotation(dst, q, phi, &rzTurns)
}

// Runner executes Clifford circuits shot-by-shot, optionally under a Pauli
// + readout noise model. It supports mid-circuit measurement and reset.
type Runner struct {
	Model *noise.Model // nil means noiseless
	Shots int
	Seed  int64
}

// Counts returns a histogram over classical bitstrings. When the circuit
// has no measurements every qubit is measured at the end in qubit order.
// Keys use the Qiskit convention: clbit 0 is the rightmost character.
// Registers beyond 64 bits are supported (the fleet has 100-qubit devices).
//
// The circuit is lowered once, then every shot resets one tableau and
// replays the program, so allocation grows with the number of distinct
// outcomes rather than with shots.
func (r Runner) Counts(c *circuit.Circuit) (map[string]int, error) {
	if r.Shots <= 0 {
		return nil, fmt.Errorf("stabilizer: Shots must be positive, got %d", r.Shots)
	}
	prog, nc, err := r.lower(c)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	t := New(c.NumQubits)
	key := make([]byte, nc)
	// Tallies live behind pointers so a repeated outcome is counted by a
	// map lookup, which (unlike an assignment) does not copy the key.
	tally := make(map[string]*int)
	for shot := 0; shot < r.Shots; shot++ {
		for i := range key {
			key[i] = '0'
		}
		t.reset()
		t.runShot(prog, rng, key)
		if n := tally[string(key)]; n != nil {
			*n++
		} else {
			first := 1
			tally[string(key)] = &first
		}
	}
	counts := make(map[string]int, len(tally))
	for k, n := range tally {
		counts[k] = *n
	}
	return counts, nil
}

// lower compiles the circuit into one shot's program and returns it with
// the classical register width. Every gate's primitives and error
// probabilities are resolved here once; the program draws from the RNG in
// exactly the order the gates would, so counts for a seed do not depend
// on the lowering.
func (r Runner) lower(c *circuit.Circuit) ([]instr, int, error) {
	hasMeasure := c.HasMeasurements()
	nc := c.NumClbits
	if !hasMeasure {
		nc = c.NumQubits
	}
	var prog []instr
	measure := func(q, pos int) {
		if r.Model == nil {
			prog = append(prog, instr{op: opMeasure, a: q, b: nc - 1 - pos})
		} else {
			prog = append(prog, instr{op: opMeasureNoisy, a: q, b: nc - 1 - pos, p: r.Model.ReadoutProb(q)})
		}
	}
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateBarrier:
			continue
		case circuit.GateReset:
			prog = append(prog, instr{op: opReset, a: g.Qubits[0]})
			continue
		case circuit.GateMeasure:
			measure(g.Qubits[0], g.Clbits[0])
			continue
		}
		var err error
		if prog, err = appendGate(prog, g, c.NumQubits); err != nil {
			return nil, 0, err
		}
		if r.Model != nil && g.Name != circuit.GateID {
			switch q := g.Qubits; len(q) {
			case 1:
				prog = append(prog, instr{op: opNoise1, a: q[0], p: r.Model.OneQubitProb(q[0])})
			case 2:
				prog = append(prog, instr{op: opNoise2, a: q[0], b: q[1], p: r.Model.TwoQubitProb(q[0], q[1])})
			}
		}
	}
	if !hasMeasure {
		for q := 0; q < c.NumQubits; q++ {
			measure(q, q)
		}
	}
	return prog, nc, nil
}

// runShot executes one trajectory from |0...0>, writing outcome bits into
// key.
func (t *Tableau) runShot(prog []instr, rng *rand.Rand, key []byte) {
	for _, in := range prog {
		switch in.op {
		case opMeasure, opMeasureNoisy:
			bit := t.Measure(in.a, rng)
			if in.op == opMeasureNoisy && rng.Float64() < in.p {
				bit ^= 1
			}
			key[in.b] = '0' + byte(bit)
		case opReset:
			t.Reset(in.a, rng)
		case opNoise1:
			t.pauli(in.a, noise.DrawOneQubit(in.p, rng))
		case opNoise2:
			pa, pb := noise.DrawTwoQubit(in.p, rng)
			t.pauli(in.a, pa)
			t.pauli(in.b, pb)
		default:
			t.apply(in)
		}
	}
}

// FormatBits renders a basis index as a Qiskit-style bitstring (bit 0
// rightmost); identical convention to package statevec.
func FormatBits(index, nbits int) string {
	b := make([]byte, nbits)
	for i := 0; i < nbits; i++ {
		if index&(1<<uint(i)) != 0 {
			b[nbits-1-i] = '1'
		} else {
			b[nbits-1-i] = '0'
		}
	}
	return string(b)
}

// ParseBits inverts FormatBits.
func ParseBits(s string) (int, error) {
	v := 0
	for i := 0; i < len(s); i++ {
		bit := s[len(s)-1-i]
		switch bit {
		case '1':
			v |= 1 << uint(i)
		case '0':
		default:
			return 0, fmt.Errorf("stabilizer: bad bitstring %q", s)
		}
	}
	return v, nil
}

// OutcomeProbability returns the exact probability that a noiseless run of
// the Clifford circuit produces the given classical bitstring. For circuits
// without measurements the bitstring covers all qubits. Probabilities of
// stabilizer states are always of the form 2^-k (or 0), so this is exact.
func OutcomeProbability(c *circuit.Circuit, bits string) (float64, error) {
	hasMeasure := c.HasMeasurements()
	if hasMeasure && len(bits) != c.NumClbits {
		return 0, fmt.Errorf("stabilizer: bitstring length %d != %d clbits", len(bits), c.NumClbits)
	}
	if !hasMeasure && len(bits) != c.NumQubits {
		return 0, fmt.Errorf("stabilizer: bitstring length %d != %d qubits", len(bits), c.NumQubits)
	}
	bitAt := func(pos int) (int, error) {
		switch bits[len(bits)-1-pos] {
		case '0':
			return 0, nil
		case '1':
			return 1, nil
		}
		return 0, fmt.Errorf("stabilizer: bad bitstring %q", bits)
	}
	t := New(c.NumQubits)
	prob := 1.0
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.GateBarrier:
			continue
		case circuit.GateReset:
			return 0, fmt.Errorf("stabilizer: OutcomeProbability does not support reset")
		case circuit.GateMeasure:
			want, err := bitAt(g.Clbits[0])
			if err != nil {
				return 0, err
			}
			prob *= t.ForcedMeasure(g.Qubits[0], want)
			if prob == 0 {
				return 0, nil
			}
			continue
		}
		if err := t.ApplyGate(g); err != nil {
			return 0, err
		}
	}
	if !hasMeasure {
		for q := 0; q < c.NumQubits; q++ {
			want, err := bitAt(q)
			if err != nil {
				return 0, err
			}
			prob *= t.ForcedMeasure(q, want)
			if prob == 0 {
				return 0, nil
			}
		}
	}
	return prob, nil
}
