package stabilizer_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"qrio/internal/quantum/circuit"
	"qrio/internal/quantum/noise"
	"qrio/internal/quantum/stabilizer"
)

// countsDigest renders a histogram as sorted "bits=n;" pairs and hashes it,
// so a pinned case fits on one line whatever its register width.
func countsDigest(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d;", k, counts[k])
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

// everyCliffordGate exercises every gate the tableau engine lowers,
// including the π/2-multiple rotations and both signs of each angle.
func everyCliffordGate() *circuit.Circuit {
	c := circuit.New(3)
	c.H(0)
	c.RX(1, math.Pi/2)
	c.RY(2, 3*math.Pi/2)
	c.CX(0, 1)
	c.U3(0, math.Pi/2, math.Pi, -math.Pi/2)
	c.U2(1, 0, math.Pi/2)
	c.MustAppend(circuit.Gate{Name: circuit.GateSX, Qubits: []int{2}})
	c.Sdg(0)
	c.MustAppend(circuit.Gate{Name: circuit.GateCY, Qubits: []int{2, 0}})
	c.CZ(1, 2)
	c.Swap(0, 2)
	c.MustAppend(circuit.Gate{Name: circuit.GateID, Qubits: []int{1}})
	c.MustAppend(circuit.Gate{Name: circuit.GateP, Qubits: []int{1}, Params: []float64{math.Pi}})
	c.RZ(2, -math.Pi/2)
	c.RX(0, -math.Pi/2)
	c.RX(1, math.Pi)
	c.RY(2, math.Pi/2)
	c.RY(0, math.Pi)
	c.U1(2, 3*math.Pi/2)
	c.Y(1)
	c.Z(2)
	c.X(0)
	c.S(1)
	c.Barrier(0, 1, 2)
	c.MeasureAll()
	return c
}

func ghz(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	c.MeasureAll()
	return c
}

// midCircuit measures and resets before the end, into a register wider
// than the measured qubits.
func midCircuit() *circuit.Circuit {
	c := circuit.NewWithClbits(3, 4)
	c.H(0)
	c.CX(0, 1)
	c.Measure(1, 3)
	c.Reset(1)
	c.H(1)
	c.CX(1, 2)
	c.Measure(0, 0)
	c.Measure(2, 1)
	return c
}

// unmeasured has no measurements, so Counts measures every qubit.
func unmeasured() *circuit.Circuit {
	c := circuit.New(4)
	c.H(0)
	c.H(2)
	c.CX(0, 1)
	c.CZ(2, 3)
	c.S(3)
	return c
}

func skewedModel() *noise.Model {
	m := noise.Uniform(3, 0.05, 0.2, 0.1)
	m.OneQubit[1] = 0.15
	m.Readout[2] = 0.3
	m.TwoQubit[noise.NormPair(0, 1)] = 0.02
	m.TwoQubit[noise.NormPair(1, 2)] = 0.4
	return m
}

// TestCountsPinned pins Runner.Counts histograms for fixed seeds. The
// digests were recorded from the shot-by-shot engine that reallocated the
// tableau and re-dispatched every gate on each shot; any change to the
// engine must keep the RNG draw order and so reproduce them exactly.
func TestCountsPinned(t *testing.T) {
	cases := []struct {
		name  string
		c     *circuit.Circuit
		model *noise.Model
		shots int
		seed  int64
		want  string
	}{
		{"bell-noiseless", ghz(2), nil, 500, 3, "5b3476ace11ed72a"},
		{"ghz5-uniform", ghz(5), noise.Uniform(5, 0.02, 0.08, 0.05), 1000, 7, "c868e010d2176db8"},
		{"every-gate-noiseless", everyCliffordGate(), nil, 700, 11, "28f12c0a3fe0419a"},
		{"every-gate-skewed", everyCliffordGate(), skewedModel(), 700, 11, "a51ed19947633efe"},
		{"mid-circuit-reset", midCircuit(), noise.Uniform(3, 0.03, 0.1, 0.04), 400, 5, "05e5ba0c30e1efe4"},
		{"unmeasured", unmeasured(), noise.Uniform(4, 0.01, 0.05, 0.02), 300, 9, "2fd97b7fc871f01d"},
		{"ghz70-wide-register", ghz(70), noise.Uniform(70, 0.001, 0.004, 0.002), 60, 13, "31b666858ff0576e"},
		{"zero-noise-model", ghz(3), noise.Noiseless(3), 200, 17, "73a51a70e4cf7328"},
	}
	for _, tc := range cases {
		counts, err := stabilizer.Runner{Model: tc.model, Shots: tc.shots, Seed: tc.seed}.Counts(tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != tc.shots {
			t.Fatalf("%s: counts sum to %d, want %d", tc.name, total, tc.shots)
		}
		if got := countsDigest(counts); got != tc.want {
			t.Errorf("%s: counts digest %s, want %s (%d outcomes)", tc.name, got, tc.want, len(counts))
		}
	}
}

// TestCountsRejectsNonClifford keeps the error path: a non-Clifford gate
// fails the whole run rather than being skipped.
func TestCountsRejectsNonClifford(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	c.T(0)
	c.MeasureAll()
	if _, err := (stabilizer.Runner{Shots: 10, Seed: 1}).Counts(c); err == nil {
		t.Fatal("t gate accepted")
	}
	c = circuit.New(1)
	c.RZ(0, 0.3)
	if _, err := (stabilizer.Runner{Shots: 10, Seed: 1, Model: noise.Uniform(1, 0.1, 0.1, 0.1)}).Counts(c); err == nil {
		t.Fatal("rz(0.3) accepted")
	}
}

// TestCountsAllocsIndependentOfShots guards the shot loop: allocation must
// grow with the number of distinct outcomes, never with shots. A Bell
// circuit has two outcomes at any shot count.
func TestCountsAllocsIndependentOfShots(t *testing.T) {
	c := ghz(2)
	allocs := func(shots int) float64 {
		r := stabilizer.Runner{Shots: shots, Seed: 21}
		return testing.AllocsPerRun(20, func() {
			if counts, err := r.Counts(c); err != nil || len(counts) != 2 {
				t.Fatalf("counts %v, err %v", counts, err)
			}
		})
	}
	few, many := allocs(64), allocs(1024)
	if many != few {
		t.Fatalf("Counts allocates %v times at 64 shots but %v at 1024", few, many)
	}
}
