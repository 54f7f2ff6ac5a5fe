package fidelity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qrio/internal/device"
	"qrio/internal/quantum/circuit"
	"qrio/internal/transpile"
	"qrio/internal/workload"
)

// ensembleDigest hashes an ensemble gate for gate: name, operands, exact
// angles and classical targets of every gate of every member, in order.
func ensembleDigest(members []*circuit.Circuit) string {
	h := sha256.New()
	for _, m := range members {
		fmt.Fprintf(h, "member %d/%d|", m.NumQubits, m.NumClbits)
		for _, g := range m.Gates {
			fmt.Fprintf(h, "%s %v %v %v|", g.Name, g.Qubits, g.Params, g.Clbits)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// pinnedEnsembles are circuits with the digest of the canary ensemble
// selectCanaries picked for them at the default ensemble size, recorded
// before canary preparation was split from per-device scoring.
var pinnedEnsembles = []struct {
	name string
	c    *circuit.Circuit
	want string
}{
	{"bv7", workload.BernsteinVazirani(7, 45), "c6a3a2e0f052e68c"},
	{"qaoa4", workload.QAOARing(4, 1, 3), "1ef27bf9dc213b98"},
	{"rc4", workload.RandomCircuit("rc", 4, 5, 8), "358cf0da11b80da5"},
	{"circ", workload.Circ(), "16fc9b07c9239cd1"},
	{"ghz5", workload.GHZ(5), "48896ceaa81dd2ee"},
	{"qft4", workload.QFT(4), "b148880aad744aa9"},
}

// TestPreparedEnsembleMatchesSelection: the prepared ensemble is exactly
// what selectCanaries picks for the decomposed, measured circuit, and that
// is the pinned selection.
func TestPreparedEnsembleMatchesSelection(t *testing.T) {
	for _, tc := range pinnedEnsembles {
		selected := selectCanaries(ensureMeasured(tc.c).Decompose(), Estimator{}.canarySize())
		if got := ensembleDigest(selected); got != tc.want {
			t.Errorf("%s: selectCanaries digest %s, want %s", tc.name, got, tc.want)
		}
		p := Estimator{}.PrepareCanary(tc.c)
		prepared := make([]*circuit.Circuit, len(p.members))
		for i, m := range p.members {
			prepared[i] = m.c
		}
		if !reflect.DeepEqual(prepared, selected) {
			t.Errorf("%s: prepared ensemble differs from selectCanaries", tc.name)
		}
	}
}

// exactEstimator skips the VF2 layout search: it builds the circuit's
// interaction graph in map order, so which of several perfect embeddings
// it finds first (and hence the score) can differ between two calls. The
// greedy layout is deterministic, which lets these tests compare scores
// exactly.
func exactEstimator(seed int64) Estimator {
	return Estimator{Shots: 1024, Seed: seed, Transpile: transpile.Options{DisableVF2Layout: true}}
}

// scoringFleet is a handful of devices of different sizes and densities.
func scoringFleet(t *testing.T) []*device.Backend {
	t.Helper()
	var fleet []*device.Backend
	for i, spec := range []struct {
		n int
		p float64
	}{{7, 0.3}, {15, 0.1}, {15, 0.7}, {20, 0.45}, {20, 0.15}, {27, 0.54}, {27, 0.2}, {35, 0.89}} {
		b, err := device.GenerateBackend(fmt.Sprintf("d%d", i), spec.n, spec.p, device.DefaultFleetSpec(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, b)
	}
	return fleet
}

// TestScoreCanaryMatchesCanaryFidelity: scoring a canary prepared once is
// bit-identical to preparing it afresh for every device, whatever order
// the devices fill the ideal-probability memo in.
func TestScoreCanaryMatchesCanaryFidelity(t *testing.T) {
	fleet := scoringFleet(t)
	e := exactEstimator(9)
	for _, tc := range pinnedEnsembles[:3] {
		p := e.PrepareCanary(tc.c)
		for i := len(fleet) - 1; i >= 0; i-- {
			b := fleet[i]
			shared, err1 := e.ScoreCanary(p, b)
			fresh, err2 := e.CanaryFidelity(tc.c, b)
			if (err1 == nil) != (err2 == nil) || shared != fresh {
				t.Fatalf("%s on %s: shared canary %v (%v), fresh %v (%v)", tc.name, b.Name, shared, err1, fresh, err2)
			}
		}
	}
}

// TestScoreCanaryConcurrent scores one prepared canary from 8 goroutines,
// each on its own device, and expects the serial results exactly (run
// under -race, it also checks the shared memo and distance caches).
func TestScoreCanaryConcurrent(t *testing.T) {
	fleet := scoringFleet(t)
	e := exactEstimator(4)
	c := workload.QAOARing(4, 1, 11)
	serial := make([]float64, len(fleet))
	for i, b := range fleet {
		f, err := e.ScoreCanary(e.PrepareCanary(c), b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		serial[i] = f
	}
	p := e.PrepareCanary(c)
	got := make([]float64, len(fleet))
	var wg sync.WaitGroup
	for i, b := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := e.ScoreCanary(p, b)
			if err != nil {
				t.Errorf("%s: %v", b.Name, err)
			}
			got[i] = f
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(got, serial) {
		t.Fatalf("concurrent scores %v, serial %v", got, serial)
	}
}
