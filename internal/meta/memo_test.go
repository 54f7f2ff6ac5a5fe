package meta

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/graph"
	"qrio/internal/quantum/qasm"
	"qrio/internal/workload"
)

func TestMemoSingleflightAndLRU(t *testing.T) {
	m := newMemo[string, int](2)
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.get("a", func() (int, error) { calls.Add(1); return 7, nil })
			if v != 7 || err != nil {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 || m.misses.Load() != 1 || m.hits.Load() != 7 {
		t.Fatalf("calls=%d misses=%d hits=%d, want 1/1/7", calls.Load(), m.misses.Load(), m.hits.Load())
	}
	boom := errors.New("boom")
	if _, err := m.get("b", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("error not returned: %v", err)
	}
	m.get("a", nil) // refresh a, so b is the coldest
	m.get("c", func() (int, error) { return 3, nil })
	if m.len() != 2 || m.evictions.Load() != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", m.len(), m.evictions.Load())
	}
	if n := m.removeIf(func(k string) bool { return k == "a" }); n != 1 || m.len() != 1 {
		t.Fatalf("removeIf dropped %d, len %d", n, m.len())
	}
}

func TestMemoPanicPoisonsEntry(t *testing.T) {
	m := newMemo[string, float64](0)
	func() {
		defer func() { recover() }()
		m.get("k", func() (float64, error) { panic("engine bug") })
	}()
	if v, err := m.get("k", nil); err == nil {
		t.Fatalf("poisoned entry returned %v without error", v)
	}
}

// TestColdSweepSharesOnePreparation: the concurrent per-backend scores of
// one circuit prepare its canary ensemble once, a warm re-score does not
// touch the prepared map at all, and every score equals the estimator's
// own CanaryFidelity.
func TestColdSweepSharesOnePreparation(t *testing.T) {
	s := NewServer(Options{})
	var names []string
	for i, e2 := range []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4} {
		b, err := device.UniformBackend(fmt.Sprintf("d%d", i), graph.Line(5), e2, 0.01, 0.02, 500e3, 100e3)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterBackend(b); err != nil {
			t.Fatal(err)
		}
		names = append(names, b.Name)
	}
	src, err := qasm.Dump(workload.GHZ(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJobMeta(JobMeta{JobName: "j", Strategy: api.StrategyFidelity, TargetFidelity: 1, CircuitQASM: src}); err != nil {
		t.Fatal(err)
	}
	if j, _ := s.job("j"); j.fingerprint != s.opts.Estimator.CanaryFingerprint(src) {
		t.Fatalf("stored fingerprint %q is not the canary fingerprint", j.fingerprint)
	}
	cold := s.ScoreBatch("j", names, len(names))
	if got := s.canaries.misses.Load(); got != 1 {
		t.Fatalf("cold sweep prepared the canary %d times, want 1", got)
	}
	if got := s.canaries.hits.Load(); got != uint64(len(names)-1) {
		t.Fatalf("cold sweep shared the canary %d times, want %d", got, len(names)-1)
	}
	warm := s.ScoreBatch("j", names, len(names))
	if h, m := s.canaries.hits.Load(), s.canaries.misses.Load(); h != uint64(len(names)-1) || m != 1 {
		t.Fatalf("warm sweep touched the prepared map: hits=%d misses=%d", h, m)
	}
	c, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cold {
		if r.Error != "" || warm[i] != r {
			t.Fatalf("%s: cold %+v, warm %+v", names[i], r, warm[i])
		}
		b, _ := s.Backend(r.Backend)
		f, err := s.opts.Estimator.CanaryFidelity(c, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := (1 - f); r.Score != want {
			t.Fatalf("%s: score %v, want %v from CanaryFidelity", r.Backend, r.Score, want)
		}
	}
}

// TestWarmScoreAllocs guards the warm path: a cache hit must not re-derive
// the job's fingerprint or touch the scoring engines.
func TestWarmScoreAllocs(t *testing.T) {
	s := NewServer(Options{Estimator: fidelity.Estimator{Shots: 256, Seed: 1}})
	b, err := device.UniformBackend("d", graph.Line(3), 0.05, 0.01, 0.02, 500e3, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterBackend(b)
	src, _ := qasm.Dump(workload.GHZ(2))
	s.PutJobMeta(JobMeta{JobName: "j", Strategy: api.StrategyFidelity, TargetFidelity: 0.9, CircuitQASM: src})
	if _, err := s.Score("j", "d"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Score("j", "d"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Score allocates %v times per call, want 0", allocs)
	}
}
