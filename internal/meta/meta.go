// Package meta implements the QRIO Meta Server (§3.4): it stores the
// per-job metadata of Table 1 (fidelity target plus the original circuit,
// or the user's topology circuit), keeps the vendor backend files for every
// node, and answers scoring requests from the scheduler's ranking plugin —
// dispatching to the Fidelity Ranking strategy (Clifford canaries,
// §3.4.1) or the Topology Ranking strategy (Mapomatic, §3.4.2).
package meta

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"qrio/internal/cluster/api"
	"qrio/internal/device"
	"qrio/internal/fidelity"
	"qrio/internal/mapomatic"
	"qrio/internal/par"
	"qrio/internal/quantum/qasm"
)

// JobMeta is the metadata the Visualizer uploads per Table 1.
type JobMeta struct {
	JobName  string       `json:"jobName"`
	Strategy api.Strategy `json:"strategy"`
	// Fidelity strategy: the target in (0,1] and the original circuit.
	TargetFidelity float64 `json:"targetFidelity,omitempty"`
	CircuitQASM    string  `json:"circuitQASM,omitempty"`
	// Topology strategy: the user-drawn topology as a pseudo-circuit.
	TopologyQASM string `json:"topologyQASM,omitempty"`
}

// Validate checks the metadata against Table 1's contract.
func (m JobMeta) Validate() error {
	if m.JobName == "" {
		return fmt.Errorf("meta: job metadata without job name")
	}
	switch m.Strategy {
	case api.StrategyFidelity:
		if m.TargetFidelity <= 0 || m.TargetFidelity > 1 {
			return fmt.Errorf("meta: job %s fidelity %g out of (0,1]", m.JobName, m.TargetFidelity)
		}
		if m.CircuitQASM == "" {
			return fmt.Errorf("meta: job %s fidelity strategy needs the circuit", m.JobName)
		}
	case api.StrategyTopology:
		if m.TopologyQASM == "" {
			return fmt.Errorf("meta: job %s topology strategy needs the topology circuit", m.JobName)
		}
	default:
		return fmt.Errorf("meta: job %s unknown strategy %q", m.JobName, m.Strategy)
	}
	return nil
}

// Options tunes the server's scoring engines.
type Options struct {
	// Estimator drives canary simulation (zero value = 256 shots, seed 1).
	Estimator fidelity.Estimator
	// Mapomatic bounds the topology layout search.
	Mapomatic mapomatic.Options
	// OverTargetPenalty discounts fidelity overshoot: a device whose
	// canary fidelity exceeds the target scores (F−target)·penalty so
	// "loosely matching" devices are preferred over wastefully good ones
	// with penalty < 1 (§3.4.1's "loosely match"). Default 0.25.
	OverTargetPenalty float64
	// DisableScoreCache recomputes every score's simulation or layout
	// search — the seed's per-job behaviour, kept as an ablation/benchmark
	// baseline. (A circuit's prepared canary ensemble is still shared.)
	DisableScoreCache bool
	// CacheMaxEntries bounds the score cache with LRU eviction. Before
	// the cap, entries lived until the backend recalibrated — a fleet
	// seeing many distinct circuits grew the cache without bound. 0 means
	// the generous default (DefaultCacheMaxEntries); negative disables
	// the cap entirely. Evictions surface in CacheStats.
	CacheMaxEntries int
}

// DefaultCacheMaxEntries is the score cache's default LRU capacity —
// roomy enough that a fleet-wide sweep of hundreds of distinct circuits
// stays fully cached, while a long-lived deployment no longer grows
// without bound.
const DefaultCacheMaxEntries = 65536

// preparedCanaryCap bounds the prepared-canary map. A circuit's ensemble
// is only needed while its first fleet sweep is in flight (the sweep's
// scores land in the score cache), so a few dozen covers every job being
// ranked at once.
const preparedCanaryCap = 64

// cacheKey identifies one memoised scoring-engine result: which backend,
// which calibration generation of it, and the engine-input fingerprint
// (circuit source + engine options).
type cacheKey struct {
	backend     string
	gen         uint64
	fingerprint string
}

// jobEntry is a job's stored metadata plus its engine-input fingerprint,
// computed once at upload rather than on every (job, backend) score.
type jobEntry struct {
	meta        JobMeta
	fingerprint string
}

// Server is the Meta Server's core. It is safe for concurrent use and is
// exposed over REST by Handler (see http.go).
type Server struct {
	opts Options

	mu       sync.RWMutex
	backends map[string]*device.Backend
	jobs     map[string]jobEntry
	// generations counts calibration uploads per backend; re-registering a
	// backend bumps it, invalidating every cached score for that device.
	generations map[string]uint64

	// scores memoises the expensive scoring engines (canary simulation,
	// subgraph layout search) per (backend, generation, fingerprint),
	// bounded by Options.CacheMaxEntries with LRU eviction.
	scores *memo[cacheKey, float64]
	// canaries holds prepared canary ensembles by fingerprint, so the
	// concurrent per-backend scores of one circuit share one preparation.
	canaries *memo[string, *fidelity.Canary]

	cacheInvalidations atomic.Uint64
}

// NewServer builds a Meta Server.
func NewServer(opts Options) *Server {
	if opts.Estimator.Shots <= 0 {
		// The best devices in a fleet differ by only a few percent in
		// canary fidelity; the ranking needs a healthy shot budget to
		// separate them (stabilizer shots are cheap).
		opts.Estimator = fidelity.Estimator{Shots: 2048, Seed: 1}
	}
	if opts.OverTargetPenalty <= 0 {
		opts.OverTargetPenalty = 0.25
	}
	cacheCap := opts.CacheMaxEntries
	switch {
	case cacheCap == 0:
		cacheCap = DefaultCacheMaxEntries
	case cacheCap < 0:
		cacheCap = 0
	}
	return &Server{
		opts:        opts,
		backends:    make(map[string]*device.Backend),
		jobs:        make(map[string]jobEntry),
		generations: make(map[string]uint64),
		scores:      newMemo[cacheKey, float64](cacheCap),
		canaries:    newMemo[string, *fidelity.Canary](preparedCanaryCap),
	}
}

// RegisterBackend stores (a copy of the pointer to) a vendor backend file.
// Re-registering a known backend models a calibration refresh: the
// backend's generation advances and its cached scores are dropped.
func (s *Server) RegisterBackend(b *device.Backend) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("meta: rejecting backend: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backends[b.Name] = b
	s.generations[b.Name]++
	n := s.scores.removeIf(func(k cacheKey) bool { return k.backend == b.Name })
	s.cacheInvalidations.Add(uint64(n))
	return nil
}

// Generation reports how many times a backend has been registered; cached
// scores are only shared within one generation.
func (s *Server) Generation(backendName string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.generations[backendName]
}

// CacheStats is the score cache's lifetime counters plus its current
// size: Hits/Misses from lookups, Evictions from the LRU cap,
// Invalidations from calibration refreshes (a re-registered backend
// dropping its entries — deliberately not counted as evictions: they
// measure calibration churn, not cache pressure), Entries resident
// right now.
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations uint64
	Entries                                int
}

// CacheStats returns the score cache's counters.
func (s *Server) CacheStats() CacheStats {
	return CacheStats{
		Hits:          s.scores.hits.Load(),
		Misses:        s.scores.misses.Load(),
		Evictions:     s.scores.evictions.Load(),
		Invalidations: s.cacheInvalidations.Load(),
		Entries:       s.scores.len(),
	}
}

// cached memoises compute under (backendName, gen, fingerprint), where
// gen is the calibration generation the caller read together with the
// backend. Concurrent callers for the same key compute once.
func (s *Server) cached(backendName string, gen uint64, fingerprint string, compute func() (float64, error)) (float64, error) {
	if s.opts.DisableScoreCache {
		return compute()
	}
	return s.scores.get(cacheKey{backend: backendName, gen: gen, fingerprint: fingerprint}, compute)
}

// Backend returns a registered backend.
func (s *Server) Backend(name string) (*device.Backend, error) {
	b, _, err := s.backendWithGen(name)
	return b, err
}

// backendWithGen returns a backend together with its current calibration
// generation, read atomically: scorers must key the cache with the
// generation of the exact calibration they computed against, or a
// concurrent re-registration could cache a stale score under the fresh
// generation.
func (s *Server) backendWithGen(name string) (*device.Backend, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.backends[name]
	if !ok {
		return nil, 0, fmt.Errorf("meta: unknown backend %q", name)
	}
	return b, s.generations[name], nil
}

// BackendNames lists registered backends.
func (s *Server) BackendNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.backends))
	for n := range s.backends {
		out = append(out, n)
	}
	return out
}

// PutJobMeta stores job metadata (Table 1 upload).
func (s *Server) PutJobMeta(m JobMeta) error {
	if err := m.Validate(); err != nil {
		return err
	}
	// The QASM payloads must parse — reject garbage at the door.
	if m.CircuitQASM != "" {
		if _, err := qasm.Parse(m.CircuitQASM); err != nil {
			return fmt.Errorf("meta: job %s circuit does not parse: %w", m.JobName, err)
		}
	}
	if m.TopologyQASM != "" {
		if _, err := qasm.Parse(m.TopologyQASM); err != nil {
			return fmt.Errorf("meta: job %s topology does not parse: %w", m.JobName, err)
		}
	}
	j := jobEntry{meta: m}
	switch m.Strategy {
	case api.StrategyFidelity:
		j.fingerprint = s.opts.Estimator.CanaryFingerprint(m.CircuitQASM)
	case api.StrategyTopology:
		j.fingerprint = s.opts.Mapomatic.Fingerprint(m.TopologyQASM)
	}
	s.mu.Lock()
	s.jobs[m.JobName] = j
	s.mu.Unlock()
	return nil
}

// JobMeta returns stored metadata.
func (s *Server) JobMeta(jobName string) (JobMeta, error) {
	j, err := s.job(jobName)
	return j.meta, err
}

func (s *Server) job(jobName string) (jobEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[jobName]
	if !ok {
		return jobEntry{}, fmt.Errorf("meta: no metadata for job %q", jobName)
	}
	return j, nil
}

// Score answers a scoring request: the job's strategy decides the engine
// (§3.4: "checks the database if a fidelity threshold exists for the job").
// Lower scores are better.
func (s *Server) Score(jobName, backendName string) (float64, error) {
	j, err := s.job(jobName)
	if err != nil {
		return 0, err
	}
	b, gen, err := s.backendWithGen(backendName)
	if err != nil {
		return 0, err
	}
	switch j.meta.Strategy {
	case api.StrategyFidelity:
		return s.fidelityScore(j, b, gen)
	case api.StrategyTopology:
		return s.topologyScore(j, b, gen)
	}
	return 0, fmt.Errorf("meta: job %s has unknown strategy %q", jobName, j.meta.Strategy)
}

// fidelityScore implements the Fidelity Ranking strategy: estimate the
// canary fidelity on the device and measure the miss against the target.
// The canary simulation — the expensive part — is memoised per (circuit
// fingerprint, backend, calibration generation), so jobs re-submitting the
// same circuit pay it once per fleet calibration; the cheap target
// comparison stays outside the cache so jobs sharing a circuit but not a
// target still share the simulation. On a miss, the circuit's canary
// ensemble is prepared once and shared by every backend's score.
func (s *Server) fidelityScore(j jobEntry, b *device.Backend, gen uint64) (float64, error) {
	f, err := s.cached(b.Name, gen, j.fingerprint, func() (float64, error) {
		canary, err := s.canaries.get(j.fingerprint, func() (*fidelity.Canary, error) {
			c, err := qasm.Parse(j.meta.CircuitQASM)
			if err != nil {
				return nil, err
			}
			return s.opts.Estimator.PrepareCanary(c), nil
		})
		if err != nil {
			return 0, err
		}
		return s.opts.Estimator.ScoreCanary(canary, b)
	})
	if err != nil {
		return 0, err
	}
	m := j.meta
	if f >= m.TargetFidelity {
		return (f - m.TargetFidelity) * s.opts.OverTargetPenalty, nil
	}
	return m.TargetFidelity - f, nil
}

// topologyScore implements the Topology Ranking strategy via Mapomatic,
// with the subgraph search memoised per (topology fingerprint, backend,
// calibration generation).
func (s *Server) topologyScore(j jobEntry, b *device.Backend, gen uint64) (float64, error) {
	cost, err := s.cached(b.Name, gen, j.fingerprint, func() (float64, error) {
		tc, err := qasm.Parse(j.meta.TopologyQASM)
		if err != nil {
			return 0, err
		}
		score, err := mapomatic.BestLayout(tc, b, s.opts.Mapomatic)
		if err != nil {
			return 0, err
		}
		return score.Cost, nil
	})
	if err != nil {
		return 0, err
	}
	if math.IsInf(cost, 1) {
		return 0, fmt.Errorf("meta: backend %s cannot host job %s topology", b.Name, j.meta.JobName)
	}
	return cost, nil
}

// BatchResult is one backend's outcome in a ScoreBatch call.
type BatchResult struct {
	Backend string  `json:"backend"`
	Score   float64 `json:"score"`
	Error   string  `json:"error,omitempty"`
}

// ScoreBatch scores one job against many candidate backends concurrently
// (bounded by workers; 0 = GOMAXPROCS) and returns results in input order.
// Combined with the score cache this turns fleet-wide ranking from
// |fleet| serial simulations into one parallel sweep whose repeats are
// free until the next calibration upload.
func (s *Server) ScoreBatch(jobName string, backendNames []string, workers int) []BatchResult {
	out := make([]BatchResult, len(backendNames))
	par.ForEach(len(backendNames), workers, func(i int) {
		score, err := s.Score(jobName, backendNames[i])
		out[i] = BatchResult{Backend: backendNames[i], Score: score}
		if err != nil {
			out[i].Error = err.Error()
		}
	})
	return out
}

// Scorer is the dependency the scheduler's ranking plugin needs: anything
// that can score a (job, backend) pair. *Server and the HTTP Client both
// satisfy it.
type Scorer interface {
	Score(jobName, backendName string) (float64, error)
}

var _ Scorer = (*Server)(nil)
