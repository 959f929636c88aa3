package scheme

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/attack"
	"repro/internal/avcc"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/scenario"
)

// Constructor builds a backend's master. data maps round keys to the full
// (unencoded) input matrices — {"fwd": X, "bwd": Xᵀ} for the two-round
// training protocols, {"gram": X} for the Gram backend. behaviors may be nil
// (all honest) or exactly WorkerCount long; stragglers may be nil.
type Constructor func(f *field.Field, cfg Config, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (Master, error)

type entry struct {
	build Constructor
	// workerCount reports how many workers the backend deploys under cfg,
	// so callers can size behaviour slices before construction.
	workerCount func(Config) int
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]entry)
)

// Register adds a backend under name. workerCount reports the deployment's
// worker count for a given Config (nil means cfg.N). Registering a name
// twice panics: scheme names are experiment-table identities, and silently
// rebinding one would corrupt cross-run comparisons.
func Register(name string, workerCount func(Config) int, build Constructor) {
	if build == nil {
		panic(fmt.Sprintf("scheme: nil constructor for %q", name))
	}
	if workerCount == nil {
		workerCount = func(cfg Config) int { return cfg.N }
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheme: %q registered twice", name))
	}
	registry[name] = entry{build: build, workerCount: workerCount}
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func lookup(name string) (entry, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	if !ok {
		return entry{}, fmt.Errorf("scheme: unknown scheme %q (registered: %v)", name, Names())
	}
	return e, nil
}

// WorkerCount reports how many workers the named scheme deploys under cfg —
// the length a non-nil behaviors slice must have.
func WorkerCount(name string, cfg Config) (int, error) {
	e, err := lookup(name)
	if err != nil {
		return 0, err
	}
	return e.workerCount(cfg), nil
}

// New constructs the named scheme's master. It is the single construction
// path for every backend; callers never touch the per-package constructors.
// cfg is validated first (typed *InvalidConfigError on rejection), so no
// backend ever sees an impossible configuration. When cfg.Scenario is set,
// the scenario is attached after construction — uniformly, so a backend
// registered tomorrow is scenario-capable today. When cfg.Shards > 1 the
// same applies per shard group: New splits the data row-wise, builds one
// registry-backed master per group (each with its own seed stream and
// scenario engine), and returns the fan-out master from internal/shard.
//
// The data matrices are retained, read-only, for the master's lifetime: the
// master keeps them to re-encode, and the systematic coded shards of a
// T = 0 code are views of their rows (lcc.Code.EncodeMatrix). Never write
// into data after New; a changed matrix is a new deployment.
func New(name string, f *field.Field, cfg Config, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (Master, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Modulus != 0 && cfg.Modulus != f.Q() {
		return nil, &InvalidConfigError{"Modulus",
			fmt.Sprintf("= %d but the supplied field has q = %d: resolve the field with scheme.FieldFor", cfg.Modulus, f.Q())}
	}
	if cfg.Shards > 1 || cfg.Rebalance != nil || len(cfg.GroupScenarios) > 0 {
		return newSharded(e, name, f, cfg, data, behaviors, stragglers)
	}
	m, err := e.build(f, cfg, data, behaviors, stragglers)
	if err != nil {
		return nil, err
	}
	if cfg.Scenario != nil {
		if err := attachScenario(m, f, cfg, stragglers); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// attachScenario compiles cfg.Scenario and threads it through a freshly
// built master: every worker's behaviour is wrapped so scenario Byzantine
// flips corrupt its output, and the executor is replaced with a virtual
// executor carrying the engine as its Dynamics. The replacement executor is
// built exactly as every backend builds its own (same workers, same
// straggler schedule, seed+1 jitter stream), so a scenario-free run and a
// Steady-scenario run produce identical timings.
func attachScenario(m Master, f *field.Field, cfg Config, stragglers attack.StragglerSchedule) error {
	eng, err := scenario.NewEngine(cfg.Scenario)
	if err != nil {
		return fmt.Errorf("scheme: %w", err)
	}
	workers := m.Workers()
	for _, w := range workers {
		w.Behavior = eng.WrapBehavior(w.ID, w.Behavior)
	}
	exec := cluster.NewVirtualExecutor(f, cfg.Sim, workers, stragglers, cfg.Seed+1)
	exec.Dynamics = eng
	m.SetExecutor(exec)
	return nil
}

func init() {
	avccOptions := func(cfg Config, dynamic bool) avcc.Options {
		return avcc.Options{
			Params: avcc.Params{
				N: cfg.N, K: cfg.K, S: cfg.S, M: cfg.M, T: cfg.T,
				DegF: cfg.DegF, VerifyTrials: cfg.VerifyTrials,
			},
			Sim:                 cfg.Sim,
			Seed:                cfg.Seed,
			Dynamic:             dynamic,
			PregeneratedCodings: cfg.PregeneratedCodings,
			Receipts:            cfg.Receipts,
			DeterministicKeys:   cfg.DeterministicKeys,
		}
	}
	Register("avcc", nil, func(f *field.Field, cfg Config, data map[string]*fieldmat.Matrix,
		behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (Master, error) {
		return avcc.NewMaster(f, avccOptions(cfg, cfg.Dynamic), data, behaviors, stragglers)
	})
	// static-vcc is the paper's non-adaptive comparison point: the same
	// verified master with re-coding forced off, whatever cfg.Dynamic says.
	Register("static-vcc", nil, func(f *field.Field, cfg Config, data map[string]*fieldmat.Matrix,
		behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (Master, error) {
		return avcc.NewMaster(f, avccOptions(cfg, false), data, behaviors, stragglers)
	})
	Register("gavcc", nil, func(f *field.Field, cfg Config, data map[string]*fieldmat.Matrix,
		behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (Master, error) {
		x, ok := data[gavcc.GramKey]
		if !ok || len(data) != 1 {
			return nil, fmt.Errorf("scheme: gavcc wants exactly one data matrix under %q, got keys %v",
				gavcc.GramKey, dataKeys(data))
		}
		return gavcc.NewMaster(f, gavcc.Options{
			N: cfg.N, K: cfg.K, S: cfg.S, M: cfg.M, T: cfg.T,
			Sim: cfg.Sim, Seed: cfg.Seed,
			Receipts: cfg.Receipts, DeterministicKeys: cfg.DeterministicKeys,
		}, x, behaviors, stragglers)
	})
	Register("lcc", nil, func(f *field.Field, cfg Config, data map[string]*fieldmat.Matrix,
		behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (Master, error) {
		return baseline.NewLCCMaster(f, baseline.LCCOptions{
			N: cfg.N, K: cfg.K, S: cfg.S, M: cfg.M, T: cfg.T,
			DegF: cfg.DegF, Sim: cfg.Sim, Seed: cfg.Seed,
			Receipts: cfg.Receipts,
		}, data, behaviors, stragglers)
	})
	// The uncoded baseline deploys exactly K workers (no redundancy).
	Register("uncoded", func(cfg Config) int { return cfg.K },
		func(f *field.Field, cfg Config, data map[string]*fieldmat.Matrix,
			behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (Master, error) {
			return baseline.NewUncodedMaster(f, baseline.UncodedOptions{
				K: cfg.K, Sim: cfg.Sim, Seed: cfg.Seed,
				Receipts: cfg.Receipts,
			}, data, behaviors, stragglers)
		})
}

func dataKeys(data map[string]*fieldmat.Matrix) []string {
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
