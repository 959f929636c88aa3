package scheme

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fieldmat"
	"repro/internal/shard"
	"repro/internal/simnet"
)

func TestValidateAcceptsTheDefaults(t *testing.T) {
	if err := NewConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestValidateRejectsImpossibleConfigs(t *testing.T) {
	badSim := simnet.Config{}
	rebalance := func(rc shard.RebalanceConfig) Config { return NewConfig(WithRebalance(rc)) }
	cases := []struct {
		name  string
		cfg   Config
		field string
		// knob, when set, is the RebalanceConfig field the reason must name:
		// every rebalance rule reports under the one field "Rebalance".
		knob string
	}{
		{"zero workers", NewConfig(WithCoding(0, 1)), "N", ""},
		{"negative workers", NewConfig(WithCoding(-3, 1)), "N", ""},
		{"zero blocks", NewConfig(WithCoding(12, 0)), "K", ""},
		{"K exceeds N", NewConfig(WithCoding(9, 12)), "K", ""},
		{"negative straggler budget", NewConfig(WithBudgets(-1, 1, 0)), "S", ""},
		{"negative Byzantine budget", NewConfig(WithBudgets(1, -1, 0)), "M", ""},
		{"negative privacy budget", NewConfig(WithBudgets(1, 1, -1)), "T", ""},
		{"budgets exceed redundancy", NewConfig(WithCoding(12, 9), WithBudgets(2, 2, 0)), "S+M", ""},
		{"broken latency model", NewConfig(WithSim(badSim)), "Sim", ""},
		{"negative shard groups", NewConfig(WithShards(-2)), "Shards", ""},
		{"negative EWMA alpha", rebalance(shard.RebalanceConfig{Alpha: -0.1}), "Rebalance", "Alpha"},
		{"EWMA alpha above one", rebalance(shard.RebalanceConfig{Alpha: 1.5}), "Rebalance", "Alpha"},
		{"trigger ratio at one", rebalance(shard.RebalanceConfig{Ratio: 1}), "Rebalance", "Ratio"},
		{"negative min groups", rebalance(shard.RebalanceConfig{MinGroups: -1}), "Rebalance", "MinGroups"},
		{"negative max groups", rebalance(shard.RebalanceConfig{MaxGroups: -1}), "Rebalance", "MaxGroups"},
		{"min groups exceed max", rebalance(shard.RebalanceConfig{MinGroups: 3, MaxGroups: 2}), "Rebalance", "exceeds MaxGroups"},
		{"negative scale-up depth", rebalance(shard.RebalanceConfig{ScaleUpDepth: -1}), "Rebalance", "ScaleUpDepth"},
		{"negative scale-down depth", rebalance(shard.RebalanceConfig{ScaleDownDepth: -1}), "Rebalance", "ScaleDownDepth"},
		{"negative scale-up wall", rebalance(shard.RebalanceConfig{ScaleUpWall: -1}), "Rebalance", "ScaleUpWall"},
		{"negative scale-down ticks", rebalance(shard.RebalanceConfig{ScaleDownTicks: -1}), "Rebalance", "ScaleDownTicks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			var cfgErr *InvalidConfigError
			if !errors.As(err, &cfgErr) {
				t.Fatalf("error %v is not an *InvalidConfigError", err)
			}
			if cfgErr.Field != tc.field {
				t.Fatalf("error names field %q, want %q (%v)", cfgErr.Field, tc.field, err)
			}
			if !strings.Contains(cfgErr.Reason, tc.knob) {
				t.Fatalf("reason %q does not name %s", cfgErr.Reason, tc.knob)
			}
		})
	}
}

// TestNewRejectsInvalidConfigForEveryScheme pins the contract that
// validation happens centrally in scheme.New — no backend constructor runs
// on an impossible Config, and callers can errors.As the rejection
// regardless of the scheme name.
func TestNewRejectsInvalidConfigForEveryScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := fieldmat.Rand(f, rng, 36, 10)
	bad := NewConfig(WithCoding(9, 12)) // K > N
	for _, name := range Names() {
		if _, err := New(name, f, bad, map[string]*fieldmat.Matrix{"fwd": x}, nil, nil); err == nil {
			t.Fatalf("%s accepted K > N", name)
		} else {
			var cfgErr *InvalidConfigError
			if !errors.As(err, &cfgErr) {
				t.Fatalf("%s returned %v, want a typed *InvalidConfigError", name, err)
			}
		}
	}
}

// TestNewRejectsInfeasibleShardPlans pins the shard-specific rejections New
// adds on top of Validate: a block-structured scheme whose K the group
// count does not divide, and a group count larger than the matrix has rows.
// Both are admission-time caller errors, so both must be typed.
func TestNewRejectsInfeasibleShardPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))

	gram := fieldmat.Rand(f, rng, 64, 16)
	_, err := New("gavcc", f, NewConfig(WithCoding(10, 4), WithShards(3)),
		map[string]*fieldmat.Matrix{"gram": gram}, nil, nil)
	var cfgErr *InvalidConfigError
	if !errors.As(err, &cfgErr) || cfgErr.Field != "Shards" {
		t.Fatalf("gavcc with 3 shards over K = 4 returned %v, want a Shards-typed rejection", err)
	}

	tiny := fieldmat.Rand(f, rng, 3, 10)
	_, err = New("avcc", f, NewConfig(WithShards(4)),
		map[string]*fieldmat.Matrix{"fwd": tiny}, nil, nil)
	if !errors.As(err, &cfgErr) || cfgErr.Field != "Shards" {
		t.Fatalf("4 shards over a 3-row matrix returned %v, want a Shards-typed rejection", err)
	}
}
