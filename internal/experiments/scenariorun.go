package experiments

import (
	"vizsched/internal/core"
	"vizsched/internal/prefetch"
	"vizsched/internal/sim"
	"vizsched/internal/workload"
)

// ScenarioRun is how cmd/vizsim configures a run of a paper scenario: its
// flags, as they reach the workload and the engine. The scenario pins in
// the repository root's tests build their runs through it too, so they hold
// vizsim's own configuration.
type ScenarioRun struct {
	Tenants  int     // spread users over this many tenants; 0 is one default tenant
	Skew     float64 // Zipf exponent of tenant demand with Tenants
	Jitter   float64 // execution-time noise fraction
	Faults   float64 // chaos faults per simulated minute
	Replicas int     // replication degree k for OURS
	QoS      bool    // admission control under SweepQoSConfig
	Prefetch bool    // prefetching under prefetch.DefaultConfig
}

// TraceCap is the number of events a vizsim trace holds.
const TraceCap = 2_000_000

// Scenario is scenario id at scale with r's tenants.
func (r ScenarioRun) Scenario(id workload.ScenarioID, scale float64) workload.ScenarioConfig {
	cfg := workload.Scenario(id, scale)
	cfg.Spec.Tenants, cfg.Spec.TenantSkew = r.Tenants, r.Skew
	return cfg
}

// Config is the engine configuration of run r of scenario cfg's workload wl
// under s. Its fault schedule depends only on the scenario, the workload's
// length and the rate, so every scheduler faces the same chaos.
func (r ScenarioRun) Config(cfg workload.ScenarioConfig, wl *workload.Schedule, s core.Scheduler) sim.Config {
	ecfg := sim.ScenarioEngineConfig(cfg, s, r.Jitter)
	ecfg.Failures = FaultSchedule(cfg.Nodes, wl.Length, r.Faults, int64(cfg.ID)*104729)
	ecfg.Replicas = r.Replicas
	if r.QoS {
		ecfg.QoS = SweepQoSConfig()
	}
	if r.Prefetch {
		ecfg.Prefetch = prefetch.DefaultConfig()
	}
	return ecfg
}
