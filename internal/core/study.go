package core

import (
	"fmt"
	"time"

	"wearwild/internal/simtime"
	"wearwild/internal/stream"

	"wearwild/internal/gen/sim"
)

// Config controls the study.
type Config struct {
	// SessionGap is the usage boundary (§5.1). Zero selects the paper's
	// one minute.
	SessionGap time.Duration
	// CDFPoints bounds the resolution of exported CDF series.
	CDFPoints int
	// Workers bounds analysis parallelism (0 = one worker per CPU).
	// Results are byte-identical at every setting.
	Workers int
}

// DefaultConfig returns the paper's analysis parameters.
func DefaultConfig() Config {
	return Config{SessionGap: time.Minute, CDFPoints: 200}
}

// withDefaults resolves zero fields to the paper's parameters.
func (c Config) withDefaults() Config {
	if c.SessionGap <= 0 {
		c.SessionGap = time.Minute
	}
	if c.CDFPoints <= 0 {
		c.CDFPoints = 200
	}
	return c
}

// RunDataset executes the full analysis over a resident dataset: RunStream
// over its logs, with the dataset's substrate as the environment. Each call
// streams through a fresh engine, so repeated runs are independent and
// byte-identical.
func RunDataset(ds *sim.Dataset, cfg Config) (*Results, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	return RunStream(Env{Devices: ds.Devices, Topology: ds.Topology, Catalog: ds.Catalog},
		&stream.Logs{Proxy: &ds.Proxy, MME: &ds.MME, UDR: &ds.UDR}, cfg)
}

// detailWeeks is the number of weeks in the detail window.
func detailWeeks() int { return simtime.Detail().Weeks() }
