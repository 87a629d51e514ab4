package results_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/synth"
)

// TestFingerprintGolden pins Fingerprint, the content address of every
// on-disk cache entry and coalescing key, for the service's registered
// workloads and the 10⁵-node Gaussian graph of the scale benchmark. The
// values were recorded with the encoding/json encoder; a change to the
// canonical encoding that moves them would orphan every stored cell.
func TestFingerprintGolden(t *testing.T) {
	golden := []struct {
		name  string
		build func() (*core.TaskGraph, error)
		want  string
	}{
		{"synth:fft", workload("synth:fft"), "9b7692cb539af2b36e67f09ed02dba08"},
		{"synth:gaussian", workload("synth:gaussian"), "8fcb30ab1f5e134d80ef727eed66bf6e"},
		{"synth:cholesky", workload("synth:cholesky"), "b25badc61c76d066cae0af85da8b2594"},
		{"onnx:mlp", workload("onnx:mlp"), "505ef286877b74ee1b62f40766d50e73"},
		{"gaussian-100k", func() (*core.TaskGraph, error) {
			return synth.Gaussian(synth.GaussianFor(100000), rand.New(rand.NewSource(1)), synth.DefaultConfig()), nil
		}, "65cff70e9c652f666a7cc27c2f9f2124"},
	}
	for _, g := range golden {
		tg, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := results.Fingerprint(tg); got != g.want {
			t.Errorf("%s: Fingerprint = %s, pinned %s", g.name, got, g.want)
		}
	}
}

// workload builds instance 0 of a registered workload at seed 1, as the
// scheduling service does for a by-name submission.
func workload(name string) func() (*core.TaskGraph, error) {
	return func() (*core.TaskGraph, error) {
		w, err := experiments.LookupWorkload(name)
		if err != nil {
			return nil, err
		}
		return w.Build(experiments.Options{Graphs: 1, Seed: 1, Config: synth.DefaultConfig()}, 0)
	}
}
