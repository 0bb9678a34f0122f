package runtime_test

import (
	"fmt"
	"math"
	"testing"

	"kimbap/internal/algorithms"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Cross-transport equivalence: the transport moves bytes, so it may not
// change what an algorithm computes. CC labels must be bit-identical to the
// sequential reference, and Louvain assignments bit-identical to the
// in-memory Full run, for both transports at 2 and 4 hosts, in both reduce
// frame geometries. This is also the end-to-end guard on the payload codec:
// a mis-based or mis-sectioned key decodes to the wrong node and shows up
// here as a diverging label.

func transportConfigs(hosts int) []runtime.Config {
	var out []runtime.Config
	for _, tcp := range []bool{false, true} {
		out = append(out, runtime.Config{NumHosts: hosts, ThreadsPerHost: 2, UseTCP: tcp})
	}
	return out
}

func configName(cfg runtime.Config) string {
	transport := "local"
	if cfg.UseTCP {
		transport = "tcp"
	}
	return fmt.Sprintf("%s/%dh", transport, cfg.NumHosts)
}

// frameVariants covers both reduce frame geometries: Full sections each
// destination's master range, SGR+CF sections the global ID space.
var frameVariants = []npm.Variant{npm.Full, npm.SGRCF}

func TestCCEquivalentAcrossTransports(t *testing.T) {
	g := gen.RMAT(8, 5, false, 6)
	want := graph.ReferenceComponents(g)
	for _, hosts := range []int{2, 4} {
		for _, cfg := range transportConfigs(hosts) {
			cfg.Policy = partition.CVC
			t.Run(configName(cfg), func(t *testing.T) {
				for _, v := range frameVariants {
					t.Run(string(v), func(t *testing.T) {
						c, err := runtime.NewCluster(g, cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer c.Close()
						out := make([]graph.NodeID, g.NumNodes())
						c.Run(func(h *runtime.Host) {
							algorithms.CCSV(h, algorithms.Config{Variant: v}, out)
						})
						for i := range want {
							if out[i] != want[i] {
								t.Fatalf("node %d = %d, want %d", i, out[i], want[i])
							}
						}
					})
				}
			})
		}
	}
}

func TestLouvainEquivalentAcrossTransports(t *testing.T) {
	g := gen.Communities(4, 25, 4, 1, true, 13)
	for _, hosts := range []int{2, 4} {
		var ref *algorithms.CDResult
		var refName string
		for _, cfg := range transportConfigs(hosts) {
			t.Run(configName(cfg), func(t *testing.T) {
				for _, v := range frameVariants {
					name := configName(cfg) + "/" + string(v)
					t.Run(string(v), func(t *testing.T) {
						res, err := algorithms.Louvain(g, cfg,
							algorithms.Config{Variant: v}, algorithms.CDOptions{})
						if err != nil {
							t.Fatal(err)
						}
						if ref == nil {
							ref, refName = &res, name
							return
						}
						// Assignments are integers and must match exactly.
						// The modularity statistic is a float sum whose local
						// addition order varies with thread scheduling, so it
						// only agrees to round-off (the cross-host combination
						// tree itself is fixed by the recursive-doubling
						// allreduce).
						if math.Abs(res.Modularity-ref.Modularity) > 1e-9 {
							t.Fatalf("modularity %v != %s's %v",
								res.Modularity, refName, ref.Modularity)
						}
						for i := range ref.Assignment {
							if res.Assignment[i] != ref.Assignment[i] {
								t.Fatalf("node %d assigned %d, %s assigned %d",
									i, res.Assignment[i], refName, ref.Assignment[i])
							}
						}
					})
				}
			})
		}
	}
}
