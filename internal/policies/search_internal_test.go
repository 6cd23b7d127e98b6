package policies

import (
	"testing"

	"ghost/internal/hw"
	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// bestCPUScan is the reference placement bestCPU replaced: an ascending
// walk over the candidates scoring each by topo.Dist, first best wins,
// stopping at the first same-core hit.
func (p *Search) bestCPUScan(topo *hw.Topology, last hw.CPUID, cand kernel.Mask) (hw.CPUID, hw.Distance) {
	best := hw.NoCPU
	bestDist := hw.DistRemote + 1
	cand.ForEach(func(cpu hw.CPUID) bool {
		var d hw.Distance
		switch {
		case last == hw.NoCPU || (!p.CCXAware && !p.NUMAAware):
			d = hw.DistCCX
		default:
			d = topo.Dist(last, cpu)
			if !p.CCXAware && d <= hw.DistSocket {
				d = hw.DistCCX
			}
			if !p.NUMAAware && d == hw.DistRemote {
				d = hw.DistSocket
			}
		}
		if d < bestDist {
			bestDist = d
			best = cpu
		}
		return bestDist > hw.DistSMT
	})
	return best, bestDist
}

// TestBestCPUMatchesScan: the locality-mask bestCPU returns the same CPU
// and distance as the ascending Dist scan on random candidate masks and
// last CPUs (NoCPU included), under every CCXAware × NUMAAware setting,
// on the paper's three machine shapes.
func TestBestCPUMatchesScan(t *testing.T) {
	topos := []*hw.Topology{hw.AMDRome(), hw.XeonE5(), hw.SkylakeDefault()}
	rnd := sim.NewRand(17)
	for _, topo := range topos {
		n := topo.NumCPUs()
		for _, ccx := range []bool{false, true} {
			for _, numa := range []bool{false, true} {
				p := &Search{CCXAware: ccx, NUMAAware: numa}
				p.buildLocality(topo)
				for i := 0; i < 5000; i++ {
					// Densities from empty to half full, so every locality
					// level is the nearest non-empty one some of the time.
					var cand kernel.Mask
					density := rnd.Intn(9)
					for c := 0; c < n; c++ {
						if density > 0 && rnd.Intn(1<<density) == 0 {
							cand.Set(hw.CPUID(c))
						}
					}
					last := hw.CPUID(rnd.Intn(n+1) - 1)
					// Exercise the self-vs-sibling order inside the core.
					if last != hw.NoCPU && rnd.Intn(3) == 0 {
						cand.Set(last)
					}
					if last != hw.NoCPU && rnd.Intn(3) == 0 {
						if sib := topo.CPU(last).Sibling(); sib != hw.NoCPU {
							cand.Set(sib)
						}
					}
					gotCPU, gotDist := p.bestCPU(topo, last, cand)
					wantCPU, wantDist := p.bestCPUScan(topo, last, cand)
					if gotCPU != wantCPU || gotDist != wantDist {
						t.Fatalf("%s ccx=%v numa=%v last=%d cand=%v: bestCPU = (%d, %v), scan = (%d, %v)",
							topo.Name, ccx, numa, last, cand, gotCPU, gotDist, wantCPU, wantDist)
					}
				}
			}
		}
	}
}
