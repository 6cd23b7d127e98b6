package kernel

import (
	"errors"
	"fmt"
	"testing"

	"ghost/internal/hw"
)

// This file keeps the per-CPU scans that idle stealing and wake
// placement ran before the kernel kept its idle, pending and queued
// masks. AuditPlacement installs them as placementAudit, so every
// mask-based decision of a run is recomputed by the full scan and
// compared.

// fullScanSteal is findSteal walking every runqueue and probing each
// CPU's socket.
func fullScanSteal(c *CFS, cpu *CPU) *Thread {
	avg := c.avgIdle[cpu.ID]
	if avg != 0 && avg < migrationCost/5 {
		return nil
	}
	sameSocketOnly := avg != 0 && avg < migrationCost
	mySocket := c.k.topo.CPU(cpu.ID).Socket
	var best *Thread
	bestLen := 0
	for i, rq := range c.rqs {
		if hw.CPUID(i) == cpu.ID || rq.Len() == 0 {
			continue
		}
		if sameSocketOnly && c.k.topo.CPU(hw.CPUID(i)).Socket != mySocket {
			continue
		}
		if rq.Len() > bestLen {
			for _, t := range rq.threads {
				if t.affinity.Has(cpu.ID) {
					best = t
					bestLen = rq.Len()
					break
				}
			}
		}
	}
	return best
}

// fullScanCFSSelect is CFS.SelectCPU probing every CPU of the domain for
// both the nearest free CPU and the least-loaded one.
func fullScanCFSSelect(c *CFS, t *Thread) hw.CPUID {
	k := c.k
	last := t.lastCPU
	if last != hw.NoCPU && t.affinity.Has(last) && k.cpus[last].FreeForPlacement() {
		return last
	}
	scan := func(domain Mask) (idle, least hw.CPUID) {
		idle, least = hw.NoCPU, hw.NoCPU
		bestDist := hw.DistRemote + 1
		leastLoad := 1 << 30
		domain.ForEach(func(id hw.CPUID) bool {
			cp := k.cpus[id]
			if cp.FreeForPlacement() {
				d := hw.DistCCX
				if last != hw.NoCPU {
					d = k.topo.Dist(last, id)
				}
				if d < bestDist {
					bestDist = d
					idle = id
				}
			}
			load := c.rqs[id].Len()
			if cp.curr != nil && cp.curr.class == c {
				load++
			}
			if load < leastLoad {
				leastLoad = load
				least = id
			}
			return true
		})
		return idle, least
	}
	domain := t.affinity
	if last != hw.NoCPU {
		if d := t.affinity.And(k.ccx[k.topo.CPU(last).CCX]); !d.Empty() {
			domain = d
		}
	}
	idle, least := scan(domain)
	if idle != hw.NoCPU {
		return idle
	}
	if least != hw.NoCPU {
		return least
	}
	idle, least = scan(t.affinity)
	if idle != hw.NoCPU {
		return idle
	}
	if least != hw.NoCPU {
		return least
	}
	return t.affinity.First()
}

// fullScanMQSelect is MicroQuanta.SelectCPU probing every CPU of the
// affinity mask.
func fullScanMQSelect(m *MicroQuanta, t *Thread) hw.CPUID {
	k := m.k
	last := t.lastCPU
	if last != hw.NoCPU && t.affinity.Has(last) && k.cpus[last].FreeForPlacement() {
		return last
	}
	var bestIdle, firstAllowed hw.CPUID = hw.NoCPU, hw.NoCPU
	bestDist := hw.DistRemote + 1
	t.affinity.ForEach(func(id hw.CPUID) bool {
		if firstAllowed == hw.NoCPU {
			firstAllowed = id
		}
		if k.cpus[id].FreeForPlacement() {
			d := hw.DistCCX
			if last != hw.NoCPU {
				d = k.topo.Dist(last, id)
			}
			if d < bestDist {
				bestDist = d
				bestIdle = id
			}
		}
		return true
	})
	if bestIdle != hw.NoCPU {
		return bestIdle
	}
	var lower hw.CPUID = hw.NoCPU
	t.affinity.ForEach(func(id hw.CPUID) bool {
		cp := k.cpus[id]
		if cp.curr != nil && cp.curr.class.Priority() < m.Priority() {
			lower = id
			return false
		}
		return true
	})
	if lower != hw.NoCPU {
		return lower
	}
	return firstAllowed
}

// PlacementCounts is how many decisions of each kind an audit checked.
type PlacementCounts struct{ Steals, CFSCPUs, MQCPUs int }

// fullScanAudit implements placementAudit with the full scans above.
type fullScanAudit struct {
	tb     testing.TB
	counts PlacementCounts
	fails  int
}

func (a *fullScanAudit) failf(k *Kernel, format string, args ...any) {
	if a.fails++; a.fails <= 10 {
		a.tb.Errorf("t=%v: "+format, append([]any{k.Now()}, args...)...)
	}
}

func (a *fullScanAudit) steal(c *CFS, cpu *CPU, got *Thread) {
	a.counts.Steals++
	if want := fullScanSteal(c, cpu); got != want {
		a.failf(c.k, "cpu%d steals %v, the full scan %v", cpu.ID, got, want)
	}
}

func (a *fullScanAudit) cfsCPU(c *CFS, t *Thread, got hw.CPUID) {
	a.counts.CFSCPUs++
	if want := fullScanCFSSelect(c, t); got != want {
		a.failf(c.k, "CFS places %v (last cpu%d) on cpu%d, the full scan on cpu%d", t, t.lastCPU, got, want)
	}
}

func (a *fullScanAudit) mqCPU(m *MicroQuanta, t *Thread, got hw.CPUID) {
	a.counts.MQCPUs++
	if want := fullScanMQSelect(m, t); got != want {
		a.failf(m.k, "MicroQuanta places %v (last cpu%d) on cpu%d, the full scan on cpu%d", t, t.lastCPU, got, want)
	}
}

// AuditPlacement makes every idle steal and every CFS and MicroQuanta
// wake placement, on any kernel, recompute its answer with the full scan
// and report a mismatch to tb, until stop runs; stop returns how many
// decisions were checked. Audited runs must not overlap.
func AuditPlacement(tb testing.TB) (stop func() PlacementCounts) {
	a := &fullScanAudit{tb: tb}
	placementAudit = a
	return func() PlacementCounts {
		placementAudit = nil
		return a.counts
	}
}

// CheckMasks reports each kernel mask that differs from the set it
// mirrors: idle from {c : c.Idle()}, pending from {c : c.reschedPending}
// and CFS's queued from {c : c's runqueue is non-empty}.
func CheckMasks(k *Kernel) error {
	var idle, pending, queued Mask
	cfs, _ := k.Class("cfs").(*CFS)
	for _, c := range k.cpus {
		idle.SetTo(c.ID, c.Idle())
		pending.SetTo(c.ID, c.reschedPending)
		if cfs != nil {
			queued.SetTo(c.ID, cfs.rqs[c.ID].Len() > 0)
		}
	}
	var errs []error
	if k.idle != idle {
		errs = append(errs, fmt.Errorf("idle mask %v, CPUs with Idle() %v", k.idle, idle))
	}
	if k.pending != pending {
		errs = append(errs, fmt.Errorf("pending mask %v, CPUs with a resched pending %v", k.pending, pending))
	}
	if cfs != nil && cfs.queued != queued {
		errs = append(errs, fmt.Errorf("CFS queued mask %v, CPUs with a non-empty runqueue %v", cfs.queued, queued))
	}
	return errors.Join(errs...)
}

// PendingMask returns k's pending mask.
func PendingMask(k *Kernel) Mask { return k.pending }

// QueuedMask returns c's queued mask.
func QueuedMask(c *CFS) Mask { return c.queued }
