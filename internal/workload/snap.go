package workload

import (
	"fmt"

	"ghost/internal/kernel"
	"ghost/internal/sim"
)

// Snap models the §4.3 workload: a userspace packet-processing framework
// whose worker threads poll NIC queues on behalf of application server
// threads. Six flows send messages at a fixed rate; each message needs
// ingress processing by a Snap worker, application processing by a CFS
// server thread, and egress processing by a Snap worker. Round-trip
// latency is measured per message-size class. One flow carries 64 B
// messages (scheduling-dominated), five carry 64 kB messages
// (copy-dominated), matching the paper's test.
type Snap struct {
	eng *sim.Engine

	pkts     []*snapPkt // shared packet ring (ingress + egress events)
	sleepers *kernel.WaitQueue
	servers  []*kernel.Mailbox[*snapPkt]

	// Rec64B and Rec64K record RTT per size class.
	Rec64B LatencyRecorder
	Rec64K LatencyRecorder

	rand *sim.Rand
}

// Message size classes.
const (
	Class64B = iota
	Class64K
)

// snapPkt is a message in flight on the server machine.
type snapPkt struct {
	req    *Request
	stage  int // 0 ingress, 1 app, 2 egress
	server int
}

// Per-class processing costs: 64 B messages need almost no compute (the
// paper notes scheduling overhead dominates them); 64 kB messages pay for
// copying in Snap and real work in the server.
func snapCosts(class int) (ingress, app, egress sim.Duration) {
	if class == Class64B {
		return 1500, 2 * sim.Microsecond, 1500
	}
	return 9 * sim.Microsecond, 14 * sim.Microsecond, 9 * sim.Microsecond
}

// wireRTT is the fixed network component of the round trip.
const wireRTT = 10 * sim.Microsecond

// SnapConfig sizes the Snap system.
type SnapConfig struct {
	Workers  int     // Snap polling worker threads
	Servers  int     // application server threads (CFS)
	FlowRate float64 // messages/second per flow
	Flows64B int
	Flows64K int
	Seed     uint64
}

// DefaultSnapConfig mirrors the paper: 6 flows at 10k msg/s, one 64 B
// and five 64 kB.
func DefaultSnapConfig() SnapConfig {
	return SnapConfig{Workers: 6, Servers: 6, FlowRate: 10000, Flows64B: 1, Flows64K: 5, Seed: 1}
}

// NewSnap builds the Snap system. spawnWorker creates the Snap worker
// threads in the scheduler under test (MicroQuanta or a ghOSt enclave);
// spawnServer creates the application server threads (CFS in the paper).
func NewSnap(k *kernel.Kernel, cfg SnapConfig,
	spawnWorker func(name string, body kernel.ThreadFunc) *kernel.Thread,
	spawnServer func(name string, body kernel.ThreadFunc) *kernel.Thread) *Snap {
	s := &Snap{
		eng:      k.Engine(),
		sleepers: kernel.NewWaitQueue(k),
		rand:     sim.NewRand(cfg.Seed),
	}
	for i := 0; i < cfg.Servers; i++ {
		mb := kernel.NewMailbox[*snapPkt](k)
		s.servers = append(s.servers, mb)
		spawnServer(fmt.Sprintf("snap-server-%d", i), s.serverLoop(mb))
	}
	for i := 0; i < cfg.Workers; i++ {
		spawnWorker(fmt.Sprintf("snap-worker-%d", i), s.workerLoop())
	}
	flow := 0
	for i := 0; i < cfg.Flows64B; i++ {
		s.startFlow(flow, Class64B, cfg.FlowRate)
		flow++
	}
	for i := 0; i < cfg.Flows64K; i++ {
		s.startFlow(flow, Class64K, cfg.FlowRate)
		flow++
	}
	return s
}

// startFlow starts one flow's Poisson message arrivals. A message's
// processing costs come from its class, so its service time is zero
// (Fixed draws no random number).
func (s *Snap) startFlow(id, class int, rate float64) {
	NewPoissonSource(s.eng, s.rand.Fork(), rate, Fixed(0), func(req *Request) {
		req.Class = class
		s.post(&snapPkt{req: req, server: id % len(s.servers)})
	})
}

// post adds a packet event to the shared ring; a sleeping worker is
// woken if none is polling (Snap's wake-on-burst behaviour, §4.3).
func (s *Snap) post(p *snapPkt) {
	s.pkts = append(s.pkts, p)
	s.sleepers.WakeOne()
}

// workerLoop is a Snap worker: poll the shared packet ring (burning CPU
// like real Snap pollers — this is what exhausts MicroQuanta budgets and
// produces the paper's blackouts), process packets, and go to sleep only
// after a polling grace period with no traffic.
func (s *Snap) workerLoop() kernel.ThreadFunc {
	const pollQuantum = 2 * sim.Microsecond
	const pollGrace = 50 * sim.Microsecond
	return func(tc *kernel.TaskContext) {
		for {
			var pkt *snapPkt
			if len(s.pkts) > 0 {
				pkt = s.pkts[0]
				s.pkts = s.pkts[1:]
			} else {
				// Adaptive polling, then sleep until the next burst.
				idle := sim.Duration(0)
				for len(s.pkts) == 0 {
					if idle >= pollGrace {
						s.sleepers.Wait(tc)
						idle = 0
						continue
					}
					tc.Run(pollQuantum)
					idle += pollQuantum
				}
				continue
			}
			ing, _, egr := snapCosts(pkt.req.Class)
			if pkt.stage == 0 {
				tc.Run(ing)
				pkt.stage = 1
				s.servers[pkt.server].Put(pkt)
			} else {
				tc.Run(egr)
				s.complete(pkt.req, tc.Now())
			}
		}
	}
}

// serverLoop is an application server thread (CFS-scheduled).
func (s *Snap) serverLoop(mb *kernel.Mailbox[*snapPkt]) kernel.ThreadFunc {
	return func(tc *kernel.TaskContext) {
		for {
			pkt := mb.Get(tc)
			_, app, _ := snapCosts(pkt.req.Class)
			tc.Run(app)
			pkt.stage = 2
			s.post(pkt)
		}
	}
}

func (s *Snap) complete(req *Request, now sim.Time) {
	rtt := now - req.Arrival + wireRTT
	rec := &s.Rec64B
	if req.Class == Class64K {
		rec = &s.Rec64K
	}
	if req.Arrival >= rec.WarmupUntil {
		rec.Completed++
		rec.Hist.Record(rtt)
	}
}

// SetWarmup discards samples arriving before t.
func (s *Snap) SetWarmup(t sim.Time) {
	s.Rec64B.WarmupUntil = t
	s.Rec64K.WarmupUntil = t
}
