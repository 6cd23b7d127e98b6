package workload

import (
	"ghost/internal/sim"
)

// PoissonSource is an open-loop request generator: inter-arrival times
// are exponential, independent of service progress (the load-generation
// model of §4.2). Stop it or let the deadline pass.
type PoissonSource struct {
	eng     *sim.Engine
	rand    *sim.Rand
	rate    float64 // requests per second
	service ServiceDist
	sink    func(*Request)
	nextID  uint64
	stopped bool
	Until   sim.Time // no arrivals at or after this time (0 = forever)
}

// NewPoissonSource creates a generator emitting rate requests/second with
// the given service-time distribution into sink. Arrivals begin one
// inter-arrival time after start.
func NewPoissonSource(eng *sim.Engine, rand *sim.Rand, rate float64, service ServiceDist, sink func(*Request)) *PoissonSource {
	if rate <= 0 {
		panic("workload: non-positive arrival rate")
	}
	p := &PoissonSource{eng: eng, rand: rand, rate: rate, service: service, sink: sink}
	p.arm()
	return p
}

func (p *PoissonSource) interarrival() sim.Duration {
	return p.rand.Exp(sim.Duration(1e9 / p.rate))
}

func (p *PoissonSource) arm() {
	// AfterCall with a package-level dispatcher: a p.fire method value
	// here would allocate per arrival.
	p.eng.AfterCall(p.interarrival(), poissonFire, p)
}

// poissonFire dispatches an arrival to its source.
func poissonFire(a any) { a.(*PoissonSource).fire() }

func (p *PoissonSource) fire() {
	if p.stopped {
		return
	}
	if p.Until != 0 && p.eng.Now() >= p.Until {
		return
	}
	svc := p.service.Sample(p.rand)
	r := &Request{
		ID:        p.nextID,
		Arrival:   p.eng.Now(),
		Service:   svc,
		Remaining: svc,
	}
	p.nextID++
	p.sink(r)
	p.arm()
}

// Emitted returns the number of requests generated so far.
func (p *PoissonSource) Emitted() uint64 { return p.nextID }
