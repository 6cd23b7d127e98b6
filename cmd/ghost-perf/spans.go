package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"

	"ghost"
)

// spanID names one layer boundary the traced pass times. Every boundary
// is a call from this benchmark into a public function of the simulator.
type spanID int

const (
	spanConstruct   spanID = iota // building a machine and its workload
	spanRun                       // a Machine.Run slice, warm-up or measured
	spanSchedule                  // GlobalPolicy.Schedule
	spanOnMessage                 // GlobalPolicy.OnMessage
	spanOnTxnFail                 // GlobalPolicy.OnTxnFail
	spanAttach                    // GlobalPolicy.Attach
	spanSubmit                    // the Poisson sink, WorkerPool.Submit
	spanScenario                  // check.Scenario.Run
	spanTraceExport               // Machine.TraceTo
	numSpans
)

var spanNames = [numSpans]string{
	"ghost.construct", "ghost.run",
	"policies.schedule", "policies.on_message", "policies.on_txn_fail", "policies.attach",
	"workload.submit", "check.scenario", "trace.export",
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	count int64
	total time.Duration
	self  time.Duration // total minus the time covered by child spans
}

// rawSpan is one recorded span; parent indexes spans.raw, -1 for a root.
type rawSpan struct {
	id         spanID
	start, end time.Duration
	parent     int
}

type openSpan struct {
	id    spanID
	start time.Duration
	child time.Duration
	raw   int
}

// spans records host-time spans in memory. Every span is folded into a
// per-name aggregate; raw spans are kept only while capture is on (the
// first measured slice), so memory stays bounded. The simulator runs one
// simulated thread at a time, so the recorder needs no locking. A nil
// *spans records nothing.
type spans struct {
	origin  time.Time
	stack   []openSpan
	agg     [numSpans]spanAgg
	raw     []rawSpan
	capture bool
}

func newSpans() *spans { return &spans{origin: time.Now()} }

func (s *spans) begin(id spanID) {
	if s == nil {
		return
	}
	now := time.Since(s.origin)
	raw := -1
	if s.capture {
		parent := -1
		if n := len(s.stack); n > 0 {
			parent = s.stack[n-1].raw
		}
		raw = len(s.raw)
		s.raw = append(s.raw, rawSpan{id: id, start: now, end: -1, parent: parent})
	}
	s.stack = append(s.stack, openSpan{id: id, start: now, raw: raw})
}

func (s *spans) end() {
	if s == nil {
		return
	}
	now := time.Since(s.origin)
	n := len(s.stack) - 1
	o := s.stack[n]
	s.stack = s.stack[:n]
	d := now - o.start
	a := &s.agg[o.id]
	a.count++
	a.total += d
	a.self += d - o.child
	if n > 0 {
		s.stack[n-1].child += d
	}
	if o.raw >= 0 {
		s.raw[o.raw].end = now
	}
}

// setCapture turns raw-span recording on or off.
func (s *spans) setCapture(on bool) {
	if s != nil {
		s.capture = on
	}
}

// runAccounting returns the ghost.run wall time and the summed self
// times of ghost.run and of every span that nests under it. They agree
// when each span's time is attributed exactly once.
func (s *spans) runAccounting() (wall, selfSum time.Duration) {
	wall = s.agg[spanRun].total
	for _, id := range []spanID{spanRun, spanSchedule, spanOnMessage, spanOnTxnFail, spanSubmit} {
		selfSum += s.agg[id].self
	}
	return wall, selfSum
}

// timedPolicy forwards the four ghost.GlobalPolicy methods to the policy
// under test and times each call as a span.
type timedPolicy struct {
	inner ghost.GlobalPolicy
	tr    *spans
	empty int64 // Schedule calls that returned no assignment
}

func (p *timedPolicy) Attach(ctx *ghost.PolicyContext) {
	p.tr.begin(spanAttach)
	p.inner.Attach(ctx)
	p.tr.end()
}

func (p *timedPolicy) OnMessage(ctx *ghost.PolicyContext, m ghost.Message) {
	p.tr.begin(spanOnMessage)
	p.inner.OnMessage(ctx, m)
	p.tr.end()
}

func (p *timedPolicy) Schedule(ctx *ghost.PolicyContext) []ghost.Assignment {
	p.tr.begin(spanSchedule)
	a := p.inner.Schedule(ctx)
	p.tr.end()
	if len(a) == 0 {
		p.empty++
	}
	return a
}

func (p *timedPolicy) OnTxnFail(ctx *ghost.PolicyContext, a ghost.Assignment, st ghost.TxnStatus) {
	p.tr.begin(spanOnTxnFail)
	p.inner.OnTxnFail(ctx, a, st)
	p.tr.end()
}

// writeChromeTrace writes the traced reps as Chrome trace_event JSON,
// the format internal/trace emits, so Perfetto opens it. Each workload
// is one process: thread 1 holds the raw spans of its first measured
// slice, thread 2 one span per name laid end to end, carrying the
// aggregate count and self time. Times are host microseconds.
func writeChromeTrace(w io.Writer, ocs []*outcome) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	us := func(d time.Duration) string { return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64) }
	for pid, oc := range ocs {
		tr := oc.spans
		if tr == nil {
			continue
		}
		emit(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, pid, oc.w.name)
		emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":1,"args":{"name":"raw spans, first measured slice"}}`, pid)
		emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":2,"args":{"name":"aggregate per span name"}}`, pid)
		var base time.Duration
		if len(tr.raw) > 0 {
			base = tr.raw[0].start
		}
		for _, r := range tr.raw {
			parent := ""
			if r.parent >= 0 {
				parent = spanNames[tr.raw[r.parent].id]
			}
			emit(`{"ph":"X","name":%q,"cat":"ghost-perf","pid":%d,"tid":1,"ts":%s,"dur":%s,"args":{"parent":%q}}`,
				spanNames[r.id], pid, us(r.start-base), us(r.end-r.start), parent)
		}
		var at time.Duration
		for id, a := range tr.agg {
			if a.count == 0 {
				continue
			}
			emit(`{"ph":"X","name":%q,"cat":"ghost-perf.aggregate","pid":%d,"tid":2,"ts":%s,"dur":%s,"args":{"count":%d,"self_ms":%s,"mean_ns":%d}}`,
				spanNames[id], pid, us(at), us(a.total), a.count,
				strconv.FormatFloat(a.self.Seconds()*1e3, 'f', 3, 64), int64(a.total)/a.count)
			at += a.total
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
