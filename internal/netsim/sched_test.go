package netsim

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
)

// The simulator's Endpoint must pass the same scheduler conformance suite as
// the TCP transport's real-clock scheduler: that shared suite is what makes
// "periodic behavior runs identically in virtual and real time" a tested
// property of the peer.Scheduler contract.
func TestSchedulerConformance(t *testing.T) {
	peertest.Conformance(t, func(t *testing.T) *peertest.Instance {
		s := New(1)
		rec := &schedRecorder{t: t, self: 1}
		s.Add(1, func(env peer.Env) peer.Process {
			rec.env = env
			return rec
		})
		return &peertest.Instance{
			Sched:     rec.env.(peer.Scheduler),
			Run:       func(d uint64) { s.RunFor(d) },
			Delivered: func() []msg.Message { return rec.got },
		}
	})
}

// schedRecorder records scheduler deliveries, enforcing the from == self
// contract.
type schedRecorder struct {
	t    *testing.T
	self id.ID
	env  peer.Env
	got  []msg.Message
}

func (r *schedRecorder) Deliver(from id.ID, m *msg.Message) {
	if from != r.self {
		r.t.Errorf("scheduler delivery from %v, want self %v", from, r.self)
	}
	r.got = append(r.got, *m)
}

func (r *schedRecorder) OnCycle() {}
