package profile

import (
	"testing"

	"vulcan/internal/pagetable"
)

// scriptedFaults drops every n-th sample (n=0: drop nothing) and can
// force an overflow flag.
type scriptedFaults struct {
	dropEvery int
	overflow  bool

	epoch   uint64
	seen    int
	kept    uint64
	dropped uint64
}

func (s *scriptedFaults) BeginEpoch(epoch uint64) {
	s.epoch = epoch
	s.seen, s.kept, s.dropped = 0, 0, 0
}

func (s *scriptedFaults) DropSample() bool {
	s.seen++
	if s.dropEvery > 0 && s.seen%s.dropEvery == 0 {
		s.dropped++
		return true
	}
	s.kept++
	return false
}

func (s *scriptedFaults) EndEpoch() (float64, bool, uint64) {
	conf := 1.0
	if total := s.kept + s.dropped; total > 0 {
		conf = float64(s.kept) / float64(total)
	}
	return conf, s.overflow, s.dropped
}

func TestFaultyDropsSamples(t *testing.T) {
	inner := newPEBS(1, 9)
	faulty := NewFaulty(inner, &scriptedFaults{dropEvery: 2})
	clean := newPEBS(1, 9)

	for i := 0; i < 100; i++ {
		a := Access{VP: pagetable.VPage(i % 4), Fast: true}
		faulty.Record(a)
		clean.Record(a)
	}
	faulty.EndEpoch()
	clean.EndEpoch()

	if got, want := faulty.Confidence(), 0.5; got != want {
		t.Errorf("confidence = %v, want %v", got, want)
	}
	if faulty.Dropped() != 50 {
		t.Errorf("dropped = %d, want 50", faulty.Dropped())
	}
	if faulty.Overflowed() {
		t.Error("overflow flag set without overflow")
	}
	// The starved profile must see strictly less heat than the clean
	// one: page 1's accesses all land on dropped sample indices.
	if fh, ch := faulty.Heat(1), clean.Heat(1); fh >= ch {
		t.Errorf("faulty heat %v not below clean heat %v", fh, ch)
	}
	if faulty.Name() != clean.Name() {
		t.Errorf("wrapper changed name: %q", faulty.Name())
	}
}

func TestFaultyNoDropsIsTransparent(t *testing.T) {
	inner := newPEBS(1, 9)
	faulty := NewFaulty(inner, &scriptedFaults{})
	clean := newPEBS(1, 9)

	var costF, costC float64
	for i := 0; i < 64; i++ {
		a := Access{VP: pagetable.VPage(i % 8), Write: i%3 == 0, Fast: i%2 == 0}
		costF += faulty.Record(a)
		costC += clean.Record(a)
	}
	faulty.EndEpoch()
	clean.EndEpoch()
	if costF != costC {
		t.Errorf("record cost diverged: %v vs %v", costF, costC)
	}
	if faulty.Confidence() != 1 {
		t.Errorf("confidence = %v, want 1", faulty.Confidence())
	}
	for vp := pagetable.VPage(0); vp < 8; vp++ {
		if faulty.Heat(vp) != clean.Heat(vp) {
			t.Errorf("page %d heat diverged: %v vs %v", vp, faulty.Heat(vp), clean.Heat(vp))
		}
		if faulty.WriteFraction(vp) != clean.WriteFraction(vp) {
			t.Errorf("page %d write fraction diverged", vp)
		}
	}
	if faulty.Tracked() != clean.Tracked() {
		t.Errorf("tracked diverged: %d vs %d", faulty.Tracked(), clean.Tracked())
	}
}

func TestFaultyOverflowFlag(t *testing.T) {
	faulty := NewFaulty(newPEBS(1, 9), &scriptedFaults{dropEvery: 1, overflow: true})
	for i := 0; i < 10; i++ {
		faulty.Record(Access{VP: 1})
	}
	faulty.EndEpoch()
	if !faulty.Overflowed() {
		t.Error("overflow not reported")
	}
	if faulty.Confidence() != 0 {
		t.Errorf("confidence = %v with every sample dropped", faulty.Confidence())
	}
}
