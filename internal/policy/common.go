// Package policy implements the state-of-the-art tiering systems the
// paper compares against (§5): TPP (hint-fault promotion with
// watermark-driven reclaim), Memtis (PEBS-based global hotness ranking),
// and Nomad (asynchronous transactional migration with page shadowing).
// All run against the same simulated substrate as Vulcan, differing only
// in policy logic and the mechanisms they declare.
package policy

import (
	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
	"vulcan/internal/radix"
	"vulcan/internal/system"
)

// GlobalPage is one page in a cross-application ranking. Heat is weighted
// by the owning app's sample weight so that absolute access rates are
// comparable across apps of different intensity — exactly the
// normalization-free ranking that produces the cold-page dilemma.
type GlobalPage struct {
	App  *system.App
	VP   pagetable.VPage
	Heat float64
}

// GlobalVictim is one demotion candidate in a cross-app cold ranking.
type GlobalVictim struct {
	App *system.App
	VP  pagetable.VPage
}

// RankBuf holds reusable ranking buffers so a policy's per-epoch
// candidate selection allocates nothing in steady state. Every method's
// returned slice aliases the buffer: it is valid until the next call of
// the same method on the same RankBuf, and must not be retained across
// epochs. Policies embed one RankBuf per instance (systems are
// single-threaded; sweep workers each own a policy instance).
type RankBuf struct {
	global []GlobalPage
	vps    []pagetable.VPage
	moves  []migrate.Move

	radGlobal radix.Buf[GlobalPage]
	radSel    radix.Buf[pagetable.VPage]
	radSlow   radix.Buf[pagetable.VPage]
	radGVic   radix.Buf[GlobalVictim]
	topCand   radix.TopK[pagetable.VPage]
	topSlow   radix.TopK[pagetable.VPage]
	topVictim radix.TopK[GlobalVictim]
}

// rankMinor packs the (app, page) tie-break into one radix key: app
// index ascending, then page number ascending. VPage is at most 36 bits,
// so the app index occupies the clear high bits.
func rankMinor(appIndex int, vp pagetable.VPage) uint64 {
	return uint64(appIndex)<<36 | uint64(vp)
}

// MergedRanking returns every profiled page of every started app, hottest
// first, with app-intensity weighting.
func (b *RankBuf) MergedRanking(sys *system.System) []GlobalPage {
	all := b.global[:0]
	for _, a := range sys.StartedApps() {
		w := a.SampleWeight()
		// The merged order comes entirely from the composite sort below,
		// so the per-app inputs can stay unsorted.
		for _, ph := range a.Profiler.HeatPages() {
			all = append(all, GlobalPage{App: a, VP: ph.VP, Heat: ph.Heat * w})
		}
	}
	// Heat descending, then app index, then page number — the same total
	// order the previous comparison sort produced, via composite radix
	// keys.
	major, minor := b.radGlobal.Keys(len(all))
	for i := range all {
		major[i] = radix.FloatKeyDesc(all[i].Heat)
		minor[i] = rankMinor(all[i].App.Index, all[i].VP)
	}
	all = b.radGlobal.Sort(all, major, minor)
	b.global = all
	return all
}

// ColdestFastPages returns up to n of app's fast-tier pages ordered by
// ascending profiled heat (unprofiled pages count as coldest), skipping
// pages in keep.
func (b *RankBuf) ColdestFastPages(a *system.App, n int, keep map[pagetable.VPage]bool) []pagetable.VPage {
	if n <= 0 {
		return nil
	}
	// Stream candidates through a bounded selection — heat ascending,
	// then page number — instead of sorting every fast page: only the n
	// returned victims need ordering, and the composite key's total
	// order makes the selected prefix identical to a full sort's.
	t := &b.topCand
	t.Reset(n)
	a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
		if p.Frame().Tier != mem.TierFast {
			return true
		}
		if keep != nil && keep[vp] {
			return true
		}
		t.Offer(radix.FloatKeyAsc(a.Profiler.Heat(vp)), uint64(vp), vp)
		return true
	})
	k := len(t.Val)
	major, minor := b.radSel.Keys(k)
	copy(major, t.Maj)
	copy(minor, t.Min)
	t.Val = b.radSel.Sort(t.Val, major, minor)
	return t.Val
}

// GlobalColdestFastPages returns up to n fast-resident pages across all
// started apps, coldest first by intensity-weighted heat — the victim
// order of a global (fairness-blind) reclaim pass. Pages in keep[app]
// are skipped.
func (b *RankBuf) GlobalColdestFastPages(sys *system.System, n int, keep map[*system.App]map[pagetable.VPage]bool) []GlobalVictim {
	if n <= 0 {
		return nil
	}
	// Stream candidates through a bounded selection — heat ascending,
	// then app index, then page number — instead of sorting every fast
	// page in the system; the selected-and-sorted n victims are exactly
	// the prefix a full sort would emit.
	t := &b.topVictim
	t.Reset(n)
	for _, a := range sys.StartedApps() {
		w := a.SampleWeight()
		ka := keep[a]
		idx := a.Index
		a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
			if p.Frame().Tier != mem.TierFast {
				return true
			}
			if ka != nil && ka[vp] {
				return true
			}
			t.Offer(radix.FloatKeyAsc(a.Profiler.Heat(vp)*w), rankMinor(idx, vp), GlobalVictim{a, vp})
			return true
		})
	}
	k := len(t.Val)
	major, minor := b.radGVic.Keys(k)
	copy(major, t.Maj)
	copy(minor, t.Min)
	t.Val = b.radGVic.Sort(t.Val, major, minor)
	return t.Val
}

// SlowPagesWithHeat returns app pages resident in the slow tier that have
// nonzero profiled heat, hottest first, capped at limit.
func (b *RankBuf) SlowPagesWithHeat(a *system.App, limit int) []pagetable.VPage {
	// Bounded selection over the unsorted page list — heat descending,
	// then page number — matches the old "sorted snapshot, first limit
	// slow-resident entries" exactly, without sorting the whole snapshot.
	t := &b.topSlow
	t.Reset(limit)
	for _, ph := range a.Profiler.HeatPages() {
		if p, ok := a.Table.Lookup(ph.VP); ok && p.Frame().Tier == mem.TierSlow {
			t.Offer(radix.FloatKeyDesc(ph.Heat), uint64(ph.VP), ph.VP)
		}
	}
	k := len(t.Val)
	major, minor := b.radSlow.Keys(k)
	copy(major, t.Maj)
	copy(minor, t.Min)
	t.Val = b.radSlow.Sort(t.Val, major, minor)
	return t.Val
}

// PromoteMoves builds fast-tier moves for the given pages in the reusable
// move buffer.
func (b *RankBuf) PromoteMoves(vps []pagetable.VPage) []migrate.Move {
	out := b.moves[:0]
	for _, vp := range vps {
		out = append(out, migrate.Move{VP: vp, To: mem.TierFast})
	}
	b.moves = out
	return out
}

// EnqueueVictims spreads demotions onto each victim's own app queue.
func EnqueueVictims(victims []GlobalVictim) {
	for _, v := range victims {
		v.App.Async.EnqueueOne(migrate.Move{VP: v.VP, To: mem.TierSlow})
	}
}

// profilerSeed derives a deterministic per-app profiler seed.
func profilerSeed(app *system.App) uint64 {
	return uint64(app.Index)*2654435761 + 17
}

// FreeFastFraction returns the fast tier's free-page fraction.
func FreeFastFraction(sys *system.System) float64 {
	f := sys.Tiers().Fast()
	return float64(f.FreePages()) / float64(f.Capacity())
}
