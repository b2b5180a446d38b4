package workload

import "vulcan/internal/sim"

// WebServer models a session-oriented online service (LC): each request
// touches a session record (Zipf-popular sessions), a shared in-memory
// cache with high LLC residence, and occasionally a large cold content
// store. Compared to KeyValue it has a deeper cold tail and a smaller,
// hotter head — the profile of a web/API tier.
type WebServer struct {
	pages        int
	sessionPages int
	cachePages   int
	sessionZipf  *sim.Zipf
	rng          *sim.RNG
}

// NewWebServer builds the generator: 5% session records, 15% cache, 80%
// content store.
func NewWebServer(pages int, rng *sim.RNG) *WebServer {
	checkRegion(pages, 0)
	sessions := pages / 20
	if sessions < 1 {
		sessions = 1
	}
	cache := pages * 15 / 100
	if cache < 1 {
		cache = 1
	}
	if sessions+cache >= pages {
		sessions, cache = 1, 1
	}
	return &WebServer{
		pages:        pages,
		sessionPages: sessions,
		cachePages:   cache,
		sessionZipf:  sim.NewZipf(rng, sessions, 1.1),
		rng:          rng,
	}
}

// Name implements Generator.
func (w *WebServer) Name() string { return "webserver" }

// Pages implements Generator.
func (w *WebServer) Pages() int { return w.pages }

// SessionPages returns the session-record region size.
func (w *WebServer) SessionPages() int { return w.sessionPages }

// Next implements Generator.
func (w *WebServer) Next() Ref {
	r := w.rng.Float64()
	switch {
	case r < 0.45:
		// Session read/update: popular sessions, frequent writes.
		return Ref{
			Page:       w.sessionZipf.Next(),
			Write:      w.rng.Bool(0.35),
			LLCHitProb: 0.55,
		}
	case r < 0.80:
		// Cache lookups: mostly LLC-resident.
		return Ref{
			Page:       w.sessionPages + w.rng.Intn(w.cachePages),
			Write:      w.rng.Bool(0.05),
			LLCHitProb: 0.80,
		}
	default:
		// Cold content fetch.
		base := w.sessionPages + w.cachePages
		return Ref{
			Page:       base + w.rng.Intn(w.pages-base),
			Write:      false,
			LLCHitProb: 0.03,
		}
	}
}
