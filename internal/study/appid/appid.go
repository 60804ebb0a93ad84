// Package appid maps network transactions to applications and transaction
// categories, implementing §3.3 (SNI/URL → app, including timeframe
// correlation for shared third-party hosts) and §5.2 (the four-way
// Application / Utilities / Advertising / Analytics categorisation).
package appid

import (
	"strings"

	"wearwild/internal/gen/apps"
	"wearwild/internal/study/sessions"
)

// Resolver answers host → app and host → kind queries over a catalogue,
// with suffix matching so subdomains of a registered host still resolve.
type Resolver struct {
	catalog *apps.Catalog
}

// NewResolver wraps a catalogue.
func NewResolver(catalog *apps.Catalog) *Resolver {
	return &Resolver{catalog: catalog}
}

// AppOfHost resolves a host to its first-party app, trying the exact host
// first and then each parent suffix ("push.eu.api.weather.app" matches a
// rule for "api.weather.app").
func (r *Resolver) AppOfHost(host string) (*apps.App, bool) {
	for h := host; h != ""; h = parentDomain(h) {
		if app, ok := r.catalog.AppOfHost(h); ok {
			return app, true
		}
	}
	return nil, false
}

// parentDomain strips the leftmost label; it returns "" once fewer than
// three labels remain (registrable domains stay intact).
func parentDomain(host string) string {
	if strings.Count(host, ".") < 3 {
		return ""
	}
	i := strings.IndexByte(host, '.')
	return host[i+1:]
}

// KindOfHost classifies a host into the paper's transaction categories.
// Known hosts use the catalogue; unknown hosts fall back to prefix
// heuristics, defaulting to Application (a first-party server we have no
// signature for).
func (r *Resolver) KindOfHost(host string) apps.DomainKind {
	for h := host; h != ""; h = parentDomain(h) {
		if kind, ok := r.catalog.SharedKind(h); ok {
			return kind
		}
		if _, ok := r.catalog.AppOfHost(h); ok {
			return apps.KindApplication
		}
	}
	switch {
	case hasAnyPrefix(host, "ads.", "ad.", "banner.", "adserv"):
		return apps.KindAdvertising
	case hasAnyPrefix(host, "metrics.", "analytics.", "events.", "stats.", "telemetry.", "crash."):
		return apps.KindAnalytics
	case hasAnyPrefix(host, "cdn.", "static.", "img.", "edge.", "dl.", "cache."):
		return apps.KindUtilities
	default:
		return apps.KindApplication
	}
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// Attributed is a usage with its resolved application. App is nil when no
// first-party anchor was found in the usage's timeframe.
type Attributed struct {
	sessions.Usage
	App *apps.App
}

// Attribute assigns an app to each usage by timeframe correlation: the
// usage's transactions to first-party hosts vote (weighted by count) and
// the winning app claims the whole usage, third-party transactions
// included — the paper's "map a set of connections in the same timeframe
// with a given app".
func (r *Resolver) Attribute(usages []sessions.Usage) []Attributed {
	out := make([]Attributed, 0, len(usages))
	for _, u := range usages {
		out = append(out, Attributed{Usage: u, App: r.attributeOne(u)})
	}
	return out
}

// attributeOne runs the timeframe-correlation vote for one usage.
func (r *Resolver) attributeOne(u sessions.Usage) *apps.App {
	votes := make(map[*apps.App]int, 2)
	var order []*apps.App
	for _, rec := range u.Records {
		if app, ok := r.AppOfHost(rec.Host); ok {
			if votes[app] == 0 {
				order = append(order, app)
			}
			votes[app]++
		}
	}
	var winner *apps.App
	best := 0
	for _, app := range order { // first-seen order breaks ties stably
		if votes[app] > best {
			best = votes[app]
			winner = app
		}
	}
	return winner
}
