// Package fingerprint implements the conclusion's Through-Device wearable
// detection: identifying smartphone users whose traffic betrays a paired
// (non-SIM) wearable, either through domains directly attributable to a
// wearable vendor (Fitbit, Xiaomi) or through wearable-specific endpoints
// of popular companion apps (AccuWeather, Strava, Runtastic).
package fingerprint

import (
	"strings"

	"wearwild/internal/gen/population"
)

// Signature is one detectable companion service.
type Signature struct {
	Service string
	Hosts   []string
}

// DefaultSignatures returns the services the paper fingerprints. The host
// lists are shared with the traffic generator so the study detects exactly
// the endpoints real companion apps would hit.
func DefaultSignatures() []Signature {
	out := make([]Signature, 0, len(population.TDFingerprintServices))
	for _, svc := range population.TDFingerprintServices {
		out = append(out, Signature{
			Service: svc,
			Hosts:   append([]string(nil), population.CompanionDomains[svc]...),
		})
	}
	return out
}

// Detector matches proxy records against companion signatures.
type Detector struct {
	hostToService map[string]string
}

// NewDetector compiles the signature set.
func NewDetector(sigs []Signature) *Detector {
	d := &Detector{hostToService: make(map[string]string)}
	for _, sig := range sigs {
		for _, h := range sig.Hosts {
			d.hostToService[strings.ToLower(h)] = sig.Service
		}
	}
	return d
}

// ServiceOfHost returns the companion service a host belongs to.
func (d *Detector) ServiceOfHost(host string) (string, bool) {
	svc, ok := d.hostToService[strings.ToLower(host)]
	return svc, ok
}
