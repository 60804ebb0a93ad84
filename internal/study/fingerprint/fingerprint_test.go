package fingerprint

import (
	"testing"

	"wearwild/internal/gen/population"
)

func TestDefaultSignaturesCoverAllServices(t *testing.T) {
	sigs := DefaultSignatures()
	if len(sigs) != len(population.TDFingerprintServices) {
		t.Fatalf("signatures = %d", len(sigs))
	}
	for _, sig := range sigs {
		if len(sig.Hosts) == 0 {
			t.Fatalf("service %s has no hosts", sig.Service)
		}
	}
}

func TestDetect(t *testing.T) {
	d := NewDetector(DefaultSignatures())
	for _, svc := range population.TDFingerprintServices {
		for _, host := range population.CompanionDomains[svc] {
			if got, ok := d.ServiceOfHost(host); !ok || got != svc {
				t.Fatalf("ServiceOfHost(%q) = %q, %v; want %q", host, got, ok, svc)
			}
		}
	}
}

func TestDetectCaseInsensitive(t *testing.T) {
	d := NewDetector([]Signature{{Service: "X", Hosts: []string{"Sync.Example.COM"}}})
	for _, host := range []string{"sync.example.com", "SYNC.example.com", "Sync.Example.COM"} {
		if got, ok := d.ServiceOfHost(host); !ok || got != "X" {
			t.Fatalf("ServiceOfHost(%q) = %q, %v; want X", host, got, ok)
		}
	}
}

func TestNoDetections(t *testing.T) {
	d := NewDetector(DefaultSignatures())
	for _, host := range []string{"api.weather.app", "fitbit-connect.com", ""} {
		if got, ok := d.ServiceOfHost(host); ok {
			t.Fatalf("ServiceOfHost(%q) = %q: phantom service", host, got)
		}
	}
	if _, ok := NewDetector(nil).ServiceOfHost("sync.fitbit-connect.com"); ok {
		t.Fatal("empty signature set matched a host")
	}
}
