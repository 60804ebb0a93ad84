// Package devicedb implements the operator device database: the mapping
// from IMEI (via its TAC prefix) to device model, vendor, operating system
// and device class. The paper's wearable identification (§3.2) is exactly a
// join of observed IMEIs against the TAC set of known SIM-enabled wearable
// models; DB.Lookup and DB.IsWearable provide that join.
package devicedb

import (
	"fmt"

	"wearwild/internal/mnet/imei"
)

// Class partitions devices the way the study needs: the paper contrasts
// SIM-enabled wearables against "the remaining customers of the ISP",
// which are mostly smartphones.
type Class int

const (
	// Smartphone is an ordinary handset.
	Smartphone Class = iota
	// WearableSIM is a stand-alone wearable with its own SIM.
	WearableSIM
	// Tablet is a cellular tablet.
	Tablet
	// M2M is a machine-to-machine module (metering, telematics).
	M2M
)

// String names the class for logs and reports.
func (c Class) String() string {
	switch c {
	case Smartphone:
		return "smartphone"
	case WearableSIM:
		return "wearable-sim"
	case Tablet:
		return "tablet"
	case M2M:
		return "m2m"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Model describes one device model as the operator's database records it.
type Model struct {
	Name   string
	Vendor string
	OS     string
	Class  Class
	// Year is the model's market-release year; the conclusion's
	// observation that Through-Device users carry "relatively modern
	// smartphones" is checked against it.
	Year int
	// TACs lists the type allocation codes assigned to the model. A model
	// commonly owns several TACs (regional variants, hardware revisions).
	TACs []imei.TAC
}

// DB is an immutable-after-build device database with TAC-indexed lookup.
type DB struct {
	models []*Model
	byTAC  map[imei.TAC]*Model
}

// New returns an empty database.
func New() *DB {
	return &DB{byTAC: make(map[imei.TAC]*Model)}
}

// Add registers a model. Every TAC must be valid and not already claimed.
func (db *DB) Add(m Model) error {
	if m.Name == "" {
		return fmt.Errorf("devicedb: model needs a name")
	}
	if len(m.TACs) == 0 {
		return fmt.Errorf("devicedb: model %q has no TACs", m.Name)
	}
	for _, t := range m.TACs {
		if !t.Valid() {
			return fmt.Errorf("devicedb: model %q has invalid TAC %d", m.Name, t)
		}
		if prev, taken := db.byTAC[t]; taken {
			return fmt.Errorf("devicedb: TAC %s already assigned to %q", t, prev.Name)
		}
	}
	copyM := m
	copyM.TACs = append([]imei.TAC(nil), m.TACs...)
	db.models = append(db.models, &copyM)
	for _, t := range copyM.TACs {
		db.byTAC[t] = &copyM
	}
	return nil
}

// Lookup resolves an IMEI to its model.
func (db *DB) Lookup(id imei.IMEI) (*Model, bool) {
	m, ok := db.byTAC[id.TAC()]
	return m, ok
}

// LookupTAC resolves a TAC to its model.
func (db *DB) LookupTAC(t imei.TAC) (*Model, bool) {
	m, ok := db.byTAC[t]
	return m, ok
}

// ModelsOfClass returns the models of one class.
func (db *DB) ModelsOfClass(c Class) []*Model {
	var out []*Model
	for _, m := range db.models {
		if m.Class == c {
			out = append(out, m)
		}
	}
	return out
}

// IsWearable reports whether the IMEI belongs to a SIM-enabled wearable.
func (db *DB) IsWearable(id imei.IMEI) bool {
	m, ok := db.Lookup(id)
	return ok && m.Class == WearableSIM
}

// Allocator hands out sequential IMEIs per model, rotating across the
// model's TACs, the way vendors burn identity blocks.
type Allocator struct {
	db   *DB
	next map[imei.TAC]uint32
}

// NewAllocator returns an allocator over the database.
func NewAllocator(db *DB) *Allocator {
	return &Allocator{db: db, next: make(map[imei.TAC]uint32)}
}

// Allocate returns a fresh IMEI for the named model.
func (a *Allocator) Allocate(model *Model) (imei.IMEI, error) {
	if model == nil || len(model.TACs) == 0 {
		return 0, fmt.Errorf("devicedb: cannot allocate for model without TACs")
	}
	// Pick the TAC with the fewest allocations so blocks fill evenly.
	best := model.TACs[0]
	for _, t := range model.TACs[1:] {
		if a.next[t] < a.next[best] {
			best = t
		}
	}
	serial := a.next[best]
	if serial > 999999 {
		return 0, fmt.Errorf("devicedb: TAC %s exhausted", best)
	}
	a.next[best] = serial + 1
	return imei.New(best, serial)
}
