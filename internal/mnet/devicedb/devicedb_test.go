package devicedb

import (
	"testing"

	"wearwild/internal/mnet/imei"
)

func TestAddAndLookup(t *testing.T) {
	db := New()
	err := db.Add(Model{Name: "W1", Vendor: "V", OS: "Tizen", Class: WearableSIM, TACs: []imei.TAC{11111111}})
	if err != nil {
		t.Fatal(err)
	}
	id := imei.MustNew(11111111, 42)
	m, ok := db.Lookup(id)
	if !ok || m.Name != "W1" {
		t.Fatalf("lookup = %v, %v", m, ok)
	}
	if _, ok := db.Lookup(imei.MustNew(22222222, 1)); ok {
		t.Fatal("unknown TAC resolved")
	}
	if !db.IsWearable(id) {
		t.Fatal("wearable not identified")
	}
}

func TestAddRejects(t *testing.T) {
	db := New()
	if err := db.Add(Model{Name: "", TACs: []imei.TAC{1}}); err == nil {
		t.Fatal("nameless model accepted")
	}
	if err := db.Add(Model{Name: "X"}); err == nil {
		t.Fatal("model without TACs accepted")
	}
	if err := db.Add(Model{Name: "X", TACs: []imei.TAC{100000000}}); err == nil {
		t.Fatal("invalid TAC accepted")
	}
	if err := db.Add(Model{Name: "A", TACs: []imei.TAC{5}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(Model{Name: "B", TACs: []imei.TAC{5}}); err == nil {
		t.Fatal("duplicate TAC accepted")
	}
}

func TestAddCopiesTACs(t *testing.T) {
	db := New()
	tacs := []imei.TAC{7}
	if err := db.Add(Model{Name: "A", TACs: tacs}); err != nil {
		t.Fatal(err)
	}
	tacs[0] = 9 // mutate caller slice
	if _, ok := db.LookupTAC(7); !ok {
		t.Fatal("db affected by caller mutation")
	}
}

func TestDefaultCatalog(t *testing.T) {
	db := Default()
	wearables := db.ModelsOfClass(WearableSIM)
	if len(wearables) < 4 {
		t.Fatalf("only %d wearable models", len(wearables))
	}
	phones := db.ModelsOfClass(Smartphone)
	if len(phones) < 6 {
		t.Fatalf("only %d smartphone models", len(phones))
	}
	// The operator does not support the Apple Watch 3 (§3.2): no Apple
	// wearables may appear.
	for _, m := range wearables {
		if m.Vendor == "Apple" {
			t.Fatalf("Apple wearable %q in catalogue", m.Name)
		}
	}
	// Samsung and LG must dominate the wearable list.
	samsungLG := 0
	for _, m := range wearables {
		if m.Vendor == "Samsung" || m.Vendor == "LG" {
			samsungLG++
		}
	}
	if samsungLG*2 < len(wearables) {
		t.Fatalf("Samsung+LG are only %d of %d wearables", samsungLG, len(wearables))
	}
	// Every wearable TAC resolves to a wearable and no smartphone TAC
	// classifies as one: the identification join of §3.2.
	for _, m := range wearables {
		for _, tac := range m.TACs {
			if got, ok := db.LookupTAC(tac); !ok || got.Class != WearableSIM {
				t.Fatalf("TAC %s resolves to %v", tac, got)
			}
		}
	}
	for _, m := range phones {
		for _, tac := range m.TACs {
			if db.IsWearable(imei.MustNew(tac, 0)) {
				t.Fatalf("smartphone TAC %s classified wearable", tac)
			}
		}
	}
}

func TestAllocator(t *testing.T) {
	db := Default()
	alloc := NewAllocator(db)
	model := db.ModelsOfClass(WearableSIM)[0]

	seen := map[imei.IMEI]bool{}
	perTAC := map[imei.TAC]int{}
	const n = 1000
	for i := 0; i < n; i++ {
		id, err := alloc.Allocate(model)
		if err != nil {
			t.Fatal(err)
		}
		if !id.Valid() {
			t.Fatalf("allocated invalid IMEI %s", id)
		}
		if seen[id] {
			t.Fatalf("duplicate IMEI %s", id)
		}
		seen[id] = true
		got, ok := db.Lookup(id)
		if !ok || got != model {
			t.Fatalf("allocated IMEI resolves to %v", got)
		}
		perTAC[id.TAC()]++
	}
	// Allocation must spread across the model's TACs roughly evenly.
	if len(model.TACs) > 1 {
		for _, tac := range model.TACs {
			if c := perTAC[tac]; c < n/len(model.TACs)-1 || c > n/len(model.TACs)+1 {
				t.Fatalf("TAC %s got %d of %d allocations", tac, c, n)
			}
		}
	}
}

func TestAllocatorErrors(t *testing.T) {
	alloc := NewAllocator(New())
	if _, err := alloc.Allocate(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := alloc.Allocate(&Model{Name: "X"}); err == nil {
		t.Fatal("model without TACs accepted")
	}
}
