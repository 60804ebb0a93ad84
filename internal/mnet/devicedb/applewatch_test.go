package devicedb

import "testing"

func TestDefaultWithAppleWatch(t *testing.T) {
	db := DefaultWithAppleWatch()
	var apple *Model
	for _, m := range db.ModelsOfClass(WearableSIM) {
		if m.Vendor == "Apple" {
			apple = m
		}
	}
	if apple == nil {
		t.Fatal("Apple wearable missing from what-if catalogue")
	}
	if apple.Year != 2017 || apple.OS != "watchOS" {
		t.Fatalf("apple model = %+v", apple)
	}
	// Its TACs resolve as wearable.
	for _, tac := range apple.TACs {
		m, ok := db.LookupTAC(tac)
		if !ok || m.Class != WearableSIM {
			t.Fatalf("TAC %s not a wearable", tac)
		}
	}
	// The base catalogue is untouched.
	for _, m := range Default().ModelsOfClass(WearableSIM) {
		if m.Vendor == "Apple" {
			t.Fatal("base catalogue gained an Apple wearable")
		}
	}
}

func TestModelYearsPopulated(t *testing.T) {
	db := Default()
	for c := Smartphone; c <= M2M; c++ {
		for _, m := range db.ModelsOfClass(c) {
			if m.Year < 2010 || m.Year > 2018 {
				t.Fatalf("model %q has implausible year %d", m.Name, m.Year)
			}
		}
	}
}
