package mme

import (
	"bytes"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

func sampleRecords() []Record {
	t0 := time.Date(2018, 1, 10, 8, 0, 0, 0, time.UTC)
	return []Record{
		{Time: t0, IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Sector: 5, Event: Attach},
		{Time: t0.Add(30 * time.Minute), IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Sector: 9, Event: Update},
		{Time: t0.Add(2 * time.Hour), IMSI: subs.MustNew(2), IMEI: imei.MustNew(35733009, 7), Sector: 12, Event: Attach},
		{Time: t0.Add(5 * time.Hour), IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Sector: 5, Event: Detach},
	}
}

func TestEventStringRoundTrip(t *testing.T) {
	for _, e := range []Event{Attach, Update, Detach} {
		got, err := ParseEvent(e.String())
		if err != nil || got != e {
			t.Fatalf("round trip %v -> %v, %v", e, got, err)
		}
	}
	if _, err := ParseEvent("bogus"); err == nil {
		t.Fatal("bogus event accepted")
	}
	if !strings.Contains(Event(9).String(), "9") {
		t.Fatal("unknown event string unhelpful")
	}
}

func TestLogSort(t *testing.T) {
	recs := sampleRecords()
	var l Log
	l.Append(recs[2])
	l.Append(recs[0])
	l.Append(recs[3])
	l.Append(recs[1])
	if l.Sorted() {
		t.Fatal("scrambled log reported sorted")
	}
	l.SortByTime()
	if !l.Sorted() {
		t.Fatal("log not sorted after SortByTime")
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d", l.Len())
	}
}

// TestSortByTimeStable requires SortByTime to keep equal-time records in
// their original order, element for element the order sort.SliceStable
// gives, on a log where every timestamp is shared by hundreds of records.
func TestSortByTimeStable(t *testing.T) {
	t0 := time.Date(2018, 1, 10, 0, 0, 0, 0, time.UTC)
	var l Log
	for i := 0; i < 5000; i++ {
		l.Append(Record{
			Time:   t0.Add(time.Duration(i*7919%16) * time.Minute),
			IMSI:   subs.MustNew(uint64(i % 37)),
			Sector: cells.SectorID(i),
			Event:  Update,
		})
	}
	want := slices.Clone(l.Records)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
	l.SortByTime()
	for i := range want {
		if l.Records[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, l.Records[i], want[i])
		}
	}
}

func TestByUser(t *testing.T) {
	l := Log{Records: sampleRecords()}
	by := l.ByUser()
	if len(by) != 2 {
		t.Fatalf("users = %d", len(by))
	}
	if got := len(by[subs.MustNew(1)]); got != 3 {
		t.Fatalf("user1 records = %d", got)
	}
	// Order preserved per user.
	u1 := by[subs.MustNew(1)]
	if u1[0].Event != Attach || u1[2].Event != Detach {
		t.Fatal("per-user order lost")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) || got[i].IMSI != recs[i].IMSI ||
			got[i].IMEI != recs[i].IMEI || got[i].Sector != recs[i].Sector || got[i].Event != recs[i].Event {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVRejects(t *testing.T) {
	cases := map[string]string{
		"bad header": "a,b,c,d,e\n",
		"bad imsi":   "ts_unix,imsi,imei,sector,event\n1,xyz,490154203237518,1,attach\n",
		"bad imei":   "ts_unix,imsi,imei,sector,event\n1,214070000000001,123,1,attach\n",
		"bad event":  "ts_unix,imsi,imei,sector,event\n1,214070000000001,490154203237518,1,boom\n",
		"bad ts":     "ts_unix,imsi,imei,sector,event\nxx,214070000000001,490154203237518,1,attach\n",
		"bad sector": "ts_unix,imsi,imei,sector,event\n1,214070000000001,490154203237518,-2,attach\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestEmptyCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("truly empty input should fail on header")
	}
}

func TestFileRoundTripPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	for _, name := range []string{"mme.csv", "mme.csv.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, recs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: len = %d", name, len(got))
		}
		if got[0] != recs[0] {
			t.Fatalf("%s: first record %+v != %+v", name, got[0], recs[0])
		}
	}
}

func TestCellsSectorIDWidth(t *testing.T) {
	// The codec must survive the full SectorID range.
	r := sampleRecords()[0]
	r.Sector = cells.SectorID(4294967295)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Record{r}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Sector != r.Sector {
		t.Fatalf("sector = %d", got[0].Sector)
	}
}
