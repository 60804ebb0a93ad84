package udr

import (
	"bytes"
	"strings"
	"testing"

	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
)

func sampleRecords() []Record {
	return []Record{
		{Week: 0, IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Bytes: 480000, Transactions: 120},
		{Week: 0, IMSI: subs.MustNew(2), IMEI: imei.MustNew(35733009, 2), Bytes: 210_000_000, Transactions: 41000},
		{Week: 1, IMSI: subs.MustNew(1), IMEI: imei.MustNew(35332011, 1), Bytes: 0, Transactions: 0},
	}
}

func TestValidate(t *testing.T) {
	good := sampleRecords()[0]
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Bytes = -1
	if bad.Validate() == nil {
		t.Fatal("negative bytes accepted")
	}
	bad = good
	bad.Transactions = 0 // bytes without transactions
	if bad.Validate() == nil {
		t.Fatal("bytes without transactions accepted")
	}
	bad = good
	bad.Bytes = 0 // transactions without bytes
	if bad.Validate() == nil {
		t.Fatal("transactions without bytes accepted")
	}
}

func TestSortAndGroup(t *testing.T) {
	var l Log
	recs := sampleRecords()
	l.Append(recs[2])
	l.Append(recs[1])
	l.Append(recs[0])
	l.Sort()
	if l.Records[0].Week != 0 || l.Records[0].IMSI != subs.MustNew(1) {
		t.Fatalf("sort order wrong: %+v", l.Records[0])
	}
	if l.Records[2].Week != 1 {
		t.Fatal("week ordering wrong")
	}
	by := l.ByUser()
	if len(by) != 2 || len(by[subs.MustNew(1)]) != 2 {
		t.Fatal("grouping wrong")
	}
	if l.Len() != 3 {
		t.Fatal("len wrong")
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
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVRejects(t *testing.T) {
	head := "week,imsi,imei,bytes,tx\n"
	cases := map[string]string{
		"bad header": "a,b,c,d,e\n",
		"bad week":   head + "x,214070000000001,490154203237518,1,1\n",
		"bad imsi":   head + "0,99,490154203237518,1,1\n",
		"bad imei":   head + "0,214070000000001,12,1,1\n",
		"bad bytes":  head + "0,214070000000001,490154203237518,x,1\n",
		"violates":   head + "0,214070000000001,490154203237518,5,0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
