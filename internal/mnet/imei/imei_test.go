package imei

import (
	"strconv"
	"testing"
	"testing/quick"
)

// luhnReference is an independent string-based Luhn implementation used to
// cross-check the arithmetic version.
func luhnReference(body string) int {
	sum := 0
	// Rightmost body digit is doubled.
	for i := 0; i < len(body); i++ {
		d := int(body[len(body)-1-i] - '0')
		if i%2 == 0 {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
	}
	return (10 - sum%10) % 10
}

func TestLuhnAgainstReference(t *testing.T) {
	f := func(tacRaw uint32, serialRaw uint32) bool {
		tac := TAC(tacRaw % (maxTAC + 1))
		serial := serialRaw % 1000000
		id := MustNew(tac, serial)
		body := id.String()[:14]
		want := luhnReference(body)
		return int(uint64(id)%10) == want && id.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestKnownIMEI(t *testing.T) {
	// 49015420323751 has Luhn check digit 8 (a classic GSM doc example).
	id, err := Parse("490154203237518")
	if err != nil {
		t.Fatal(err)
	}
	if id.TAC() != 49015420 {
		t.Fatalf("TAC = %d", id.TAC())
	}
	if id.Serial() != 323751 {
		t.Fatalf("serial = %d", id.Serial())
	}
	if id.String() != "490154203237518" {
		t.Fatalf("string = %s", id.String())
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"",
		"12345",
		"4901542032375180", // 16 digits
		"49015420323751x",  // non-digit
		"490154203237519",  // wrong check digit
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Fatalf("Parse(%q) accepted", c)
		}
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(TAC(100000000), 0); err == nil {
		t.Fatal("9-digit TAC accepted")
	}
	if _, err := New(1, 1000000); err == nil {
		t.Fatal("7-digit serial accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(tacRaw, serialRaw uint32) bool {
		tac := TAC(tacRaw % (maxTAC + 1))
		serial := serialRaw % 1000000
		id := MustNew(tac, serial)
		parsed, err := Parse(id.String())
		if err != nil {
			return false
		}
		return parsed == id && parsed.TAC() == tac && parsed.Serial() == serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleDigitCorruptionDetected(t *testing.T) {
	// Luhn detects any single-digit substitution.
	id := MustNew(35332011, 424242)
	s := id.String()
	for pos := 0; pos < 15; pos++ {
		for delta := byte(1); delta < 10; delta++ {
			b := []byte(s)
			b[pos] = '0' + (b[pos]-'0'+delta)%10
			if string(b) == s {
				continue
			}
			if _, err := Parse(string(b)); err == nil {
				t.Fatalf("corruption at pos %d (%s -> %s) accepted", pos, s, b)
			}
		}
	}
}

func TestZeroInvalid(t *testing.T) {
	if IMEI(0).Valid() {
		t.Fatal("zero IMEI must be invalid")
	}
}

func TestTACParseFormat(t *testing.T) {
	if got := TAC(123456).String(); got != "00123456" {
		t.Fatalf("string = %s", got)
	}
}

func TestRange(t *testing.T) {
	r := Range{TAC: 35332011, Lo: 100, Hi: 199}
	if r.Size() != 100 {
		t.Fatalf("size = %d", r.Size())
	}
	first := MustNew(r.TAC, r.Lo)
	last := MustNew(r.TAC, r.Hi)
	if first.Serial() != 100 || last.Serial() != 199 {
		t.Fatalf("bounds serials = %d, %d", first.Serial(), last.Serial())
	}
	if !r.Contains(first) || !r.Contains(last) {
		t.Fatal("range must contain its endpoints")
	}
	if r.Contains(MustNew(35332011, 99)) || r.Contains(MustNew(35332011, 200)) {
		t.Fatal("range contains outsiders")
	}
	if r.Contains(MustNew(35332012, 150)) {
		t.Fatal("range matched wrong TAC")
	}
	if (Range{TAC: 1, Lo: 5, Hi: 4}).Size() != 0 {
		t.Fatal("inverted range size must be 0")
	}
}

func TestStringAlwaysFifteenDigits(t *testing.T) {
	id := MustNew(1, 2) // tiny numeric value, must still pad
	s := id.String()
	if len(s) != 15 {
		t.Fatalf("len = %d (%s)", len(s), s)
	}
	if _, err := strconv.ParseUint(s, 10, 64); err != nil {
		t.Fatalf("non-numeric render %q", s)
	}
}
