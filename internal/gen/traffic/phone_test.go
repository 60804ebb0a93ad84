package traffic

import (
	"math"
	"testing"

	"wearwild/internal/simtime"
	"wearwild/internal/stats"

	"wearwild/internal/gen/population"
)

func TestPhoneWeekAggregates(t *testing.T) {
	f := newFixture(t)
	// Geometric means: at unit-test population sizes the heavy-tailed
	// per-user level makes arithmetic means noisy, while log-means expose
	// the engagement-driven gains exactly. The full-pipeline core test
	// checks the arithmetic-mean gains at larger scale.
	var ownerBytes, restBytes, ownerTx, restTx stats.Summary
	weeks := []simtime.Week{15, 16, 17, 18, 19, 20, 21}
	for i, u := range f.pop.Users {
		for _, w := range weeks {
			r := f.root.Split("pw", uint64(i)*100+uint64(w))
			rec := f.gen.PhoneWeek(u, w, r)
			if rec.IMSI != u.IMSI || rec.IMEI != u.PhoneIMEI {
				t.Fatal("identity mismatch")
			}
			if err := rec.Validate(); err != nil {
				t.Fatal(err)
			}
			if rec.Bytes == 0 {
				continue
			}
			if u.OwnsWearable() {
				ownerBytes.Add(math.Log(float64(rec.Bytes)))
				ownerTx.Add(math.Log(float64(rec.Transactions)))
			} else if !u.ThroughDevice {
				restBytes.Add(math.Log(float64(rec.Bytes)))
				restTx.Add(math.Log(float64(rec.Transactions)))
			}
		}
	}
	// Fig 4(a): owners consume ≈26% more data (geometric ratio ≈ the 1.30
	// engagement boost).
	dataRatio := math.Exp(ownerBytes.Mean() - restBytes.Mean())
	if dataRatio < 1.15 || dataRatio > 1.50 {
		t.Fatalf("owner/rest data ratio = %.3f, want ≈1.30", dataRatio)
	}
	// ...and ≈48% more transactions (1.30^1.55 ≈ 1.50).
	txRatio := math.Exp(ownerTx.Mean() - restTx.Mean())
	if txRatio < 1.25 || txRatio > 1.80 {
		t.Fatalf("owner/rest tx ratio = %.3f, want ≈1.50", txRatio)
	}
	// Transactions must out-gain data (the paper's 48% vs 26% gap).
	if txRatio <= dataRatio {
		t.Fatalf("tx ratio %.3f not above data ratio %.3f", txRatio, dataRatio)
	}
}

func TestWearableShareOfTotal(t *testing.T) {
	f := newFixture(t)
	weeks := []simtime.Week{15, 16, 17, 18, 19, 20, 21}
	var shares []float64
	for i, u := range f.pop.WearableOwners() {
		if !u.DataActive() {
			continue
		}
		var wear, phone float64
		for _, w := range weeks {
			r := f.root.Split("share", uint64(i)*100+uint64(w))
			phone += float64(f.gen.PhoneWeek(u, w, r).Bytes)
			for dd := 0; dd < 7; dd++ {
				d := w.FirstDay() + simtime.Day(dd)
				rr := f.root.Split("sw", uint64(i)*1000+uint64(d))
				visits := f.mob.AppendDayVisits(nil, u, d, rr.Split("v", 0))
				for _, rec := range f.gen.AppendWearableDay(nil, u, d, visits, rr.Split("t", 0), &Scratch{}) {
					wear += float64(rec.Bytes())
				}
			}
		}
		if wear+phone > 0 {
			shares = append(shares, wear/(wear+phone))
		}
	}
	e := stats.NewECDF(shares)
	// Fig 4(b): wearable traffic ≈3 orders of magnitude below the total.
	med := e.Quantile(0.5)
	if med < 0.0001 || med > 0.02 {
		t.Fatalf("median wearable share = %.5f, want ≈0.001", med)
	}
	// ...but ≈10% of users get ≈3% from the wearable: a real upper tail.
	if p90 := e.Quantile(0.9); p90 < 0.004 {
		t.Fatalf("p90 wearable share = %.5f, want ≥0.004", p90)
	}
}

// companionHosts is the host set of every Through-Device companion service.
var companionHosts = func() map[string]bool {
	set := map[string]bool{}
	for _, hosts := range population.CompanionDomains {
		for _, h := range hosts {
			set[h] = true
		}
	}
	return set
}()

func TestPhoneProxyDay(t *testing.T) {
	f := newFixture(t)
	day := simtime.Day(simtime.DetailStartDay + 4)
	sawCompanion := false
	sawGeneric := false
	for i, u := range f.pop.OrdinaryUsers() {
		r := f.root.Split("ppd", uint64(i))
		recs := f.gen.AppendPhoneProxyDay(nil, u, day, r)
		for _, rec := range recs {
			if err := rec.Validate(); err != nil {
				t.Fatal(err)
			}
			if rec.IMEI != u.PhoneIMEI {
				t.Fatal("phone record with wrong IMEI")
			}
			if companionHosts[rec.Host] {
				sawCompanion = true
				if u.TDFingerprint == "" {
					t.Fatal("companion traffic from non-fingerprintable user")
				}
			} else {
				sawGeneric = true
			}
		}
	}
	if !sawCompanion {
		t.Fatal("no companion traffic generated")
	}
	if !sawGeneric {
		t.Fatal("no generic phone traffic generated")
	}
}

func TestCompanionTrafficMatchesService(t *testing.T) {
	f := newFixture(t)
	day := simtime.Day(simtime.DetailStartDay)
	for i, u := range f.pop.OrdinaryUsers() {
		if u.TDFingerprint == "" {
			continue
		}
		allowed := map[string]bool{}
		for _, h := range population.CompanionDomains[u.TDFingerprint] {
			allowed[h] = true
		}
		for rep := 0; rep < 10; rep++ {
			r := f.root.Split("svc", uint64(i)*100+uint64(rep))
			for _, rec := range f.gen.AppendPhoneProxyDay(nil, u, day, r) {
				if companionHosts[rec.Host] && !allowed[rec.Host] {
					t.Fatalf("user fingerprinted as %s hit foreign companion host %s", u.TDFingerprint, rec.Host)
				}
			}
		}
		break // one fingerprintable user is enough
	}
}
