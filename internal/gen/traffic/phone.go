package traffic

import (
	"math"
	"slices"
	"time"

	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/population"
)

// Phone-side calibration.
const (
	phoneBytesMedianPerDay = 12e6 // bytes/day at engagement 1
	phoneBytesSigma        = 0.45
	phoneTxMedianBytes     = 3000
	phoneDataExp           = 1.0  // engagement exponent on data volume
	phoneTxExp             = 1.55 // engagement exponent on transactions
	phoneGenericPerDay     = 0.6  // sampled generic phone proxy records/day
	tdCompanionPerDay      = 1.3  // companion sync sessions/day for TD users
	// phoneSizeSpread is the extra lognormal sigma on handset transaction
	// sizes: smartphone traffic mixes far more app types, so its size
	// distribution is less sharply centred than the wearables' (§4.3).
	phoneSizeSpread = 0.9
)

// PhoneWeek generates the weekly usage aggregate of a user's handset. The
// handset dwarfs the wearable (three orders of magnitude, Fig 4(b)) and its
// volume scales with engagement: since wearable owners carry a boosted
// engagement factor, they consume ≈26% more data and — with the steeper
// transaction exponent — ≈48% more transactions than the remaining
// customers (Fig 4(a)).
func (g *Generator) PhoneWeek(u *population.User, w simtime.Week, r *randx.Rand) udr.Record {
	weekly := phoneBytesMedianPerDay * 7
	// The user's persistent level carries the cross-user spread; the
	// weekly lognormal is only short-term noise, so per-user totals over
	// several weeks keep their heavy tail (Fig 4(a/b)).
	bytes := r.LogNormalMedian(weekly, phoneBytesSigma) * u.PhoneLevel *
		math.Pow(u.Engagement, phoneDataExp)
	// Mean transaction size varies mildly per user-week; the extra
	// engagement exponent makes heavy users chattier, not just heavier.
	avgTx := r.LogNormalMedian(phoneTxMedianBytes, 0.35)
	tx := bytes / avgTx * math.Pow(u.Engagement, phoneTxExp-phoneDataExp)
	if bytes < 1 {
		bytes = 0
		tx = 0
	}
	if bytes > 0 && tx < 1 {
		tx = 1
	}
	return udr.Record{
		Week:         w,
		IMSI:         u.IMSI,
		IMEI:         u.PhoneIMEI,
		Bytes:        int64(bytes),
		Transactions: int64(tx),
	}
}

// AppendPhoneProxyDay appends past len(dst) the sparse phone-side proxy
// records of one day in the detail window: a sampled trickle of generic
// traffic (kept small — the full phone stream is represented by UDRs),
// plus the companion-app bursts that make Through-Device wearables
// fingerprintable. The sampled transaction count sizes the growth up
// front, and companion bursts fold into the same slab.
func (g *Generator) AppendPhoneProxyDay(dst []proxylog.Record, u *population.User, d simtime.Day, r *randx.Rand) []proxylog.Record {
	day := d.Time()

	// Generic sample: popular-app hosts as seen from handsets. Handset
	// traffic spans a far wider app variety than wearables, so its size
	// distribution is less sharply centred (the §4.3 comparison with
	// smartphone studies); phoneSizeSpread widens the lognormal.
	n := r.Poisson(phoneGenericPerDay * math.Min(u.Engagement, 3))
	dst = slices.Grow(dst, n)[:len(dst)]
	for i := 0; i < n; i++ {
		app := g.catalog.Apps()[g.catalog.SampleApp(r)]
		t := day.Add(diurnalOffset(phoneHourPick, r))
		rec := g.transaction(u, app, pickKind(r), t, r)
		rec.IMEI = u.PhoneIMEI
		spread := r.LogNormal(0, phoneSizeSpread)
		rec.BytesUp = int64(float64(rec.BytesUp) * spread)
		rec.BytesDown = int64(float64(rec.BytesDown) * spread)
		if rec.BytesUp+rec.BytesDown < 200 {
			rec.BytesDown = 200
		}
		dst = append(dst, rec)
	}

	// Companion sync traffic for fingerprintable Through-Device users.
	if u.ThroughDevice && u.TDFingerprint != "" {
		hosts := population.CompanionDomains[u.TDFingerprint]
		// Companion syncs follow the wearer's day (the wearable relays
		// whenever it is worn and active), so detected TD users show the
		// same macroscopic hourly pattern as SIM-enabled ones.
		sessions := r.Poisson(tdCompanionPerDay)
		for s := 0; s < sessions && len(hosts) > 0; s++ {
			t := day.Add(diurnalOffset(wearerHourPick(d.IsWeekend()), r))
			burst := 2 + r.IntN(4)
			for b := 0; b < burst; b++ {
				bytes := r.LogNormalMedian(5200, 0.8)
				up := int64(bytes * 0.35)
				dst = append(dst, proxylog.Record{
					Time:      t,
					IMSI:      u.IMSI,
					IMEI:      u.PhoneIMEI,
					Scheme:    proxylog.HTTPS,
					Host:      hosts[r.IntN(len(hosts))],
					BytesUp:   up,
					BytesDown: int64(bytes) - up,
					Duration:  time.Duration(90+r.IntN(400)) * time.Millisecond,
				})
				t = t.Add(time.Duration(4+r.IntN(30)) * time.Second)
			}
		}
	}
	return dst
}

// diurnalOffset draws a time-of-day offset from an hourly weight profile.
func diurnalOffset(pick *randx.Categorical, r *randx.Rand) time.Duration {
	hour := pick.Sample(r)
	return time.Duration(hour)*time.Hour + time.Duration(r.IntN(3600))*time.Second
}

// wearerHourPick follows the wearable activity profile: companion syncs
// happen while the device is worn, so Through-Device traffic shares the
// SIM wearables' macroscopic hourly pattern.
func wearerHourPick(weekend bool) *randx.Categorical {
	if weekend {
		return weekendHourPick
	}
	return weekdayHourPick
}

// phoneProfile is the aggregate handset curve: flatter, business-hours
// heavy, with a declining evening — the ISP-wide baseline the paper's §4.2
// compares wearables against ("relative usage of wearables is slightly
// higher on weekends and evenings").
var phoneProfile = [24]float64{
	0.25, 0.18, 0.12, 0.10, 0.15, 0.30, 0.55, 0.85,
	1.05, 1.15, 1.20, 1.20, 1.15, 1.15, 1.10, 1.10,
	1.05, 1.00, 0.90, 0.80, 0.70, 0.60, 0.45, 0.32,
}

var (
	weekdayHourPick = randx.MustCategorical(weekdayProfile[:])
	weekendHourPick = randx.MustCategorical(weekendProfile[:])
	phoneHourPick   = randx.MustCategorical(phoneProfile[:])
)

// phoneKindMix draws domain kinds with phone-typical proportions.
var phoneKindMix = randx.MustCategorical([]float64{0.55, 0.20, 0.13, 0.12})

func pickKind(r *randx.Rand) apps.DomainKind {
	return apps.DomainKind(phoneKindMix.Sample(r))
}
