// Package population synthesises the subscriber base: SIM-enabled wearable
// owners and a comparison sample of ordinary customers. Every quantitative
// target in the paper's user-behaviour section is planted here as an
// explicit, documented parameter:
//
//   - adoption grows ≈1.5%/month for +9% over the five-month window and 7%
//     of early users abandon their wearable (§4.1, Fig 2);
//   - only ≈34% of SIM-wearable users ever generate cellular data, split
//     across the three causes the paper conjectures: no data subscription,
//     WiFi preference, and the limited cellular app set (§4.1);
//   - wearable owners are more engaged and more mobile than the ordinary
//     customer base (§4.3–4.4, Fig 4);
//   - ≈60% of data-active users transmit from a single location (§4.4).
package population

import (
	"fmt"
	"math"

	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/imei"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/randx"
	"wearwild/internal/simtime"

	"wearwild/internal/gen/apps"
)

// NeverChurns marks a user who keeps the wearable through the study.
const NeverChurns = simtime.Day(1 << 30)

// User is one synthesised subscriber.
type User struct {
	IMSI subs.IMSI

	// PhoneIMEI is the user's handset; every subscriber has one.
	PhoneIMEI  imei.IMEI
	PhoneModel *devicedb.Model

	// WearableIMEI is set for SIM-enabled wearable owners. The wearable
	// has its own SIM in reality, but the study joins on the user, so we
	// keep one IMSI per user and distinguish devices by IMEI.
	WearableIMEI  imei.IMEI
	WearableModel *devicedb.Model

	// AdoptDay is the first study day the wearable exists (may be
	// negative: adopted before the window). Meaningless for non-owners.
	AdoptDay simtime.Day
	// ChurnDay is the day the user abandons the wearable entirely;
	// NeverChurns if they keep it.
	ChurnDay simtime.Day
	// RegProb is the per-day probability that the wearable powers up and
	// registers with the MME at all.
	RegProb float64

	// HasDataPlan reports whether the wearable SIM carries a data
	// subscription; without one the device only registers (§4.1).
	HasDataPlan bool
	// WiFiMostly reports that the user parks the wearable on WiFi, so no
	// cellular data shows up even with a plan (§4.1).
	WiFiMostly bool

	// Engagement is the latent activity factor (median 1): it scales
	// active hours, transaction rates and — for wearable owners —
	// mobility, producing the paper's Fig 3(d) and Fig 4(d) correlations.
	Engagement float64

	// SingleLocOnly pins all the user's wearable data to the home sector
	// (the 60% of §4.4).
	SingleLocOnly bool

	// Employed users run the weekday commute loop; the rest move only for
	// leisure. The ordinary customer base spans "all ages and
	// demographics" (§4.3), so its employed share is lower than the
	// young, tech-oriented wearable segment's.
	Employed bool

	// PhoneLevel is the user's persistent handset-volume factor: heavy
	// and light phone users stay heavy or light across weeks, which gives
	// the per-user totals of Fig 4(a/b) their cross-user spread.
	PhoneLevel float64

	// Home/Work anchor the daily mobility loop.
	Home       geo.Point
	Work       geo.Point
	HomeSector cells.SectorID
	WorkSector cells.SectorID
	// CommuteKm is the home-work great-circle distance.
	CommuteKm float64
	// MobilityScale stretches leisure movement beyond the commute.
	MobilityScale float64

	// InstalledApps holds catalogue indices of apps requiring Internet
	// access on the wearable (owners only).
	InstalledApps []int

	// ThroughDevice marks an ordinary user who owns a phone-paired
	// wearable relaying traffic through the smartphone (conclusion §6).
	ThroughDevice bool
	// TDFingerprint names the companion service whose traffic identifies
	// the Through-Device wearable ("" when not fingerprintable).
	TDFingerprint string
}

// OwnsWearable reports whether the user has a SIM-enabled wearable.
func (u *User) OwnsWearable() bool { return u.WearableIMEI != 0 }

// DataActive reports whether the wearable can ever produce cellular data.
func (u *User) DataActive() bool {
	return u.OwnsWearable() && u.HasDataPlan && !u.WiFiMostly && len(u.InstalledApps) > 0
}

// WearableActiveOn reports whether the wearable exists and has not been
// abandoned on the given day.
func (u *User) WearableActiveOn(d simtime.Day) bool {
	return u.OwnsWearable() && d >= u.AdoptDay && d < u.ChurnDay
}

// Config holds the population parameters. Defaults reproduce the paper.
type Config struct {
	// WearableUsers is the number of SIM-wearable owners at the END of the
	// window ("in the order of thousands", §3.2).
	WearableUsers int
	// OrdinaryUsers is the size of the comparison sample standing in for
	// the ISP's tens of millions of remaining customers.
	OrdinaryUsers int

	// MonthlyGrowth is the adoption growth rate (§4.1).
	MonthlyGrowth float64
	// ChurnFrac is the fraction of first-week users who abandon the
	// wearable before the last week (§4.1).
	ChurnFrac float64
	// SteadyRegProb is the daily registration probability of habitual
	// wearers; IntermittentFrac of users instead draw a low probability,
	// which reproduces the 77% first-week→last-week retention.
	SteadyRegProb    float64
	IntermittentFrac float64

	// DataPlanFrac is the share of wearable SIMs with a data subscription;
	// WiFiMostlyFrac is the share of plan-holders who stay on WiFi. The
	// product of (plan, not-wifi) yields the paper's 34% data-active.
	DataPlanFrac   float64
	WiFiMostlyFrac float64

	// SingleLocFrac pins that share of data-active users to one location.
	SingleLocFrac float64

	// InstallMedian/InstallSigma parameterise the lognormal install count
	// (mean ≈8, 90% <20, a tail above 100; §4.3).
	InstallMedian float64
	InstallSigma  float64

	// EngagementSigma is the lognormal sigma of the latent activity
	// factor.
	EngagementSigma float64
	// OwnerEngagementBoost multiplies wearable owners' engagement,
	// producing the +26% data / +48% transactions of Fig 4(a).
	OwnerEngagementBoost float64

	// CommuteMedianKm/CommuteSigma shape home-work distances.
	CommuteMedianKm float64
	CommuteSigma    float64
	// OwnerMobilityBoost stretches owners' movement; combined with the
	// employment mix it yields the ≈2× displacement and +70% location
	// entropy of §4.4.
	OwnerMobilityBoost float64
	// EmployedFracOwner/Ordinary are the commuting shares per segment.
	EmployedFracOwner    float64
	EmployedFracOrdinary float64
	// PhoneLevelSigma is the lognormal sigma of the persistent per-user
	// handset volume factor.
	PhoneLevelSigma float64

	// ThroughDeviceFrac is the share of ordinary users with phone-paired
	// wearables; TDFingerprintFrac the share of those identifiable from
	// companion-app traffic (≈16%, conclusion).
	ThroughDeviceFrac float64
	TDFingerprintFrac float64
}

// DefaultConfig returns parameters calibrated to the paper's findings.
func DefaultConfig() Config {
	return Config{
		WearableUsers: 3000,
		OrdinaryUsers: 12000,

		MonthlyGrowth: 0.015,
		ChurnFrac:     0.07,

		SteadyRegProb:    0.95,
		IntermittentFrac: 0.30,

		DataPlanFrac:   0.60,
		WiFiMostlyFrac: 0.42,

		SingleLocFrac: 0.60,

		InstallMedian: 5.5,
		InstallSigma:  0.9,

		EngagementSigma:      0.75,
		OwnerEngagementBoost: 1.30,

		CommuteMedianKm: 7,
		CommuteSigma:    0.6,

		OwnerMobilityBoost: 1.6,

		EmployedFracOwner:    0.90,
		EmployedFracOrdinary: 0.55,
		PhoneLevelSigma:      0.9,

		ThroughDeviceFrac: 0.15,
		TDFingerprintFrac: 0.16,
	}
}

// Validate rejects out-of-range parameters.
func (c Config) Validate() error {
	if c.WearableUsers <= 0 || c.OrdinaryUsers <= 0 {
		return fmt.Errorf("population: user counts must be positive")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ChurnFrac", c.ChurnFrac},
		{"SteadyRegProb", c.SteadyRegProb},
		{"IntermittentFrac", c.IntermittentFrac},
		{"DataPlanFrac", c.DataPlanFrac},
		{"WiFiMostlyFrac", c.WiFiMostlyFrac},
		{"SingleLocFrac", c.SingleLocFrac},
		{"ThroughDeviceFrac", c.ThroughDeviceFrac},
		{"TDFingerprintFrac", c.TDFingerprintFrac},
		{"EmployedFracOwner", c.EmployedFracOwner},
		{"EmployedFracOrdinary", c.EmployedFracOrdinary},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("population: %s = %g outside [0,1]", p.name, p.v)
		}
	}
	if c.MonthlyGrowth < 0 || c.MonthlyGrowth > 1 {
		return fmt.Errorf("population: MonthlyGrowth = %g outside [0,1]", c.MonthlyGrowth)
	}
	if c.InstallMedian <= 0 || c.InstallSigma <= 0 || c.EngagementSigma <= 0 {
		return fmt.Errorf("population: distribution parameters must be positive")
	}
	if c.OwnerEngagementBoost <= 0 || c.OwnerMobilityBoost <= 0 || c.CommuteMedianKm <= 0 || c.CommuteSigma <= 0 {
		return fmt.Errorf("population: boost/commute parameters must be positive")
	}
	if c.PhoneLevelSigma <= 0 {
		return fmt.Errorf("population: PhoneLevelSigma must be positive")
	}
	return nil
}

// Population is the synthesised subscriber base.
type Population struct {
	Users   []*User // wearable owners first, then ordinary users
	Country geo.Country
	Topo    *cells.Topology
	Devices *devicedb.DB
	Catalog *apps.Catalog
	Config  Config
}

// WearableOwners returns the owner subset (a view into Users).
func (p *Population) WearableOwners() []*User {
	return p.Users[:p.Config.WearableUsers]
}

// OrdinaryUsers returns the non-owner subset.
func (p *Population) OrdinaryUsers() []*User {
	return p.Users[p.Config.WearableUsers:]
}

// TDFingerprintServices are the companion services the conclusion's
// Through-Device fingerprinting keys on.
var TDFingerprintServices = []string{
	"Fitbit", "Xiaomi-Wear", "AccuWeather-Wear", "Strava", "Runtastic",
}

// Build synthesises a population. The same (config, seed, substrate)
// triple always yields the same population.
func Build(cfg Config, country geo.Country, topo *cells.Topology, db *devicedb.DB,
	catalog *apps.Catalog, root *randx.Rand) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if topo == nil || topo.Len() == 0 {
		return nil, fmt.Errorf("population: empty topology")
	}
	wearableModels := db.ModelsOfClass(devicedb.WearableSIM)
	phoneModels := db.ModelsOfClass(devicedb.Smartphone)
	if len(wearableModels) == 0 || len(phoneModels) == 0 {
		return nil, fmt.Errorf("population: device DB lacks wearables or phones")
	}

	p := &Population{Country: country, Topo: topo, Devices: db, Catalog: catalog, Config: cfg}
	alloc := devicedb.NewAllocator(db)

	// Samsung and LG dominate the operator's wearables (§4.1): weight
	// models by vendor.
	wearWeights := make([]float64, len(wearableModels))
	for i, m := range wearableModels {
		switch m.Vendor {
		case "Samsung":
			wearWeights[i] = 5
		case "LG":
			wearWeights[i] = 3
		case "Apple":
			// Only present in the Apple Watch what-if catalogue, where it
			// immediately dominates sales.
			wearWeights[i] = 8
		default:
			wearWeights[i] = 1
		}
	}
	wearPick := randx.MustCategorical(wearWeights)

	// Handset choice: the general population follows a Zipf over the
	// catalogue; wearable owners and Through-Device users skew toward
	// recent models (the conclusion notes TD users carry "relatively
	// modern smartphones").
	baseWeights := randx.ZipfWeights(len(phoneModels), 0.7)
	modernWeights := make([]float64, len(phoneModels))
	for i, m := range phoneModels {
		modernWeights[i] = baseWeights[i] * math.Pow(2, float64(m.Year-2014))
	}
	phonePick := randx.MustCategorical(baseWeights)
	modernPhonePick := randx.MustCategorical(modernWeights)

	homePick, err := newHomeSampler(country)
	if err != nil {
		return nil, err
	}

	total := cfg.WearableUsers + cfg.OrdinaryUsers
	for i := 0; i < total; i++ {
		owner := i < cfg.WearableUsers
		u := &User{IMSI: subs.MustNew(uint64(100000 + i))}
		// The per-user stream is keyed by the subscriber's MSIN — stable
		// identity that survives resharding — not by the loop index. The
		// two coincide today (MSIN = 100000 + i), so the derived streams
		// and every downstream byte are unchanged.
		r := root.Split("user", u.IMSI.MSIN()-100000)

		// Engagement: wearable owners skew young/tech-oriented.
		u.Engagement = r.LogNormal(0, cfg.EngagementSigma)
		if owner {
			u.Engagement *= cfg.OwnerEngagementBoost
		}
		u.PhoneLevel = r.LogNormal(0, cfg.PhoneLevelSigma)

		if owner {
			model := wearableModels[wearPick.Sample(r)]
			u.WearableIMEI, err = alloc.Allocate(model)
			if err != nil {
				return nil, err
			}
			u.WearableModel = model

			u.AdoptDay = adoptionDay(cfg, i, cfg.WearableUsers)
			u.ChurnDay = churnDay(cfg, r, u.AdoptDay)
			if r.Bool(cfg.IntermittentFrac) {
				// Intermittent wearers: weekly presence well below 1.
				u.RegProb = 0.03 + 0.12*r.Float64()
			} else {
				u.RegProb = cfg.SteadyRegProb
			}
			u.HasDataPlan = r.Bool(cfg.DataPlanFrac)
			u.WiFiMostly = r.Bool(cfg.WiFiMostlyFrac)
			u.SingleLocOnly = r.Bool(cfg.SingleLocFrac)

			n := int(math.Round(r.LogNormalMedian(cfg.InstallMedian, cfg.InstallSigma)))
			if n < 1 {
				n = 1
			}
			if n > catalog.Len() {
				n = catalog.Len()
			}
			u.InstalledApps = catalog.SampleInstall(r, n)
		} else {
			u.ChurnDay = NeverChurns
			if r.Bool(cfg.ThroughDeviceFrac) {
				u.ThroughDevice = true
				// TD users behave like SIM-wearable users (conclusion):
				// engagement lifts here, mobility lifts with the shared
				// boost in the geography block below.
				u.Engagement *= cfg.OwnerEngagementBoost
				if r.Bool(cfg.TDFingerprintFrac) {
					u.TDFingerprint = TDFingerprintServices[r.IntN(len(TDFingerprintServices))]
				}
			}
		}

		// Handset for everyone; wearable demographics pick modern models.
		pick := phonePick
		if owner || u.ThroughDevice {
			pick = modernPhonePick
		}
		phoneModel := phoneModels[pick.Sample(r)]
		u.PhoneIMEI, err = alloc.Allocate(phoneModel)
		if err != nil {
			return nil, err
		}
		u.PhoneModel = phoneModel

		// Geography. Wearable demographics (SIM or Through-Device) carry a
		// mobility boost on both the commute and discretionary movement —
		// this is what yields the ≈2x displacement and +70% entropy of
		// §4.4.
		boost := 1.0
		employedFrac := cfg.EmployedFracOrdinary
		if owner || u.ThroughDevice {
			boost = cfg.OwnerMobilityBoost
			employedFrac = cfg.EmployedFracOwner
		}
		u.Employed = r.Bool(employedFrac)
		u.Home = homePick.sample(r)
		u.HomeSector = topo.Nearest(u.Home)
		// Commute length and movement scale correlate mildly with
		// engagement: the paper observes that the users generating more
		// transactions per hour also travel further (Fig 4(d)), and this
		// is where that association is planted.
		u.CommuteKm = r.LogNormalMedian(cfg.CommuteMedianKm*boost, cfg.CommuteSigma) *
			math.Pow(u.Engagement, 0.3)
		if u.CommuteKm > country.WidthKm/2 {
			u.CommuteKm = country.WidthKm / 2
		}
		angle := r.Float64() * 2 * math.Pi
		u.Work = geo.Offset(u.Home, u.CommuteKm*math.Cos(angle), u.CommuteKm*math.Sin(angle))
		u.WorkSector = topo.Nearest(u.Work)
		u.MobilityScale = r.LogNormal(0, 0.35) * math.Sqrt(u.Engagement) * boost

		p.Users = append(p.Users, u)
	}
	return p, nil
}

// adoptionDay spreads adoption so that the registered-user count grows by
// MonthlyGrowth per month across the window NET of churn: the first N0
// users predate the study, the rest adopt at a constant daily rate
// (Fig 2(a) is a line). Since ≈ChurnFrac of the initial base disappears by
// the last week, the initial base is shrunk so the visible curve still
// ends MonthlyGrowth·months above where it starts.
func adoptionDay(cfg Config, idx, total int) simtime.Day {
	growthTotal := cfg.MonthlyGrowth * float64(simtime.StudyDays) / 30.44
	n0 := int(float64(total) / (1 + growthTotal + cfg.ChurnFrac))
	if idx < n0 {
		// Existing base: pretend they adopted before the window.
		return simtime.Day(-1 - idx%90)
	}
	adopters := total - n0
	if adopters <= 0 {
		return 0
	}
	pos := float64(idx-n0) / float64(adopters)
	return simtime.Day(pos * float64(simtime.StudyDays))
}

// churnDay gives ChurnFrac of pre-study adopters a churn day before the
// final week; everyone else keeps the device.
func churnDay(cfg Config, r *randx.Rand, adopt simtime.Day) simtime.Day {
	if adopt >= simtime.Day(simtime.DaysPerWeek) {
		return NeverChurns // churn is measured on first-week users
	}
	if !r.Bool(cfg.ChurnFrac) {
		return NeverChurns
	}
	// Uniform between week 2 and the start of the last week.
	lo := simtime.DaysPerWeek
	hi := simtime.StudyDays - simtime.DaysPerWeek
	return simtime.Day(lo + r.IntN(hi-lo))
}

// homeSampler places homes: city-weighted with a rural remainder.
type homeSampler struct {
	country geo.Country
	pick    *randx.Categorical // index len(cities) = rural
}

func newHomeSampler(c geo.Country) (*homeSampler, error) {
	weights := make([]float64, len(c.Cities)+1)
	for i, city := range c.Cities {
		weights[i] = city.Weight
	}
	weights[len(c.Cities)] = c.RuralWeight
	pick, err := randx.NewCategorical(weights)
	if err != nil {
		return nil, fmt.Errorf("population: home sampler: %w", err)
	}
	return &homeSampler{country: c, pick: pick}, nil
}

func (h *homeSampler) sample(r *randx.Rand) geo.Point {
	i := h.pick.Sample(r)
	if i < len(h.country.Cities) {
		city := h.country.Cities[i]
		for {
			east := r.NormFloat64() * city.RadiusKm / 1.8
			north := r.NormFloat64() * city.RadiusKm / 1.8
			if math.Hypot(east, north) <= 2.5*city.RadiusKm {
				return geo.Offset(city.Center, east, north)
			}
		}
	}
	return geo.Offset(h.country.Origin, r.Float64()*h.country.WidthKm, r.Float64()*h.country.HeightKm)
}
