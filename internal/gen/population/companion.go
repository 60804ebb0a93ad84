package population

// CompanionDomains maps each Through-Device fingerprint service to the
// hosts its smartphone companion app contacts. The conclusion of the paper
// fingerprints Fitbit and Xiaomi wearables by domains attributable directly
// to the wearable, and generic Android/Apple wearables through
// wearable-specific endpoints of AccuWeather, Strava and Runtastic. The
// same map feeds the traffic generator (which emits these hosts for
// fingerprintable TD users) and the fingerprint analysis (which searches
// for them).
var CompanionDomains = map[string][]string{
	"Fitbit":           {"sync.fitbit-connect.com", "api.fitbit-connect.com"},
	"Xiaomi-Wear":      {"wear.mi-fit-cloud.com"},
	"AccuWeather-Wear": {"watch-api.accuweather-feed.com"},
	"Strava":           {"wearable.strava-sync.com"},
	"Runtastic":        {"watch.runtastic-hub.com"},
}
