package sim

import (
	"cmp"
	"slices"

	"wearwild/internal/gen/apps"
	"wearwild/internal/gen/population"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// StreamSource derives the synthetic ISP logs one subscriber at a time and
// feeds them to a stream.Sink, never materialising a whole log. It is a
// user-major source: each subscriber's records arrive as one contiguous
// bundle (proxy, then MME, then UDR, each in its canonical order) followed
// by UserDone, with subscribers emitted in ascending IMSI order. Record
// content is byte-identical to what Generate produces for the same Config.
type StreamSource struct {
	cfg Config
	gen *userGen

	// ConsumeUsers releases each subscriber's population entry as soon as
	// their records have been emitted. Per-user generation never reads
	// another subscriber's entry, so a stream-only run holds the study's
	// own per-subscriber state plus only the not-yet-streamed tail of the
	// population instead of both in full. The population is consumed in
	// place — Population.Users shares the released entries — so the
	// source cannot stream twice and the Population field must not be
	// used afterwards.
	ConsumeUsers bool

	// The substrate a study engine needs alongside the record stream.
	Topology   *cells.Topology
	Devices    *devicedb.DB
	Catalog    *apps.Catalog
	Population *population.Population
}

// NewStreamSource builds the deterministic substrate (topology, device DB,
// catalogue, population) and prepares per-user generation.
func NewStreamSource(cfg Config) (*StreamSource, error) {
	ds, err := generateSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := newUserGen(cfg, ds.Population, ds.Topology, ds.Catalog)
	if err != nil {
		return nil, err
	}
	return &StreamSource{
		cfg:        cfg,
		gen:        gen,
		Topology:   ds.Topology,
		Devices:    ds.Devices,
		Catalog:    ds.Catalog,
		Population: ds.Population,
	}, nil
}

// Per-user canonical orders, matching the global dataset sorts restricted
// to one subscriber: the global sorts are stable by Time (proxy, MME) and
// keyed (week, imsi, imei) for UDR, so a user's subsequence of the sorted
// whole log equals the stable per-user sort of their own records. The UDR
// keys are unique within a user (one wearable and one phone aggregate per
// week, distinct IMEIs), so an unstable sort suffices there.
func udrKeyCmp(a, b udr.Record) int {
	return cmp.Or(cmp.Compare(a.Week, b.Week), cmp.Compare(a.IMEI, b.IMEI))
}

// sortCanonical puts the scratch slabs into their per-user stream order.
// A subscriber's MME slab is usually generated in time order already, so
// the stable sort runs only when it is not.
func (s *genScratch) sortCanonical() {
	slices.SortStableFunc(s.proxy, proxylog.ByTime)
	if !slices.IsSortedFunc(s.mme, mme.ByTime) {
		slices.SortStableFunc(s.mme, mme.ByTime)
	}
	slices.SortFunc(s.udr, udrKeyCmp)
}

// Stream implements stream.Source on the generator sweep: each
// subscriber goes to the sink as soon as it is their turn, in ascending
// IMSI order, so the byte stream is identical for any Workers setting.
// The ring slot is refilled once emit returns, so each subscriber is
// handed over as a snapshot of their slot, which the sink's gather copies
// from whenever it runs. Peak memory is one ring of subscriber bundles
// plus the snapshots the sink has not gathered yet, never the dataset.
// The first sink error stops the sweep and is returned.
func (s *StreamSource) Stream(sink stream.Sink) error {
	users := stream.PerUser(sink)
	return s.gen.sweep(s.cfg.Workers, func(i int, sc *genScratch) error {
		imsi := s.gen.pop.Users[i].IMSI
		if s.ConsumeUsers {
			s.gen.pop.Users[i] = nil
		}
		out := sc.output()
		return users.User(imsi, func(dst *stream.Records) {
			dst.Proxy = append(dst.Proxy, out.Proxy...)
			dst.MME = append(dst.MME, out.MME...)
			dst.UDR = append(dst.UDR, out.UDR...)
		})
	})
}
