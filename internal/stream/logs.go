package stream

import (
	"slices"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
)

// Logs adapts resident in-memory logs (a generated or loaded dataset) to
// the stream interface. It is a user-major source: it indexes record
// positions per subscriber — positions only, never record copies — and
// replays each subscriber's records in log order followed by UserDone, in
// ascending IMSI order.
//
// Because the global logs are stably time-sorted, each subscriber's
// replayed subsequence equals a stable time-sort of that subscriber's own
// records — exactly what the streaming generator emits — so the engine
// sees byte-identical per-user streams from either source.
type Logs struct {
	Proxy *proxylog.Log
	MME   *mme.Log
	UDR   *udr.Log
}

// Stream implements Source.
func (l *Logs) Stream(sink Sink) error {
	byUser := make(map[subs.IMSI]*logsIndex)
	at := func(imsi subs.IMSI) *logsIndex {
		ix := byUser[imsi]
		if ix == nil {
			ix = &logsIndex{}
			byUser[imsi] = ix
		}
		return ix
	}
	if l.Proxy != nil {
		for i, rec := range l.Proxy.Records {
			ix := at(rec.IMSI)
			ix.proxy = append(ix.proxy, int32(i))
		}
	}
	if l.MME != nil {
		for i, rec := range l.MME.Records {
			ix := at(rec.IMSI)
			ix.mme = append(ix.mme, int32(i))
		}
	}
	if l.UDR != nil {
		for i, rec := range l.UDR.Records {
			ix := at(rec.IMSI)
			ix.udr = append(ix.udr, int32(i))
		}
	}
	users := make([]subs.IMSI, 0, len(byUser))
	for imsi := range byUser {
		users = append(users, imsi)
	}
	slices.Sort(users)
	for _, imsi := range users {
		ix := byUser[imsi]
		for _, i := range ix.proxy {
			if err := sink.Proxy(l.Proxy.Records[i]); err != nil {
				return err
			}
		}
		for _, i := range ix.mme {
			if err := sink.MME(l.MME.Records[i]); err != nil {
				return err
			}
		}
		for _, i := range ix.udr {
			if err := sink.UDR(l.UDR.Records[i]); err != nil {
				return err
			}
		}
		if err := sink.UserDone(imsi); err != nil {
			return err
		}
		delete(byUser, imsi)
	}
	return nil
}

// logsIndex holds one subscriber's record positions in each log.
type logsIndex struct {
	proxy, mme, udr []int32
}
