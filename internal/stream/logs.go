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
// hands the sink each subscriber in ascending IMSI order, with a gather
// that copies their records out of the logs in log order (on a UserSink,
// on whichever goroutine the sink runs it; otherwise as per-record calls
// followed by UserDone). The logs must not change until the sink's
// consumer has finished with the stream.
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
		for i := range l.Proxy.Records {
			ix := at(l.Proxy.Records[i].IMSI)
			ix.proxy = append(ix.proxy, int32(i))
		}
	}
	if l.MME != nil {
		for i := range l.MME.Records {
			ix := at(l.MME.Records[i].IMSI)
			ix.mme = append(ix.mme, int32(i))
		}
	}
	if l.UDR != nil {
		for i := range l.UDR.Records {
			ix := at(l.UDR.Records[i].IMSI)
			ix.udr = append(ix.udr, int32(i))
		}
	}
	users := make([]subs.IMSI, 0, len(byUser))
	for imsi := range byUser {
		users = append(users, imsi)
	}
	slices.Sort(users)
	us := PerUser(sink)
	for _, imsi := range users {
		ix := byUser[imsi]
		if err := us.User(imsi, func(dst *Records) { ix.gather(l, dst) }); err != nil {
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

// gather appends the subscriber's records to dst in log order. It only
// reads the logs, so it may run on any goroutine.
func (ix *logsIndex) gather(l *Logs, dst *Records) {
	for _, i := range ix.proxy {
		dst.Proxy = append(dst.Proxy, l.Proxy.Records[i])
	}
	for _, i := range ix.mme {
		dst.MME = append(dst.MME, l.MME.Records[i])
	}
	for _, i := range ix.udr {
		dst.UDR = append(dst.UDR, l.UDR.Records[i])
	}
}
