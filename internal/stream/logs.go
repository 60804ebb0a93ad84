package stream

import (
	"cmp"
	"math"
	"slices"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/shard"
)

// Logs adapts resident in-memory logs (a generated or loaded dataset) to
// the stream interface. It is a user-major source: it builds one flat
// position index per feed — positions only, never record copies — and
// hands the sink each subscriber in ascending IMSI order, with a gather
// that copies their records out of the logs in log order (on a UserSink,
// on whichever goroutine the sink runs it; otherwise as per-record calls
// followed by UserDone). The three feeds are indexed concurrently, and
// the first subscriber is handed over once all three are. The logs must
// not change until the sink's consumer has finished with the stream.
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
	var feeds [3]feedIndex // proxy, MME, UDR
	shard.Run(len(feeds), func(i int) {
		// Reading the IMSIs is the only pass over the records, which are
		// 48–112 B each, and most of the build. Typed loops make it with
		// no call per record.
		var imsis []uint64 // each record's IMSI, in log order
		switch {
		case i == 0 && l.Proxy != nil:
			imsis = make([]uint64, len(l.Proxy.Records))
			for j := range imsis {
				imsis[j] = uint64(l.Proxy.Records[j].IMSI)
			}
		case i == 1 && l.MME != nil:
			imsis = make([]uint64, len(l.MME.Records))
			for j := range imsis {
				imsis[j] = uint64(l.MME.Records[j].IMSI)
			}
		case i == 2 && l.UDR != nil:
			imsis = make([]uint64, len(l.UDR.Records))
			for j := range imsis {
				imsis[j] = uint64(l.UDR.Records[j].IMSI)
			}
		}
		feeds[i] = indexFeed(imsis)
	})
	us := PerUser(sink)
	for {
		// The next subscriber is the least IMSI any feed has not handed
		// over yet; each feed's IMSIs ascend.
		imsi, ok := subs.IMSI(0), false
		for i := range feeds {
			if next, more := feeds[i].peek(); more && (!ok || next < imsi) {
				imsi, ok = next, true
			}
		}
		if !ok {
			return nil
		}
		p, m, u := feeds[0].take(imsi), feeds[1].take(imsi), feeds[2].take(imsi)
		if err := us.User(imsi, func(dst *Records) { l.gather(dst, p, m, u) }); err != nil {
			return err
		}
	}
}

// gather appends the records at the given positions to dst, each feed in
// the order of its positions. It only reads the logs, so it may run on
// any goroutine.
func (l *Logs) gather(dst *Records, proxy, mme, udr []int32) {
	for _, i := range proxy {
		dst.Proxy = append(dst.Proxy, l.Proxy.Records[i])
	}
	for _, i := range mme {
		dst.MME = append(dst.MME, l.MME.Records[i])
	}
	for _, i := range udr {
		dst.UDR = append(dst.UDR, l.UDR.Records[i])
	}
}

// feedIndex is one feed's record positions grouped by subscriber: the
// subscriber of rank r in imsis (ascending) owns pos[off[r]:off[r+1]], in
// log order. next is the rank of the first subscriber not yet taken.
type feedIndex struct {
	imsis []subs.IMSI
	off   []int32
	pos   []int32
	next  int
}

// indexFeed builds the index of a feed whose records name the given
// IMSIs, in log order. It gives each subscriber a slot, counts the
// records per slot, lays the subscribers out in IMSI order with prefix
// offsets, and scatters every position into its subscriber's run. It
// overwrites each record's IMSI in slots with the record's slot.
//
// When the feed's IMSIs span fewer values than it has records, as
// synthetic IMSIs do (one home prefix and sequential MSINs), a
// subscriber's slot is its IMSI's offset from the least one, so slot
// order is IMSI order. Otherwise slots are dense ids in order of first
// appearance, from a map, sorted by IMSI afterwards.
func indexFeed(slots []uint64) feedIndex {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, imsi := range slots {
		lo, hi = min(lo, imsi), max(hi, imsi)
	}
	var imsis []subs.IMSI // the IMSI of each slot
	var counts []int32    // records per slot
	var order []int       // the occupied slots in ascending IMSI order
	if len(slots) > 0 && hi-lo < uint64(len(slots)) {
		counts = make([]int32, hi-lo+1)
		for i := range slots {
			slots[i] -= lo
			counts[slots[i]]++
		}
		imsis = make([]subs.IMSI, len(counts))
		for slot, n := range counts {
			imsis[slot] = subs.IMSI(lo + uint64(slot))
			if n > 0 {
				order = append(order, slot)
			}
		}
	} else {
		dense := make(map[subs.IMSI]int)
		for i, imsi := range slots {
			slot, ok := dense[subs.IMSI(imsi)]
			if !ok {
				slot = len(imsis)
				dense[subs.IMSI(imsi)] = slot
				imsis = append(imsis, subs.IMSI(imsi))
				counts = append(counts, 0)
				order = append(order, slot)
			}
			slots[i] = uint64(slot)
			counts[slot]++
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(imsis[a], imsis[b]) })
	}

	f := feedIndex{imsis: make([]subs.IMSI, len(order)), off: make([]int32, len(order)+1), pos: make([]int32, len(slots))}
	for r, slot := range order {
		f.imsis[r] = imsis[slot]
		f.off[r+1] = f.off[r] + counts[slot]
		counts[slot] = f.off[r] // from here on, the slot's next free place in pos
	}
	for i, slot := range slots {
		f.pos[counts[slot]] = int32(i)
		counts[slot]++
	}
	return f
}

// peek returns the IMSI of the next subscriber not yet taken.
func (f *feedIndex) peek() (subs.IMSI, bool) {
	if f.next < len(f.imsis) {
		return f.imsis[f.next], true
	}
	return 0, false
}

// take returns imsi's positions if imsi is the next subscriber, and
// advances past it; otherwise it returns nil.
func (f *feedIndex) take(imsi subs.IMSI) []int32 {
	if next, ok := f.peek(); !ok || next != imsi {
		return nil
	}
	r := f.next
	f.next++
	return f.pos[f.off[r]:f.off[r+1]]
}
