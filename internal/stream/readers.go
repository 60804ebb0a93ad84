package stream

import (
	"io"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
)

// Readers streams saved logs straight from their serialized forms through
// the codec Stream functions — no whole-log slice is ever materialised.
// Any reader may be nil; that feed is simply absent. It is a record-major
// source (records arrive in file order, interleaved across subscribers),
// so it never emits UserDone and consumers evict at end of stream.
type Readers struct {
	// ProxyBinary reads a proxylog binary stream.
	ProxyBinary io.Reader
	MMECSV      io.Reader
	UDRCSV      io.Reader
}

// Stream implements Source.
func (r *Readers) Stream(sink Sink) error {
	if r.ProxyBinary != nil {
		if err := proxylog.StreamBinary(r.ProxyBinary, sink.Proxy); err != nil {
			return err
		}
	}
	if r.MMECSV != nil {
		if err := mme.StreamCSV(r.MMECSV, sink.MME); err != nil {
			return err
		}
	}
	if r.UDRCSV != nil {
		if err := udr.StreamCSV(r.UDRCSV, sink.UDR); err != nil {
			return err
		}
	}
	return nil
}
