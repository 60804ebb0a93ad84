package stream

import (
	"errors"
	"io"
	"sync"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
)

// Readers streams saved logs straight from their serialized forms through
// the codec Stream functions — no whole-log slice is ever materialised.
// Any reader may be nil; that feed is simply absent. It is a record-major
// source, so it never emits UserDone and consumers evict at end of
// stream.
//
// Each feed is decoded on a goroutine of its own into chunks of
// chunkRecords records, drawn from a pool of chunksPerFeed per feed, so
// the feeds decode (and gunzip) alongside each other and alongside the
// sink. Every sink call is made on the goroutine that called Stream:
// within a feed the records arrive in file order, and across feeds in
// the order their chunks fill. Stream returns the first error it meets,
// the sink's or a decoder's, after stopping the other decoders and
// waiting for every goroutine it started.
type Readers struct {
	// ProxyBinary reads a proxylog binary stream.
	ProxyBinary io.Reader
	MMECSV      io.Reader
	UDRCSV      io.Reader
}

// The chunk pool bounds what the decoders hold ahead of the sink: at most
// chunksPerFeed × chunkRecords records per feed, about 0.8 MB over the
// three feeds.
const (
	chunkRecords  = 1024
	chunksPerFeed = 4
)

// chunk is a run of one feed's records. A decoder's last chunk has end
// set, and err if its decoding failed.
type chunk struct {
	recs Records
	end  bool
	err  error
	pool chan *chunk // the feed's free chunks, where the chunk goes back
}

// errStopped ends a decoder once Stream has stopped reading chunks.
var errStopped = errors.New("stream: readers stopped")

// feeds is what Stream's decoders share: the channel of filled chunks,
// closed stop to end the decoders early, and the decoders' count.
type feeds struct {
	full chan *chunk
	stop chan struct{}
	wg   sync.WaitGroup
	live int
}

// Stream implements Source.
func (r *Readers) Stream(sink Sink) error {
	// full has room for every chunk of every feed, so no send on it blocks.
	f := &feeds{full: make(chan *chunk, 3*chunksPerFeed), stop: make(chan struct{})}
	if r.ProxyBinary != nil {
		decode(f, r.ProxyBinary, proxylog.StreamBinary, func(r *Records) *[]proxylog.Record { return &r.Proxy })
	}
	if r.MMECSV != nil {
		decode(f, r.MMECSV, mme.StreamCSV, func(r *Records) *[]mme.Record { return &r.MME })
	}
	if r.UDRCSV != nil {
		decode(f, r.UDRCSV, udr.StreamCSV, func(r *Records) *[]udr.Record { return &r.UDR })
	}
	err := f.drain(sink)
	close(f.stop)
	f.wg.Wait()
	return err
}

// decode starts a goroutine that runs stream over in, filling chunks of
// the records slice feed picks out of a chunk's Records.
func decode[T any](f *feeds, in io.Reader, stream func(io.Reader, func(T) error) error, feed func(*Records) *[]T) {
	pool := make(chan *chunk, chunksPerFeed)
	for range chunksPerFeed {
		c := &chunk{pool: pool}
		*feed(&c.recs) = make([]T, 0, chunkRecords)
		pool <- c
	}
	f.live++
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		var c *chunk
		take := func() bool {
			select {
			case c = <-pool:
				return true
			case <-f.stop:
				return false
			}
		}
		err := stream(in, func(rec T) error {
			if c == nil && !take() {
				return errStopped
			}
			recs := feed(&c.recs)
			if *recs = append(*recs, rec); len(*recs) == chunkRecords {
				f.full <- c
				c = nil
			}
			return nil
		})
		if err == errStopped || c == nil && !take() {
			return
		}
		c.end, c.err = true, err
		f.full <- c
	}()
}

// drain hands the sink every record of every filled chunk until each
// decoder has sent its last chunk, or the sink or a decoder fails.
func (f *feeds) drain(sink Sink) error {
	for f.live > 0 {
		c := <-f.full
		for _, rec := range c.recs.Proxy {
			if err := sink.Proxy(rec); err != nil {
				return err
			}
		}
		for _, rec := range c.recs.MME {
			if err := sink.MME(rec); err != nil {
				return err
			}
		}
		for _, rec := range c.recs.UDR {
			if err := sink.UDR(rec); err != nil {
				return err
			}
		}
		if c.end {
			if c.err != nil {
				return c.err
			}
			f.live--
		}
		c.recs.Reset()
		c.pool <- c
	}
	return nil
}
