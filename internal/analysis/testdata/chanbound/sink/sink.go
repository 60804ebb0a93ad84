// Package sink holds the helper a collection root reaches: its hot-loop
// send flags with the chain from netproxy.Collect.
package sink

import "wearwild/internal/mnet/proxylog"

// Forward pushes records through an unbounded send one hop below the
// root.
func Forward(recs []proxylog.Record, out chan proxylog.Record) {
	for _, r := range recs {
		out <- r // want ctxflow
	}
}
