// Command wearperf is the repository's benchmark. It measures both
// pipelines of the reproduction end to end — the batch one that
// regenerates the figures (generate → encode → decode → study → render)
// and the live one that collects them (replay → proxy → tail → study) —
// and, in a traced run, layer by layer. It checks the outputs it times,
// and it supersedes `wearbench -bench-json`, whose single samples and
// per-figure timings (each a whole engine run) it replaces.
//
// # Running
//
// From the repository root:
//
//	bash cmd/wearperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go run ./cmd/wearperf -workload <name> [-seed 1234] [-seconds 20] [-trace 1] [-spans file]
//
// run.sh builds the command from source with the Go build cache under
// .bench_build/, then runs it. Every run prints one line per metric —
// name, value, unit, sample count, quartiles for timings, and the base of
// any ratio — then, as its last line, one JSON object with the
// correctness verdict (correct, attempted, failed) and the metrics that
// BENCHMARK.json names: the end_to_end ones, or with -trace 1 the
// per_layer ones. A run whose checks fail exits 1. Workers stay at the
// program default, one per CPU; the load comes from this one process.
//
// # Workloads
//
// Three dataset sizes are used: small is sim.SmallConfig (3,200
// subscribers, about 600k records); half and quarter have a half and a
// quarter of its subscribers (about 300k and 150k records). Each run sets
// up three times and reports the median as setup_s, then makes one
// warm-up pass and times passes for the run's seconds (20 in
// BENCHMARK.json), with a GC before each; a pass's outputs are checked
// after it is timed. Every pass of a run repeats the same work. The sizes
// keep one protocol of 22 runs per workload, set-up and builds included,
// under an hour.
//
//   - batch (quarter): each pass is the whole batch pipeline — sim.Generate;
//     encode the proxy binary, MME CSV and UDR CSV logs and gzip them, as
//     sim.Save does, in memory; core.RunStream over stream.Readers fed by
//     gunzip readers; report.Renderer.All, experiments.Evaluate and
//     WriteMarkdown into io.Discard. This is how a researcher regenerates
//     the figures, and the generator is most of a pass, so generator work
//     shows here and hardly anywhere else.
//   - study-files (quarter): generated and encoded once in set-up; each
//     pass decodes and studies the files. The source is record-major — it
//     never calls UserDone — so the engine buffers every subscriber until
//     it seals at the end. This is codec cost plus the engine's seal, merge
//     and finalize, without the generator, and the one path whose memory
//     is not bounded.
//   - study-resident (small): generated in set-up; each pass is RunStream
//     over stream.Logs, a user-major source the engine evicts from as it
//     goes, across fanSink to its workers. This is the engine's ingest,
//     eviction and analyzers on a working set four times larger, with no
//     codec or generator: the same engine as study-files the other way
//     round, so a gain on one path that costs the other shows.
//   - collect (half): the live path, and the only workload where netproxy,
//     sni, httplog and stream.Tail do real work. Set-up captures one
//     genuine crypto/tls ClientHello per HTTPS host of the first 8,000
//     proxy records in time order. Each pass starts a cleartext origin, a
//     netproxy.Proxy, a stream.Tail and a RunStream over it, replays those
//     records through them, and ends when the live Results are in. The
//     replay is a closed loop of two clients (at most one per CPU), each
//     owning the subscribers an IMSI hash gives it and sending their flows
//     in time order: a flow sends the record's first flight (the
//     ClientHello or the HTTP head), its upload clamped to 16 KiB, and
//     reads its download clamped to 64 KiB. Every tenth flow of a client
//     goes straight to the origin as the baseline for the latency the
//     proxy adds. A pass takes about a second on a 2-vCPU x86-64 VM, so a
//     run holds many. The proxy's Identify hook maps each subscriber
//     device's loopback alias (127.1.x.y) to its identity; its Log hook
//     restores the ground truth the wire cannot carry, matching flows
//     first-in first-out per (IMSI, scheme, host), encodes the record with
//     proxylog.Encoder under a lock and calls Tail.Feed outside it. The
//     proxy dials the origin from 64 rotating aliases so TIME_WAIT entries
//     never exhaust the ephemeral ports. Real TLS handshakes would hide the
//     proxy's own cost, so only the first flight is replayed.
//
// # Correctness
//
// Every batch and study-files pass must produce Results whose JSON
// SHA-256 equals a reference computed in set-up from another source:
// core.RunStream over stream.Logs of the logs decoded from the same files.
// (The MME CSV keeps whole seconds while generated MME times carry
// fractions, so a study of the files differs, in Fig 4(c)'s entropy gain,
// from a study of the generated logs; the reference therefore reads the
// decoded logs.) Every batch pass must also re-encode byte-identical logs.
// study-resident passes must match a Workers=1 reference made in set-up.
// For seed 1234 the uncompressed log digests and the reference Results
// digest of each size are pinned in golden.go. A collect pass passes when
// no flow fails, Counters.Relayed equals the proxied flows and nothing was
// dropped, replay.Verify matches every host, the decoded collection log
// holds exactly the records fed to the Tail, and the live Fig2a counts
// exactly the wearable subscribers replayed. attempted counts passes,
// flows and checks; failed counts those that failed.
//
// # Metrics
//
// BENCHMARK.json is the source of truth for which metrics are
// end-to-end, with their regression bounds, and which per-layer; the
// command reads it and fails if a metric it names was not measured. The
// end-to-end metrics come from the untraced run:
//
//   - setup_s: median of three set-ups.
//   - us_per_record: the fastest pass's wall time divided by the records
//     it processes; on collect, by the flows it replays, each of which
//     carries one record. The passes of a run repeat identical work, so a
//     slower pass differs from the fastest only by what the host's other
//     tenants took from it; and per record, the time does not move with
//     how many records a seed happens to generate.
//   - heap_bytes_per_record: each pass's highest live heap, sampled every
//     millisecond from runtime/metrics (which does not stop the world);
//     the median over passes, per record the workload holds in memory.
//     The peak of a single pass depends on where the collector's cycles
//     fall in it, so the median is steadier than the run's maximum. The
//     absolute peak_heap_mb is printed too.
//
// Every run also prints pass_ms (median pass, with quartiles) and
// records_per_s (records over the median pass). A failed operation is
// counted in failed, not in a metric.
//
// Per-layer metrics come from the traced run only, named after the
// modules. Each line gives the end-to-end metric it should move; where a
// layer is predicted not to move a metric, that is said too.
//
//   - gen (internal/gen, internal/mnet/cells): gen.generate_ms,
//     gen.substrate_ms (sim.NewStreamSource), gen.users_ms
//     (StreamSource.Stream into a counting sink), gen.assemble_ms (derived:
//     generate - substrate - users), gen.alloc_mb, gen.records,
//     cells.nearest_ns and cells.distance_ns over seeded probes,
//     proxylog.sort_ms and mme.sort_ms (SortByTime of a user-major copy).
//     Moves us_per_record on batch and setup_s elsewhere; cells.distance_ns
//     also study-resident. No change predicted on study-* us_per_record or
//     on collect.
//   - codec (internal/mnet/{proxylog,mme,udr}, gzip):
//     codec.{proxy,mme,udr}_{encode,decode}_ns per record, codec.gzip_ms,
//     codec.gunzip_ms, codec.*_bytes_per_rec,
//     codec.decode_alloc_bytes_per_rec. Moves us_per_record on batch and
//     study-files; no change on study-resident.
//   - stream and engine (internal/stream, internal/core, internal/shard),
//     from a timing stream.Source/Sink placed between the source and
//     RunStream, per-record calls in counters: stream.source_self_ms,
//     engine.ingest_ns, engine.userdone_ms, engine.after_source_ms,
//     engine.alloc_mb, engine.records_in, engine.users, and a Workers sweep
//     whose order alternates (engine.run_w1_ms, engine.run_w2_ms,
//     engine.speedup). Move us_per_record on study-* and, on collect,
//     collect.result_lag_ms; stream.tail_feed_wait_ms moves collect's
//     proxy.flow_tail_us. On collect, engine.alloc_mb counts what the
//     whole process allocates while the live study runs.
//   - analyzers (internal/study): study.{totals,activity,sessionize,
//     attribute,mobility,txsectors}_ms, each kernel timed per subscriber
//     over the ByUser groups as the engine's eviction calls it;
//     study.kindofhost_ns, study.servicehost_ns, and study.kernel_share
//     (kernel total over engine.userdone at Workers=1 over stream.Logs).
//     Move study-resident us_per_record.
//   - render (internal/report, internal/experiments): render.report_ms,
//     render.evaluate_ms, render.metrics_in_band. Move batch us_per_record.
//   - proxy (internal/mnet/{netproxy,sni,httplog}), from the last untraced
//     pass: proxy.flow_p50_us and proxy.flow_tail_us (the highest
//     percentile with ten flows beyond it), each a proxied flow from the
//     start of the dial to EOF; proxy.added_p50_us and proxy.added_p99_us
//     (proxied minus direct), proxy.dial_us, proxy.accepted,
//     proxy.relayed, proxy.dropped.<reason>, proxy.relayed_ratio,
//     proxy.active_max, proxy.bytes_per_s, proxy.flows_per_s,
//     sni.parse_ns, httplog.head_ns, collect.encode_ns,
//     collect.down_delta_pct and collect.result_lag_ms (Tail.Close to the
//     live Results). Move collect us_per_record; no change on the other
//     workloads. Workloads other than collect measure this layer with a
//     4,000-flow replay of their own dataset.
//   - host: host.calib_ms (a fixed SHA-256 kernel timed before and after,
//     with a warning when it drifts more than 10%), host.steal_pct (from
//     /proc/stat) and proc.cpu_util (CPU seconds per wall second, from
//     rusage). These tell a noisy host from a slower program, and are
//     printed on every run.
//   - tracing.overhead_pct: a traced run spends half its time untraced and
//     half traced and reports how much slower the fastest traced pass was
//     than the fastest untraced one.
//
// # Tracing
//
// A traced run records a span — name, id, parent, start, end — around
// every call the benchmark makes into a layer, keeps them in memory, and
// writes them as JSON when it ends (-spans, default
// .bench_build/spans-<workload>-<seed>.json). It prints each span name's
// self time: its duration minus the part its child spans cover. The
// layers are timed only from outside, through their public functions.
//
// # Comparing two commits
//
// Build both commits' benchmarks and run at least ten pairs per
// workload, alternating which commit goes first, at the same -seconds.
// Compare medians. Claim a gain only when the change wins at least nine
// pairs in ten and the medians differ by more than the parent's own
// quartile spread; for every other metric and workload, the change's
// median may be no worse than the parent's by more than the bound in
// BENCHMARK.json. Report host.calib_ms with each set.
//
// Pair runs closely in time: the host's speed drifts. On a shared 2-vCPU
// x86-64 Linux VM, three sets of ten seeds per workload at 20 s, run one
// after another over two hours, gave these quartile spreads (IQR over
// median) of us_per_record — batch, study-files, study-resident, collect:
//
//	host.calib_ms 11.6-11.8:  2.9%   3.8%   6.7%  12.4%
//	host.calib_ms 12.2-13.5: 15.4%  18.5%  16.9%  12.4%
//	host.calib_ms 12.6-13.6: 24.6%  13.0%  14.0%  15.8%
//
// and heap_bytes_per_record 0.7-11.2%, setup_s 10-37%. The medians rose
// with the host's slowdown, batch from 6.6 to 8.6 us per record and
// collect from 114 to 159, while host.calib_ms rose by only 15%: neither
// it nor the process's CPU time tracks the slowdown closely, so a
// drifting host.calib_ms proves a noisy host, but a steady one does not
// prove a quiet one. The time bounds are 25% for that reason. The median
// pass time spread 6-36% per set at 15 s on the same VM: it moves with
// every pass the host slows and with how many records the seed generates,
// where the fastest pass per record moves with neither.
package main
