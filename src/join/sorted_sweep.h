#ifndef USJ_JOIN_SORTED_SWEEP_H_
#define USJ_JOIN_SORTED_SWEEP_H_

#include <algorithm>
#include <cstdint>

#include "core/memory_arbiter.h"
#include "join/join_types.h"
#include "join/sssj.h"
#include "sweep/banded_sweep.h"

namespace sj {

/// The plane sweep SSSJ and PQ run over their two y-sorted inputs: the
/// banded Striped-Sweep (BandedSweepJoin) with the options' structure
/// kind, strip count, num_threads bands and worker pool. A sink that
/// wants rectangles gets them, through rings of rectangles.
///
/// The sweep holds one grants::kSweep grant of `grant_bytes` (the caller
/// decides its size). The interval structures' estimate for `events`
/// input rectangles (EstimateSweepBytes) is set aside from it and the
/// epoch and ring buffers are cut from the rest, so a small grant shrinks
/// them and, below the multi-band minimum, runs one band. The structures'
/// peak plus the buffers are noted as the grant's usage (a strict arbiter
/// aborts when they outgrow it). `events` only bounds the buffers: an
/// upper bound, or 0 when unknown, is fine.
///
/// Ends `measurement` after the sweep and returns its stats with the
/// sweep's output count, footprint, collapsed flag and band count filled
/// in, and the CPU of the bands that ran on pool workers added.
template <typename SourceA, typename SourceB>
JoinStats SweepSortedInputs(SourceA& a, SourceB& b, const RectF& extent,
                            uint64_t events, size_t grant_bytes,
                            const JoinOptions& options, MemoryArbiter* arbiter,
                            JoinMeasurement* measurement, JoinSink* sink) {
  BandedSweepConfig config;
  config.kind = options.stream_sweep;
  config.extent = extent;
  config.strips = options.striped_strips;
  config.threads = std::max(1u, options.num_threads);
  config.pool = options.worker_pool;
  config.events = events;
  MemoryGrant grant =
      arbiter->AcquireShrinkable(grants::kSweep, grant_bytes,
                                 /*floor_bytes=*/0);
  config.buffer_bytes =
      grant.bytes() - std::min(grant.bytes(), EstimateSweepBytes(events));
  const BandedSweepStats sweep =
      sink->wants_rects()
          ? BandedSweepJoin(config, a, b,
                            [sink](const RectF& ra, const RectF& rb) {
                              sink->EmitRects(ra, rb);
                            })
          : BandedSweepJoin(config, a, b, [sink](ObjectId ida, ObjectId idb) {
              sink->Emit(ida, idb);
            });
  grant.NoteUsage(sweep.max_structure_bytes + sweep.buffer_bytes);

  JoinStats stats = measurement->Finish();
  stats.host_cpu_seconds += sweep.worker_cpu_seconds;
  stats.output_count = sweep.output_count;
  stats.max_sweep_bytes = sweep.max_structure_bytes;
  stats.sweep_strips_collapsed = sweep.strips_collapsed;
  stats.sweep_bands = sweep.bands;
  return stats;
}

}  // namespace sj

#endif  // USJ_JOIN_SORTED_SWEEP_H_
