#include "join/pq_join.h"

#include <algorithm>

#include "join/sorted_sweep.h"
#include "sort/external_sort.h"

namespace sj {
namespace {

/// One PQ source as a sweep input. Every Next() after its first samples
/// both sources' queue memory: the states the serial sweep sampled, once
/// per rectangle it consumed. The sweep reads its inputs on the calling
/// thread, so the samples are taken there too.
class QueueSampledSource {
 public:
  QueueSampledSource(SortedRectSource* source, const SortedRectSource* other,
                     size_t* max_queue_bytes)
      : source_(source), other_(other), max_queue_bytes_(max_queue_bytes) {}

  std::optional<RectF> Next() {
    std::optional<RectF> r = source_->Next();
    if (started_) {
      *max_queue_bytes_ =
          std::max(*max_queue_bytes_,
                   source_->MemoryBytes() + other_->MemoryBytes());
    }
    started_ = true;
    return r;
  }

 private:
  SortedRectSource* source_;
  const SortedRectSource* other_;
  size_t* max_queue_bytes_;
  bool started_ = false;
};

}  // namespace

Result<JoinStats> PQJoinSources(SortedRectSource* a, SortedRectSource* b,
                                const RectF& extent, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  // Static split: traversal queues and leaf buffers on one grant, sweep
  // structures and buffers on the other. Sampled maxima are reported as
  // usage — the paper's "data structures fit in memory" assumption, now
  // checked by the arbiter (strict mode aborts; an external priority
  // queue [2,9] would be the spill path for inputs that defeat it).
  MemoryGrant queue_grant = scope->AcquireShrinkable(
      grants::kPqQueue, scope->budget() / 2, /*floor_bytes=*/0);
  JoinMeasurement measurement(disk);
  size_t max_queue_bytes = 0;
  QueueSampledSource sa(a, b, &max_queue_bytes), sb(b, a, &max_queue_bytes);
  const bool counted = a->MaxCount() > 0 && b->MaxCount() > 0;
  JoinStats stats = SweepSortedInputs(
      sa, sb, extent, counted ? a->MaxCount() + b->MaxCount() : 0,
      scope->budget() / 2, options, scope.get(), &measurement, sink);
  queue_grant.NoteUsage(max_queue_bytes);
  stats.max_queue_bytes = max_queue_bytes;
  queue_grant.Release();
  FillMemoryStats(*scope, &stats);
  return stats;
}

Result<JoinStats> PQJoin(const RTree& a, const RTree& b, DiskModel* disk,
                         const JoinOptions& options, JoinSink* sink,
                         MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  RTreePQSource source_a(&a);
  RTreePQSource source_b(&b);
  RectF extent = a.bounding_box();
  extent.ExtendTo(b.bounding_box());
  SJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      PQJoinSources(&source_a, &source_b, extent, disk, options, sink,
                    scope.get()));
  stats.index_pages_read = source_a.pages_read() + source_b.pages_read();
  return stats;
}

Result<JoinStats> PQJoinIndexStream(const RTree& a, const DatasetRef& b,
                                    DiskModel* disk,
                                    const JoinOptions& options,
                                    JoinSink* sink,
                                    MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  // Sort the non-indexed side (charged), as SSSJ would.
  SJ_ASSIGN_OR_RETURN(auto scratch,
                      MakePager(options.storage.get(), disk, "pq.sort.runs"));
  SJ_ASSIGN_OR_RETURN(auto sorted,
                      MakePager(options.storage.get(), disk, "pq.sort.out"));
  SortStats sort_stats;
  SJ_ASSIGN_OR_RETURN(
      StreamRange sorted_b,
      SortRectsByYLo(b.range, scratch.get(), sorted.get(),
                     options.memory_bytes / 2, scope.get(),
                     PrefetchContextOf(options), SortConfigOf(options),
                     &sort_stats));
  RTreePQSource source_a(&a);
  SortedStreamSource source_b(sorted_b);
  SJ_ASSIGN_OR_RETURN(RectF extent_b, EnsureExtent(b));
  RectF extent = a.bounding_box();
  extent.ExtendTo(extent_b);
  SJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      PQJoinSources(&source_a, &source_b, extent, disk, options, sink,
                    scope.get()));
  stats.index_pages_read = source_a.pages_read();
  stats.FoldSortStats(sort_stats);
  return stats;
}

}  // namespace sj
