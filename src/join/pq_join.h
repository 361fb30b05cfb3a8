#ifndef USJ_JOIN_PQ_JOIN_H_
#define USJ_JOIN_PQ_JOIN_H_

#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/sources.h"
#include "rtree/rtree.h"
#include "util/result.h"

namespace sj {

/// Priority-Queue-Driven Traversal join (the paper's contribution, §4).
///
/// Both inputs arrive as y-sorted rectangle sources — a sorted stream for
/// non-indexed inputs, an RTreePQSource for indexed ones — and are merged
/// by the same plane sweep SSSJ uses (SweepSortedInputs: the banded
/// Striped-Sweep on options.num_threads bands, with the same pair
/// sequence at any thread count). The calling thread reads the sources in
/// the serial sweep's order, so index pages and modeled I/O do not depend
/// on the thread count. Because the index adapter touches every R-tree
/// node at most once, an unpruned PQ join issues exactly `node_count`
/// page requests per index: the paper's "optimal" number (Table 4).
///
/// `extent` is the sweep domain (union of both inputs' extents);
/// `max_queue_bytes` in the returned stats is the sampled maximum of the
/// adapters' priority queues plus leaf buffers (Table 3).
///
/// Memory governance: the sweep (structures plus epoch and ring buffers)
/// and the source queues each hold a grant (half the budget apiece);
/// their sampled maxima are reported as usage, so a strict arbiter aborts
/// when an input defeats the paper's in-memory assumption instead of
/// silently over-allocating.
/// `arbiter` is the query's memory governor; nullptr runs against a
/// private one over the options' budget.
Result<JoinStats> PQJoinSources(SortedRectSource* a, SortedRectSource* b,
                                const RectF& extent, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter = nullptr);

/// Convenience wrapper: index-to-index PQ join.
Result<JoinStats> PQJoin(const RTree& a, const RTree& b, DiskModel* disk,
                         const JoinOptions& options, JoinSink* sink,
                         MemoryArbiter* arbiter = nullptr);

/// Convenience wrapper: index-to-non-indexed PQ join. The stream input is
/// externally sorted first (charged, grant-governed), exactly as SSSJ
/// would.
Result<JoinStats> PQJoinIndexStream(const RTree& a, const DatasetRef& b,
                                    DiskModel* disk,
                                    const JoinOptions& options,
                                    JoinSink* sink,
                                    MemoryArbiter* arbiter = nullptr);

}  // namespace sj

#endif  // USJ_JOIN_PQ_JOIN_H_
