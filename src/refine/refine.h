#ifndef USJ_REFINE_REFINE_H_
#define USJ_REFINE_REFINE_H_

#include <vector>

#include "core/memory_arbiter.h"
#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/multiway.h"
#include "join/predicate.h"
#include "refine/feature_store.h"
#include "util/result.h"

namespace sj {

/// Approximate working bytes one candidate occupies in a refinement
/// batch: the gathered ids and fetched geometry of both sides. The
/// memory planner sizes the "refine.batch" grant with this, and
/// RefinePairs/RefineTuples shrink the batch (down to
/// kMinRefineBatchPairs) when the grant cannot cover
/// options.refine_batch_pairs candidates.
inline constexpr size_t kRefineBytesPerCandidate =
    2 * (sizeof(Segment) + sizeof(ObjectId)) + sizeof(IdPair);

/// Smallest refinement batch graceful degradation shrinks to.
inline constexpr uint32_t kMinRefineBatchPairs = 64;

/// Everything measured about one refinement run. Disk counters come from
/// the per-batch DiskModel shards (a shard starts from fresh disk state,
/// so modeled I/O depends only on the batch's own page requests, never on
/// thread scheduling); host_cpu_seconds covers pool workers only —
/// inline (serial) execution is already on the caller's measured thread,
/// matching the parallel join engine's convention.
struct RefineStats {
  /// Candidate pairs/tuples consumed (the filter step's output).
  uint64_t candidates = 0;
  /// Candidates whose exact geometries really intersect.
  uint64_t results = 0;
  /// Feature-store pages fetched across all batches.
  uint64_t pages_read = 0;
  DiskStats disk;
  double host_cpu_seconds = 0.0;
};

/// The batched refinement executor for two-way joins: consumes candidate
/// MBR pairs (ids into `store_a` / `store_b`), fetches both geometries a
/// batch at a time, applies the exact form of `predicate` (segment
/// intersection by default; ε-distance and containment for the query
/// API's other predicates — see join/predicate.h), and emits surviving
/// pairs to `sink`.
///
/// Batches of options.refine_batch_pairs candidates are independent work
/// units on the options.num_threads pool; each runs against a private
/// DiskModel shard and a private sink, merged in batch order afterwards,
/// so output order and modeled I/O are identical for every thread count.
/// Survivors reach `sink` as ids, in candidate order (the query layer
/// re-attaches the filter's rectangles by walking the candidates).
Result<RefineStats> RefinePairs(const std::vector<IdPair>& candidates,
                                const FeatureStore& store_a,
                                const FeatureStore& store_b,
                                const JoinOptions& options, JoinSink* sink,
                                const PredicateSpec& predicate =
                                    PredicateSpec{},
                                MemoryArbiter* arbiter = nullptr);

/// Refinement for k-way joins: a candidate tuple survives when every pair
/// of member segments intersects (the natural exact analog of the k-way
/// MBR filter; a common point of k arbitrary segments is measure-zero).
/// stores[i] resolves tuple[i]. Same batched parallel structure and
/// determinism guarantees as RefinePairs, survivors in candidate order.
Result<RefineStats> RefineTuples(
    const std::vector<std::vector<ObjectId>>& tuples,
    const std::vector<const FeatureStore*>& stores, const JoinOptions& options,
    TupleSink* sink, MemoryArbiter* arbiter = nullptr);

}  // namespace sj

#endif  // USJ_REFINE_REFINE_H_
