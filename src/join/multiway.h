#ifndef USJ_JOIN_MULTIWAY_H_
#define USJ_JOIN_MULTIWAY_H_

#include <memory>
#include <vector>

#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/sources.h"
#include "util/result.h"

namespace sj {

/// Consumer of k-way join results; `tuple[i]` is an object id from input i.
class TupleSink {
 public:
  virtual ~TupleSink() = default;
  virtual void Emit(const std::vector<ObjectId>& tuple) = 0;
};

class CountingTupleSink final : public TupleSink {
 public:
  void Emit(const std::vector<ObjectId>&) override { count_++; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

class CollectingTupleSink final : public TupleSink {
 public:
  void Emit(const std::vector<ObjectId>& tuple) override {
    tuples_.push_back(tuple);
  }
  const std::vector<std::vector<ObjectId>>& tuples() const { return tuples_; }

 private:
  std::vector<std::vector<ObjectId>> tuples_;
};

/// A lazily-evaluated two-way PQ join exposed as a sorted source: yields
/// the intersection rectangle of every result pair, in nondecreasing ylo
/// order (a pair is discovered exactly when the sweep reaches the larger
/// of the two ylo values, so the output order is free). The id of an
/// emitted rectangle indexes pairs().
///
/// This is what makes the paper's multi-way extension (§4) one-line: the
/// output of a join is itself a valid PQ input.
class PairSourceBase : public SortedRectSource {
 public:
  virtual const std::vector<IdPair>& pairs() const = 0;
};

/// Creates a pair source over two sorted inputs (which must outlive it).
std::unique_ptr<PairSourceBase> MakePairSource(SortedRectSource* a,
                                               SortedRectSource* b,
                                               SweepStructureKind kind,
                                               const RectF& extent,
                                               uint32_t strips);

/// k-way intersection join (k >= 2): reports every k-tuple of objects, one
/// per input, whose MBRs have a common intersection point. Evaluated as a
/// left-deep chain of lazy PQ sweeps; no intermediate result is
/// materialized on disk. The stats carry the output count, the measured
/// I/O and CPU, and the chain's peak in-memory state as max_queue_bytes.
Result<JoinStats> MultiwayJoinSources(
    const std::vector<SortedRectSource*>& inputs, const RectF& extent,
    DiskModel* disk, const JoinOptions& options, TupleSink* sink);

/// Parallel k-way intersection join over *materialized y-sorted streams*:
/// the sweep domain is cut into options.multiway_strips vertical strips,
/// each strip runs the left-deep chain independently (on a worker pool of
/// options.num_threads), and duplicates are suppressed by reporting a
/// tuple only in the strip owning the left edge of its k-way
/// intersection. Tuples arrive at `sink` in strip order; results and
/// modeled I/O stats are identical for every num_threads.
Result<JoinStats> MultiwayJoinStreams(const std::vector<DatasetRef>& inputs,
                                      const RectF& extent, DiskModel* disk,
                                      const JoinOptions& options,
                                      TupleSink* sink);

}  // namespace sj

#endif  // USJ_JOIN_MULTIWAY_H_
