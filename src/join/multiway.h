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
/// Like JoinSink, a sink that wants geometry says so at construction and
/// then gets each tuple with its contact box.
class TupleSink {
 public:
  explicit TupleSink(bool wants_rects = false) : wants_rects_(wants_rects) {}
  virtual ~TupleSink() = default;
  virtual void Emit(const std::vector<ObjectId>& tuple) = 0;
  /// A tuple with the common intersection of its members' MBRs. Called
  /// instead of Emit when wants_rects(); the default forwards the ids.
  virtual void EmitBox(const std::vector<ObjectId>& tuple,
                       const RectF& /*box*/) {
    Emit(tuple);
  }
  bool wants_rects() const { return wants_rects_; }

 private:
  bool wants_rects_;
};

class CountingTupleSink final : public TupleSink {
 public:
  void Emit(const std::vector<ObjectId>&) override { count_++; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Collects tuples in memory; like CollectingSink, the buffer in front of
/// a caller's sink, keeping the contact boxes when made with `rects`.
class CollectingTupleSink final : public TupleSink {
 public:
  explicit CollectingTupleSink(bool rects = false) : TupleSink(rects) {}

  void Emit(const std::vector<ObjectId>& tuple) override {
    tuples_.push_back(tuple);
  }
  void EmitBox(const std::vector<ObjectId>& tuple, const RectF& box) override {
    tuples_.push_back(tuple);
    boxes_.push_back(box);
  }
  const std::vector<std::vector<ObjectId>>& tuples() const { return tuples_; }
  /// boxes()[i] is the contact box of tuples()[i] (empty unless
  /// wants_rects()).
  const std::vector<RectF>& boxes() const { return boxes_; }

  /// Emits the collected tuples into `sink` in order, with their boxes
  /// when this buffer holds them.
  void ReplayInto(TupleSink* sink) const {
    for (size_t i = 0; i < tuples_.size(); ++i) {
      if (wants_rects()) {
        sink->EmitBox(tuples_[i], boxes_[i]);
      } else {
        sink->Emit(tuples_[i]);
      }
    }
  }

 private:
  std::vector<std::vector<ObjectId>> tuples_;
  std::vector<RectF> boxes_;
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
