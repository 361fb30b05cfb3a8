#ifndef USJ_JOIN_EXECUTOR_H_
#define USJ_JOIN_EXECUTOR_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "histogram/grid_histogram.h"
#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/multiway.h"
#include "join/predicate.h"
#include "refine/feature_store.h"
#include "rtree/rtree.h"
#include "util/result.h"

namespace sj {

/// One side of a join in the unified API: a relation that is either a
/// stream of MBRs (sorted or not) or a packed R-tree.
class JoinInput {
 public:
  enum class Kind { kStream, kSortedStream, kRTree };

  static JoinInput FromStream(const DatasetRef& ref) {
    return JoinInput(Kind::kStream, ref, nullptr);
  }
  /// The stream must already be sorted by OrderByYLo.
  static JoinInput FromSortedStream(const DatasetRef& ref) {
    return JoinInput(Kind::kSortedStream, ref, nullptr);
  }
  /// The tree must outlive the join.
  static JoinInput FromRTree(const RTree* tree) {
    return JoinInput(Kind::kRTree, DatasetRef{}, tree);
  }

  /// Attaches the relation's exact geometry (refinement step, see
  /// JoinOptions::refine). The store must outlive the join. Chainable:
  /// `JoinInput::FromStream(ref).WithFeatures(&store)` — the rvalue
  /// overload returns by value, so chaining off a temporary never hands
  /// out a dangling reference.
  JoinInput& WithFeatures(const FeatureStore* store) & {
    features_ = store;
    return *this;
  }
  JoinInput WithFeatures(const FeatureStore* store) && {
    features_ = store;
    return *this;
  }

  Kind kind() const { return kind_; }
  bool indexed() const { return kind_ == Kind::kRTree; }
  const DatasetRef& stream() const { return stream_; }
  const RTree* rtree() const { return rtree_; }
  const FeatureStore* features() const { return features_; }

  /// Number of MBR records in the relation.
  uint64_t count() const {
    return indexed() ? rtree_->meta().entry_count : stream_.count();
  }
  /// Pages occupied by the relation (index pages for trees).
  uint64_t pages() const;
  /// Spatial extent (must be computable without I/O for indexed inputs).
  RectF extent() const {
    return indexed() ? rtree_->bounding_box() : stream_.extent;
  }

 private:
  JoinInput(Kind kind, const DatasetRef& stream, const RTree* rtree)
      : kind_(kind), stream_(stream), rtree_(rtree) {}

  Kind kind_;
  DatasetRef stream_;
  const RTree* rtree_;
  const FeatureStore* features_ = nullptr;
};

/// The planner's verdict, with the numbers behind it.
struct PlanDecision {
  JoinAlgorithm algorithm = JoinAlgorithm::kSSSJ;
  /// Estimated fraction of index pages a PQ/ST traversal would touch.
  double touched_fraction = 1.0;
  double index_cost_seconds = 0.0;
  double stream_cost_seconds = 0.0;
  /// Estimated refinement I/O (0 unless options.refine and both inputs
  /// carry FeatureStores). Included in both plan costs above — it is the
  /// same for every filter algorithm, so it never flips the choice, but
  /// the totals stay honest end-to-end estimates.
  double refine_cost_seconds = 0.0;
  /// Estimated external-sort CPU of the streaming plan (run-formation
  /// compares spread over the sort threads plus coordinator merge
  /// passes, at the granted sort memory). Included in
  /// stream_cost_seconds — and per non-indexed side in
  /// index_cost_seconds — so worker threads shift the kAuto crossover
  /// toward the streaming plans.
  double sort_cpu_seconds = 0.0;
  /// The PBSM partitioning pre-plan under the query's options, so
  /// Explain() reports the grid execution would use: adaptive or fixed,
  /// the (base) tiles per axis, and the partition count. When adaptive
  /// planning has histograms to work from, `pbsm_partitions` and
  /// `pbsm_leaf_tiles` come from actually running the PartitionPlanner;
  /// otherwise they are the memory-budget formula and the base grid.
  bool pbsm_adaptive = false;
  uint32_t pbsm_tiles_per_axis = 0;
  uint32_t pbsm_partitions = 0;
  uint32_t pbsm_leaf_tiles = 0;
  /// Estimated cost of the histogram-build pass adaptive partitioning
  /// adds for inputs without attached histograms (0 when fixed or when
  /// both histograms are attached).
  double histogram_build_seconds = 0.0;
  /// End-to-end PBSM estimate (distribution + replicated write/read +
  /// histogram pass + refinement term), for comparison against the
  /// stream/index costs above.
  double pbsm_cost_seconds = 0.0;
  /// The memory shape of the chosen algorithm under the query's budget:
  /// which components will be granted how much (the filter step acquires
  /// the live grants with the same names and arithmetic). The stream and
  /// index costs above are priced at these *granted* sizes — a tight
  /// budget adds external-sort merge passes to the streaming plans and
  /// can flip the kAuto decision toward the index.
  MemoryPlan memory;
  std::string rationale;

  /// One human-readable line: algorithm, touched fraction, both plan
  /// costs, the grant breakdown, and the rationale.
  std::string Describe() const;

  /// The decision as ordered key/value pairs — the structured form of
  /// Describe() for machine consumers (tests asserting on plan fields,
  /// bench result tables, service introspection). Always present:
  /// "algorithm", "touched_fraction", "stream_cost_seconds",
  /// "index_cost_seconds", "rationale". Conditionally (when the planner
  /// computed them): "refine_cost_seconds", the "pbsm.*" partitioning
  /// group, "memory.budget_bytes" and one "memory.grant.<component>" per
  /// planned grant. Numeric values use %.6g / plain integers, so tests
  /// can parse them back without locale surprises.
  std::vector<std::pair<std::string, std::string>> ToKeyValues() const;
};

std::ostream& operator<<(std::ostream& os, const PlanDecision& decision);

/// The compile step's output: a JoinQuery resolved into exactly what the
/// filter step needs — filter-ready inputs (ε-expansion for distance
/// predicates already applied, temporaries owned here), the effective
/// per-query options, the predicate, and the planner's decision. One plan
/// structure for every algorithm.
struct CompiledPlan {
  DiskModel* disk = nullptr;
  /// Effective options for this query (the joiner's defaults plus the
  /// query's overrides). The filter step reads options from here, never
  /// from the joiner.
  JoinOptions options;
  PredicateSpec predicate;
  /// Resolved inputs, in query order. For kDistanceWithin one side has
  /// been rewritten to an ε-expanded copy (a stream, or a rebuilt tree if
  /// the forced ST algorithm needs an index on that side).
  std::vector<JoinInput> inputs;
  /// Per-input occupancy histograms available for *pruning* index
  /// traversals (nullptr entries allowed). Cleared by the compile step
  /// when ε-expansion would make histogram pruning unsafe.
  std::vector<const GridHistogram*> prune_histograms;
  /// The planner's decision for pairwise plans (decision.algorithm is the
  /// algorithm to execute; for forced algorithms the rationale says so).
  PlanDecision decision;
  /// The query's memory governor: the filter step draws its grants from
  /// here (and threads it into the algorithm layer), so one budget bounds
  /// the whole execution — filter, spills, refinement — and the stats
  /// report one coherent peak. Created by the compile step from the
  /// effective options.
  std::shared_ptr<MemoryArbiter> arbiter;
  /// I/O and CPU the compile step itself spent (ε-expansion passes,
  /// expanded-tree rebuilds); folded into the query's reported stats.
  DiskStats compile_disk;
  double compile_cpu_seconds = 0.0;

  /// Temporaries backing resolved inputs; owned by the plan so resolved
  /// DatasetRefs and trees stay valid for its lifetime.
  std::vector<std::unique_ptr<Pager>> owned_pagers;
  std::vector<std::unique_ptr<RTree>> owned_trees;

  const GridHistogram* prune_histogram(size_t i) const {
    return i < prune_histograms.size() ? prune_histograms[i] : nullptr;
  }
};

/// The pairwise filter step: runs plan.decision.algorithm over
/// plan.inputs[0] x plan.inputs[1] and emits every pair of intersecting
/// MBRs into `sink`. Predicates and refinement are applied by the query
/// layer around it. SSSJ and PBSM flatten indexed inputs with a leaf scan;
/// ST needs R-trees on both sides (FailedPrecondition otherwise); PQ takes
/// any mix. May allocate temporaries on the plan (leaf-extraction
/// streams), which is why the plan is mutable. The returned stats name the
/// algorithm that ran.
Result<JoinStats> ExecuteFilter(CompiledPlan& plan, JoinSink* sink);

/// The memory planner: carves a (floor-clamped) JoinOptions::memory_bytes
/// budget into the component grants `algo` will acquire, for an input of
/// `input_bytes` total MBR records. Used by SpatialJoiner::Plan (so
/// Explain() reports the breakdown and the cost model prices plans at
/// their granted memory) and mirrored by the filter step's live Acquire
/// calls.
MemoryPlan PlanJoinMemory(JoinAlgorithm algo, const JoinOptions& options,
                          uint64_t input_bytes);

/// The k-way filter execution (§4's extension): every plan.inputs entry
/// becomes a sorted source (selective index traversals included) feeding
/// the left-deep chain of lazy PQ sweeps — or, with options.num_threads >
/// 1, the strip-parallel path over materialized streams. Algorithm
/// dispatch does not apply: the chain is the only k-way execution.
Result<JoinStats> ExecuteMultiwayFilter(CompiledPlan& plan, TupleSink* sink);

}  // namespace sj

#endif  // USJ_JOIN_EXECUTOR_H_
