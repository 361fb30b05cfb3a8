#include "core/join_query.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "io/stream.h"
#include "refine/refine.h"
#include "service/spatial_service.h"
#include "util/timer.h"

namespace sj {

namespace {

/// Replaces the filter's output with the refinement step's survivors and
/// folds the step's I/O and CPU (`driver_cpu`: the calling thread's share)
/// into `stats`.
void FoldRefinement(const RefineStats& refined, double driver_cpu,
                    JoinStats* stats) {
  stats->candidate_count = refined.candidates;
  stats->output_count = refined.results;
  stats->refine_pages_read = refined.pages_read;
  stats->disk += refined.disk;
  stats->host_cpu_seconds += driver_cpu + refined.host_cpu_seconds;
}

/// A query's last step: folds the compile step's own I/O and CPU
/// (ε-expansion passes, tree rebuilds) into the reported stats, so a
/// query's counters cover all the work it caused, and copies the
/// arbiter's peak and per-component marks.
void FoldCompileAndMemory(const CompiledPlan& plan, JoinStats* stats) {
  stats->disk += plan.compile_disk;
  stats->host_cpu_seconds += plan.compile_cpu_seconds;
  FillMemoryStats(*plan.arbiter, stats);
}

/// Runs `query` on an inline single-query service owning exactly its
/// budget (no shared workers, no shared pool), so the standalone path
/// and the multi-tenant path execute the same admission + execution code
/// and report errors through the same taxonomy.
template <typename Sink>
Result<JoinStats> RunInline(const JoinQuery& query, Sink* sink) {
  ServiceOptions service_options;
  service_options.global_memory_bytes = query.options().memory_bytes;
  SpatialService service(service_options);
  return service.Submit(query, sink).Result();
}

/// Gives a rectangle sink the original MBRs of the ε-expanded input in
/// place of the expanded copies the filter step joined.
class RestoreOriginalRects final : public JoinSink {
 public:
  RestoreOriginalRects(const CompiledPlan& plan, JoinSink* down)
      : JoinSink(/*wants_rects=*/true),
        originals_(plan.originals),
        side_(plan.expanded_side),
        down_(down) {}

  void Emit(ObjectId a, ObjectId b) override { down_->Emit(a, b); }
  void EmitRects(const RectF& a, const RectF& b) override {
    if (side_ == 0) {
      down_->EmitRects(Original(a.id), b);
    } else {
      down_->EmitRects(a, Original(b.id));
    }
  }

 private:
  const RectF& Original(ObjectId id) const {
    const auto it = std::lower_bound(
        originals_.begin(), originals_.end(), id,
        [](const RectF& r, ObjectId v) { return r.id < v; });
    SJ_CHECK(it != originals_.end() && it->id == id);
    return *it;
  }

  const std::vector<RectF>& originals_;
  const size_t side_;
  JoinSink* down_;
};

/// Hands refinement's survivors to a rectangle sink with the MBRs their
/// filter step found. Refinement emits survivors in candidate order, so
/// one forward walk over the candidates finds each.
class ReattachRects final : public JoinSink {
 public:
  ReattachRects(const CollectingSink& candidates, JoinSink* down)
      : candidates_(candidates), down_(down) {}

  void Emit(ObjectId a, ObjectId b) override {
    const std::vector<IdPair>& pairs = candidates_.pairs();
    while (pairs[next_].a != a || pairs[next_].b != b) {
      SJ_CHECK(++next_ < pairs.size());
    }
    down_->EmitRects(candidates_.rects()[2 * next_],
                     candidates_.rects()[2 * next_ + 1]);
    next_++;
  }

 private:
  const CollectingSink& candidates_;
  JoinSink* down_;
  size_t next_ = 0;
};

/// ReattachRects for k-way survivors and their contact boxes.
class ReattachBoxes final : public TupleSink {
 public:
  ReattachBoxes(const CollectingTupleSink& candidates, TupleSink* down)
      : candidates_(candidates), down_(down) {}

  void Emit(const std::vector<ObjectId>& tuple) override {
    const std::vector<std::vector<ObjectId>>& tuples = candidates_.tuples();
    while (tuples[next_] != tuple) SJ_CHECK(++next_ < tuples.size());
    down_->EmitBox(tuple, candidates_.boxes()[next_]);
    next_++;
  }

 private:
  const CollectingTupleSink& candidates_;
  TupleSink* down_;
  size_t next_ = 0;
};

Status MissingFeaturesError(size_t index, bool multiway) {
  return Status::FailedPrecondition(
      std::string("refine=true but input #") + std::to_string(index) +
      (multiway ? " of the multiway join" : "") +
      " has no FeatureStore: attach the relation's exact geometry with "
      "JoinInput::WithFeatures or JoinQuery::WithFeatures before running "
      "a refining query");
}

}  // namespace

JoinQuery& JoinQuery::WithFeatures(size_t index, const FeatureStore* store) {
  features_.emplace_back(index, store);
  return *this;
}

Status JoinQuery::ApplyDistanceTransform(CompiledPlan& plan,
                                         bool keep_originals) {
  const double eps = plan.predicate.epsilon;
  // The transform's buffers (collected rectangles, and for ST the
  // expanded side's bulk-load sort) are governed like everything else.
  MemoryGrant transform_grant = plan.arbiter->AcquireShrinkable(
      grants::kRTreeBulkLoad, plan.options.memory_bytes / 2,
      RunLayout::kMinSortMemoryBytes);
  // Expand the side that avoids disturbing an index when possible: a
  // stream side if there is one, else side 1 (rebuilt below when the
  // forced algorithm needs the index back).
  size_t side = 1;
  if (plan.inputs[1].indexed() && !plan.inputs[0].indexed()) side = 0;
  const JoinInput original = plan.inputs[side];

  std::vector<RectF> rects;
  if (original.indexed()) {
    SJ_RETURN_IF_ERROR(original.rtree()->CollectAll(&rects));
  } else {
    const StreamRange& range = original.stream().range;
    StreamReader<RectF> reader(range.pager, range.first_page, range.count);
    while (std::optional<RectF> r = reader.Next()) rects.push_back(*r);
  }
  transform_grant.NoteUsage(rects.size() * sizeof(RectF));

  SJ_ASSIGN_OR_RETURN(
      auto pager,
      MakePager(plan.options.storage.get(), plan.disk, "distance.expanded"));
  StreamWriter<RectF> writer(pager.get());
  const PageId first = writer.first_page();
  for (const RectF& r : rects) writer.Append(ExpandRectForDistance(r, eps));
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  DatasetRef expanded;
  expanded.range = StreamRange{pager.get(), first, n};
  expanded.extent = ExpandRectForDistance(original.extent(), eps);

  JoinInput replacement = JoinInput::FromStream(expanded);
  if (algorithm_ == JoinAlgorithm::kST) {
    // ST traverses two indexes, so the expanded side gets a temporary
    // tree of its own (same parameters as the original index).
    SJ_ASSIGN_OR_RETURN(auto tree_pager,
                        MakePager(plan.options.storage.get(), plan.disk,
                                  "distance.expanded.tree"));
    SJ_ASSIGN_OR_RETURN(auto scratch,
                        MakePager(plan.options.storage.get(), plan.disk,
                                  "distance.expanded.scratch"));
    const RTreeParams params =
        original.indexed() ? original.rtree()->params() : RTreeParams();
    SJ_ASSIGN_OR_RETURN(
        RTree tree,
        RTree::BulkLoadHilbert(tree_pager.get(), expanded.range,
                               scratch.get(), params,
                               transform_grant.bytes()));
    plan.owned_trees.push_back(std::make_unique<RTree>(std::move(tree)));
    replacement = JoinInput::FromRTree(plan.owned_trees.back().get());
    plan.owned_pagers.push_back(std::move(tree_pager));
    plan.owned_pagers.push_back(std::move(scratch));
  }
  replacement.WithFeatures(original.features());
  plan.inputs[side] = replacement;
  plan.owned_pagers.push_back(std::move(pager));

  // The user's histograms describe the *unexpanded* relations; pruning an
  // index traversal with them could now drop pairs discovered only in the
  // ε-fringe, so traversals fall back to extent-only pruning. (The
  // planner already consumed them for its estimate above the transform.)
  for (const GridHistogram*& hist : plan.prune_histograms) hist = nullptr;

  if (keep_originals) {
    std::sort(rects.begin(), rects.end(),
              [](const RectF& x, const RectF& y) { return x.id < y.id; });
    transform_grant.Shrink(rects.size() * sizeof(RectF));
    plan.originals = std::move(rects);
    plan.expanded_side = side;
    plan.originals_grant = std::move(transform_grant);
  }
  return Status::OK();
}

Result<CompiledPlan> JoinQuery::Compile(bool multiway, bool plan_only,
                                        bool keep_originals) {
  CompiledPlan plan;
  plan.disk = joiner_->disk();
  plan.options = options_;
  plan.predicate = predicate_;

  // Absurdly small budgets used to flow into divisions downstream; the
  // floor is kMinMemoryBytes (64 KiB), below which the component floors
  // no longer fit together.
  if (options_.memory_bytes < kMinMemoryBytes) {
    return Status::FailedPrecondition(
        "memory budget " + std::to_string(options_.memory_bytes) +
        " B is below the supported floor of " +
        std::to_string(kMinMemoryBytes) +
        " B (kMinMemoryBytes, 64 KiB); raise JoinQuery::MemoryBytes / "
        "JoinOptions::memory_bytes");
  }
  plan.arbiter = arbiter_override_ != nullptr
                     ? arbiter_override_
                     : std::make_shared<MemoryArbiter>(
                           options_.memory_bytes,
                           options_.strict_memory_accounting);

  if (multiway) {
    if (inputs_.size() < 2) {
      return Status::InvalidArgument("multiway join needs at least 2 inputs");
    }
  } else if (inputs_.size() != 2) {
    return Status::InvalidArgument(
        "pairwise JoinQuery::Run needs exactly 2 inputs (got " +
        std::to_string(inputs_.size()) +
        "); run k-way joins against a TupleSink");
  }
  plan.inputs = inputs_;
  plan.prune_histograms.assign(plan.inputs.size(), nullptr);
  for (const auto& [index, store] : features_) {
    if (index >= plan.inputs.size()) {
      return Status::InvalidArgument(
          "JoinQuery::WithFeatures index " + std::to_string(index) +
          " out of range: the query has " +
          std::to_string(plan.inputs.size()) + " inputs");
    }
    plan.inputs[index].WithFeatures(store);
  }
  for (const auto& [index, hist] : histograms_) {
    if (index >= plan.inputs.size()) {
      return Status::InvalidArgument(
          "JoinQuery::WithHistogram index " + std::to_string(index) +
          " out of range: the query has " +
          std::to_string(plan.inputs.size()) + " inputs");
    }
    plan.prune_histograms[index] = hist;
  }

  // Predicate rules (see join/predicate.h).
  if (predicate_.kind == Predicate::kDistanceWithin &&
      !(predicate_.epsilon >= 0.0)) {
    return Status::InvalidArgument(
        "Predicate::kDistanceWithin needs a non-negative epsilon");
  }
  if (multiway && predicate_.kind != Predicate::kIntersects) {
    return Status::InvalidArgument(
        std::string("k-way joins support Predicate::kIntersects only (got ") +
        ToString(predicate_.kind) + ")");
  }
  if (predicate_.kind == Predicate::kContains && !plan.options.refine) {
    return Status::InvalidArgument(
        "Predicate::kContains is a refinement-stage predicate over exact "
        "geometry: enable Refine(true) and attach FeatureStores to both "
        "inputs");
  }
  if (plan.options.refine) {
    for (size_t i = 0; i < plan.inputs.size(); ++i) {
      if (plan.inputs[i].features() == nullptr) {
        return MissingFeaturesError(i, multiway);
      }
    }
  }

  // Planning, then transforms. The order matters: the planner sees the
  // unexpanded inputs while the user's histograms are still attached, so
  // they sharpen the touched-fraction estimate as documented; only after
  // that does the ε-transform rewrite a side (and drop the histograms,
  // which describe the unexpanded data). The transform's own passes are
  // measured and folded into the query's stats by Run.
  if (!multiway) {
    // Exact PBSM grid reporting only for Explain (plan_only): a PBSM
    // execution re-derives its grid from the same inputs anyway, and
    // the other executors never read it.
    plan.decision =
        joiner_->Plan(plan.inputs[0], plan.inputs[1], plan.prune_histogram(0),
                      plan.prune_histogram(1), plan.options,
                      /*exact_pbsm_preplan=*/plan_only);
    if (algorithm_ != JoinAlgorithm::kAuto) {
      plan.decision.algorithm = algorithm_;
      plan.decision.memory = PlanJoinMemory(
          algorithm_, plan.options,
          (plan.inputs[0].count() + plan.inputs[1].count()) * sizeof(RectF));
      plan.decision.rationale =
          std::string("algorithm forced to ") + ToString(algorithm_) +
          " by the query";
    }
    if (!plan_only && predicate_.kind == Predicate::kDistanceWithin) {
      JoinMeasurement compile_measurement(plan.disk);
      SJ_RETURN_IF_ERROR(ApplyDistanceTransform(plan, keep_originals));
      const JoinStats compile_stats = compile_measurement.Finish();
      plan.compile_disk = compile_stats.disk;
      plan.compile_cpu_seconds = compile_stats.host_cpu_seconds;
    }
  }
  return plan;
}

Result<PlanDecision> JoinQuery::Explain() {
  // plan_only: validation + planning without the ε-expansion
  // materialization (the planner runs before the transform either way,
  // so the decision is exactly what Run would execute).
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan,
                      Compile(/*multiway=*/false, /*plan_only=*/true));
  return plan.decision;
}

Result<JoinStats> JoinQuery::Run(JoinSink* sink) {
  return RunInline(*this, sink);
}

Result<JoinStats> JoinQuery::Run(TupleSink* sink) {
  return RunInline(*this, sink);
}

Result<JoinStats> JoinQuery::RunDirect(JoinSink* sink) {
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan,
                      Compile(/*multiway=*/false, /*plan_only=*/false,
                              /*keep_originals=*/sink->wants_rects()));
  std::optional<RestoreOriginalRects> restore;
  if (sink->wants_rects() &&
      plan.predicate.kind == Predicate::kDistanceWithin) {
    sink = &restore.emplace(plan, sink);
  }
  JoinStats stats;
  if (!plan.options.refine) {
    SJ_ASSIGN_OR_RETURN(stats, ExecuteFilter(plan, sink));
    stats.candidate_count = stats.output_count;
  } else {
    // Filter step: the MBR join buffers candidates; refinement resolves
    // them against exact geometry and forwards survivors to the caller.
    CollectingSink candidates(sink->wants_rects());
    SJ_ASSIGN_OR_RETURN(stats, ExecuteFilter(plan, &candidates));
    ThreadCpuTimer refine_cpu;
    ReattachRects reattach(candidates, sink);
    SJ_ASSIGN_OR_RETURN(
        RefineStats refined,
        RefinePairs(candidates.pairs(), *plan.inputs[0].features(),
                    *plan.inputs[1].features(), plan.options,
                    sink->wants_rects() ? &reattach : sink, plan.predicate,
                    plan.arbiter.get()));
    FoldRefinement(refined, refine_cpu.Elapsed(), &stats);
  }
  FoldCompileAndMemory(plan, &stats);
  return stats;
}

Result<JoinStats> JoinQuery::RunDirect(TupleSink* sink) {
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan, Compile(/*multiway=*/true));
  JoinStats stats;
  if (!plan.options.refine) {
    SJ_ASSIGN_OR_RETURN(stats, ExecuteMultiwayFilter(plan, sink));
  } else {
    std::vector<const FeatureStore*> stores;
    stores.reserve(plan.inputs.size());
    for (const JoinInput& input : plan.inputs) {
      stores.push_back(input.features());
    }
    // Filter step with candidates buffered in memory, then batched k-way
    // refinement with the pairwise exact predicate.
    CollectingTupleSink candidates(sink->wants_rects());
    SJ_ASSIGN_OR_RETURN(stats, ExecuteMultiwayFilter(plan, &candidates));
    ThreadCpuTimer refine_cpu;
    ReattachBoxes reattach(candidates, sink);
    SJ_ASSIGN_OR_RETURN(
        RefineStats refined,
        RefineTuples(candidates.tuples(), stores, plan.options,
                     sink->wants_rects() ? &reattach : sink,
                     plan.arbiter.get()));
    FoldRefinement(refined, refine_cpu.Elapsed(), &stats);
  }
  FoldCompileAndMemory(plan, &stats);
  return stats;
}

}  // namespace sj
