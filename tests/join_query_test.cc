// The JoinQuery surface itself: builder validation (refine
// misconfiguration is a real error with an actionable message, predicate
// rules, index bounds), forced-algorithm dispatch and the algorithm the
// stats report, Describe() output, and the basic semantics of the
// distance and containment predicates on small hand-checkable inputs.

#include <gtest/gtest.h>

#include <sstream>

#include "core/join_query.h"
#include "core/spatial_join.h"

#include "datagen/synthetic.h"
#include "refine/feature_store.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

struct QueryFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  std::vector<Segment> ga, gb;
  DatasetRef da, db;
  std::unique_ptr<Pager> geom_a_pager, geom_b_pager;
  std::optional<FeatureStore> store_a, store_b;

  QueryFixture() {
    const RectF region(0, 0, 60, 60);
    a = UniformRects(200, region, 2.0f, 11);
    b = UniformRects(180, region, 2.5f, 12);
    ga = SegmentsForRects(a);
    gb = SegmentsForRects(b);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    geom_a_pager = td.NewPager("geom.a");
    geom_b_pager = td.NewPager("geom.b");
    auto sa = FeatureStore::Build(geom_a_pager.get(), ga, "a");
    auto sb = FeatureStore::Build(geom_b_pager.get(), gb, "b");
    SJ_CHECK_OK(sa.status());
    SJ_CHECK_OK(sb.status());
    store_a.emplace(std::move(*sa));
    store_b.emplace(std::move(*sb));
  }
};

// ---------------------------------------------------------------------------
// Satellite: refine misconfiguration is a real error with a clear
// message, for the pairwise and the k-way JoinQuery.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Satellite: absurdly small memory budgets used to flow into divisions
// downstream; they are now rejected at compile time with a message
// naming the documented floor, and budgets at the floor run governed.
// ---------------------------------------------------------------------------

TEST(JoinQueryErrors, MemoryBudgetBelowFloorIsRejected) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  for (const size_t bad : {size_t{0}, size_t{1}, kMinMemoryBytes - 1}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromStream(f.da))
                     .Input(JoinInput::FromStream(f.db))
                     .MemoryBytes(bad)
                     .Run(&sink);
    ASSERT_FALSE(stats.ok()) << "budget " << bad << " was accepted";
    EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(stats.status().message().find("kMinMemoryBytes"),
              std::string::npos)
        << stats.status().message();
    EXPECT_NE(stats.status().message().find("64 KiB"), std::string::npos)
        << stats.status().message();
    // Explain trips over the same validation.
    auto plan = JoinQuery(joiner)
                    .Input(JoinInput::FromStream(f.da))
                    .Input(JoinInput::FromStream(f.db))
                    .MemoryBytes(bad)
                    .Explain();
    EXPECT_FALSE(plan.ok());
  }
}

TEST(JoinQuery, FloorBudgetRunsGovernedAndWithinBudget) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const auto expected = testing_util::BruteForcePairs(f.a, f.b);
  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromStream(f.da))
                     .Input(JoinInput::FromStream(f.db))
                     .Algorithm(algo)
                     .MemoryBytes(kMinMemoryBytes)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
    EXPECT_GT(stats->peak_memory_bytes, 0u) << ToString(algo);
    EXPECT_LE(stats->peak_memory_bytes, kMinMemoryBytes) << ToString(algo);
    EXPECT_FALSE(stats->memory_components.empty()) << ToString(algo);
  }
}

TEST(JoinQuery, ExplainReportsTheGrantBreakdown) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  auto plan = JoinQuery(joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Input(JoinInput::FromStream(f.db))
                  .Explain();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->memory.empty());
  EXPECT_EQ(plan->memory.budget_bytes, JoinOptions().memory_bytes);
  EXPECT_GT(plan->memory.GrantFor(grants::kSortRuns), 0u);
  EXPECT_GT(plan->memory.GrantFor(grants::kSweep), 0u);
  const std::string described = plan->Describe();
  EXPECT_NE(described.find("mem budget"), std::string::npos) << described;
  EXPECT_NE(described.find(grants::kSortRuns), std::string::npos) << described;
}

TEST(JoinQueryErrors, RefineWithoutFeaturesNamesTheInput) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db).WithFeatures(
                       &*f.store_b))
                   .Refine(true)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  const std::string message = stats.status().ToString();
  EXPECT_NE(message.find("refine=true but input #0 has no FeatureStore"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("WithFeatures"), std::string::npos) << message;
}

TEST(JoinQueryErrors, RefineWithoutFeaturesOnSecondInput) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .WithFeatures(0, &*f.store_a)
                   .Refine(true)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("input #1"), std::string::npos)
      << stats.status().ToString();
}

TEST(JoinQueryErrors, MultiwayRefineErrorNamesTheInput) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingTupleSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da).WithFeatures(
                       &*f.store_a))
                   .Input(JoinInput::FromStream(f.db).WithFeatures(
                       &*f.store_b))
                   .Input(JoinInput::FromStream(f.da))
                   .Refine(true)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  const std::string message = stats.status().ToString();
  EXPECT_NE(message.find("input #2 of the multiway join"), std::string::npos)
      << message;
}

// ---------------------------------------------------------------------------
// Builder validation: predicate rules and index bounds.
// ---------------------------------------------------------------------------

TEST(JoinQueryErrors, ContainsRequiresRefine) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Predicate(Predicate::kContains)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("Refine(true)"),
            std::string::npos)
      << stats.status().ToString();
}

TEST(JoinQueryErrors, NegativeEpsilonRejected) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Predicate(Predicate::kDistanceWithin, -1.0)
                   .Run(&sink);
  EXPECT_FALSE(stats.ok());
}

TEST(JoinQueryErrors, MultiwayRejectsNonIntersectionPredicates) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingTupleSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Input(JoinInput::FromStream(f.da))
                   .Predicate(Predicate::kDistanceWithin, 1.0)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("kIntersects"), std::string::npos);
}

TEST(JoinQueryErrors, PairwiseRunNeedsExactlyTwoInputs) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto one = JoinQuery(joiner).Input(JoinInput::FromStream(f.da)).Run(&sink);
  EXPECT_FALSE(one.ok());
  auto three = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Input(JoinInput::FromStream(f.da))
                   .Run(&sink);
  EXPECT_FALSE(three.ok());
}

TEST(JoinQueryErrors, AttachmentIndicesAreBoundsChecked) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto bad_features = JoinQuery(joiner)
                          .Input(JoinInput::FromStream(f.da))
                          .Input(JoinInput::FromStream(f.db))
                          .WithFeatures(5, &*f.store_a)
                          .Run(&sink);
  ASSERT_FALSE(bad_features.ok());
  EXPECT_NE(bad_features.status().ToString().find("out of range"),
            std::string::npos);
  GridHistogram hist(RectF(0, 0, 60, 60), 8, 8);
  auto bad_hist = JoinQuery(joiner)
                      .Input(JoinInput::FromStream(f.da))
                      .Input(JoinInput::FromStream(f.db))
                      .WithHistogram(7, &hist)
                      .Run(&sink);
  ASSERT_FALSE(bad_hist.ok());
  EXPECT_NE(bad_hist.status().ToString().find("out of range"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Forced algorithms and the algorithm the stats report.
// ---------------------------------------------------------------------------

TEST(JoinQuery, EveryForcedAlgorithmRunsAndIsReported) {
  QueryFixture f;
  auto ta_pager = f.td.NewPager("tree.a");
  auto tb_pager = f.td.NewPager("tree.b");
  auto scratch = f.td.NewPager("tree.scratch");
  auto ta = RTree::BulkLoadHilbert(ta_pager.get(), f.da.range, scratch.get(),
                                   RTreeParams(), 1 << 22);
  auto tb = RTree::BulkLoadHilbert(tb_pager.get(), f.db.range, scratch.get(),
                                   RTreeParams(), 1 << 22);
  ASSERT_TRUE(ta.ok() && tb.ok());
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const auto expected = testing_util::BruteForcePairs(f.a, f.b);
  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                             JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromRTree(&*ta))
                     .Input(JoinInput::FromRTree(&*tb))
                     .Algorithm(algo)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok()) << ToString(algo) << ": "
                            << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
    EXPECT_EQ(stats->algorithm, algo);
  }
}

TEST(JoinQuery, ForcedStOnStreamInputsIsFailedPrecondition) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Algorithm(JoinAlgorithm::kST)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stats.status().ToString().find("R-tree"), std::string::npos);
}

TEST(JoinQuery, AutoRunReportsThePlannedAlgorithm) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  JoinQuery query(joiner);
  query.Input(JoinInput::FromStream(f.da)).Input(JoinInput::FromStream(f.db));
  auto plan = query.Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CollectingSink sink;
  auto stats = query.Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->algorithm, plan->algorithm);

  bool saw_algorithm = false;
  for (const auto& [key, value] : stats->ToKeyValues()) {
    if (key == "algorithm") {
      EXPECT_EQ(value, ToString(plan->algorithm));
      saw_algorithm = true;
    }
  }
  EXPECT_TRUE(saw_algorithm);
}

// ---------------------------------------------------------------------------
// Describe / operator<<.
// ---------------------------------------------------------------------------

TEST(Describe, StatsAndDecisionRoundTripThroughStreams) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok());
  std::ostringstream os;
  os << *stats;
  EXPECT_NE(os.str().find("SSSJ: "), std::string::npos);
  EXPECT_NE(os.str().find(" results"), std::string::npos);
  EXPECT_NE(stats->Describe(f.td.disk.machine()).find("modeled"),
            std::string::npos);

  auto decision = JoinQuery(joiner)
                      .Input(JoinInput::FromStream(f.da))
                      .Input(JoinInput::FromStream(f.db))
                      .Explain();
  ASSERT_TRUE(decision.ok());
  std::ostringstream ds;
  ds << *decision;
  EXPECT_NE(ds.str().find("SSSJ"), std::string::npos);

  CollectingTupleSink tuples;
  auto mstats = JoinQuery(joiner)
                    .Input(JoinInput::FromStream(f.da))
                    .Input(JoinInput::FromStream(f.db))
                    .Run(&tuples);
  ASSERT_TRUE(mstats.ok());
  EXPECT_NE(mstats->Describe().find(" results"), std::string::npos);
}

TEST(Describe, ExplainDoesNoIoEvenForDistanceQueries) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const DiskStats before = f.td.disk.stats();
  auto decision = JoinQuery(joiner)
                      .Input(JoinInput::FromStream(f.da))
                      .Input(JoinInput::FromStream(f.db))
                      .Predicate(Predicate::kDistanceWithin, 1.5)
                      .Explain();
  ASSERT_TRUE(decision.ok());
  const DiskStats after = f.td.disk.stats();
  EXPECT_EQ(after.pages_read, before.pages_read)
      << "EXPLAIN must not run the ε-expansion materialization";
  EXPECT_EQ(after.pages_written, before.pages_written);
}

// ---------------------------------------------------------------------------
// Small hand-checkable predicate semantics (the randomized differential
// harness in join_equivalence_test.cc covers the full matrix).
// ---------------------------------------------------------------------------

TEST(Predicates, DistanceWithinFindsNearButDisjointPairs) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  // Two unit squares 3 apart on x: disjoint, within distance 4, not 2.
  const std::vector<RectF> a = {RectF(0, 0, 1, 1, 0)};
  const std::vector<RectF> b = {RectF(4, 0, 5, 1, 0)};
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  SpatialJoiner joiner(&td.disk, JoinOptions());

  for (double eps : {2.0, 4.0}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromStream(da))
                     .Input(JoinInput::FromStream(db))
                     .Predicate(Predicate::kDistanceWithin, eps)
                     .Algorithm(JoinAlgorithm::kSSSJ)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(sink.pairs().size(), eps >= 3.0 ? 1u : 0u) << "eps=" << eps;
  }
  // Plain intersection finds nothing.
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(sink.pairs().empty());
}

TEST(Predicates, ContainsKeepsOnlyTrueSubSegments) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  // a0: segment (0,0)-(8,8). b0: its sub-segment (2,2)-(6,6); b1 merely
  // crosses it; b2 is disjoint.
  const std::vector<Segment> ga = {Segment(0, 0, 8, 8)};
  const std::vector<Segment> gb = {Segment(2, 2, 6, 6), Segment(0, 4, 4, 0),
                                   Segment(20, 20, 24, 24)};
  std::vector<RectF> a, b;
  for (size_t i = 0; i < ga.size(); ++i) {
    a.push_back(ga[i].Mbr(static_cast<ObjectId>(i)));
  }
  for (size_t j = 0; j < gb.size(); ++j) {
    b.push_back(gb[j].Mbr(static_cast<ObjectId>(j)));
  }
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  auto pa = td.NewPager("geom.a");
  auto pb = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pa.get(), ga, "a");
  auto store_b = FeatureStore::Build(pb.get(), gb, "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  SpatialJoiner joiner(&td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .WithFeatures(0, &*store_a)
                   .WithFeatures(1, &*store_b)
                   .Predicate(Predicate::kContains)
                   .Refine(true)
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<IdPair> expected = {{0, 0}};
  EXPECT_EQ(Sorted(sink.pairs()), expected);
  EXPECT_EQ(stats->candidate_count, 2u) << "b0 and b1 overlap a0's MBR";
}

}  // namespace
}  // namespace sj
