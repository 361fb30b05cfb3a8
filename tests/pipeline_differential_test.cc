// Randomized differential harness for the operator pipeline: seeded
// random datasets, windows, grids, and query points, with every
// configuration — 1/2/8 threads, tight and default memory budgets, both
// storage backends — cross-checked against brute-force oracles for
// window-scan, aggregate-by-cell, and top-k, standalone and composed
// over a spatial join. Count aggregation and the top-k total order are
// arrival-order independent, so every configuration must produce the
// *same* rows, not merely equivalent ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "io/storage.h"
#include "join/predicate.h"
#include "op/operators.h"
#include "op/row.h"
#include "refine/feature_store.h"
#include "rtree/rtree.h"
#include "test_util.h"
#include "util/random.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::TestDisk;

// ---------------------------------------------------------------------------
// Oracles (shared arithmetic with tests/pipeline_test.cc)
// ---------------------------------------------------------------------------

uint32_t CellOf(float v, float lo, float w, uint32_t n) {
  const float rel = (v - lo) / w;
  if (!(rel > 0.0f)) return 0;
  return static_cast<uint32_t>(std::min(rel, static_cast<float>(n - 1)));
}

RectF CellRectOracle(const RectF& extent, uint32_t nx, uint32_t ny,
                     uint32_t ix, uint32_t iy) {
  const float cw = (extent.xhi - extent.xlo) / static_cast<float>(nx);
  const float ch = (extent.yhi - extent.ylo) / static_cast<float>(ny);
  const float xlo = extent.xlo + static_cast<float>(ix) * cw;
  const float ylo = extent.ylo + static_cast<float>(iy) * ch;
  const float xhi =
      ix + 1 == nx ? extent.xhi : extent.xlo + static_cast<float>(ix + 1) * cw;
  const float yhi =
      iy + 1 == ny ? extent.yhi : extent.ylo + static_cast<float>(iy + 1) * ch;
  return RectF(xlo, ylo, xhi, yhi);
}

std::vector<PipeRow> AggregateCountOracle(const std::vector<PipeRow>& rows,
                                          const RectF& extent, uint32_t nx,
                                          uint32_t ny) {
  const float cw = (extent.xhi - extent.xlo) / static_cast<float>(nx);
  const float ch = (extent.yhi - extent.ylo) / static_cast<float>(ny);
  std::map<uint64_t, double> cells;
  for (const PipeRow& row : rows) {
    if (!row.rect.Valid() || !row.rect.Intersects(extent)) continue;
    const uint32_t x0 = CellOf(row.rect.xlo, extent.xlo, cw, nx);
    const uint32_t x1 = CellOf(row.rect.xhi, extent.xlo, cw, nx);
    const uint32_t y0 = CellOf(row.rect.ylo, extent.ylo, ch, ny);
    const uint32_t y1 = CellOf(row.rect.yhi, extent.ylo, ch, ny);
    for (uint32_t iy = y0; iy <= y1; ++iy) {
      for (uint32_t ix = x0; ix <= x1; ++ix) {
        cells[uint64_t{iy} * nx + ix] += 1.0;
      }
    }
  }
  std::vector<PipeRow> out;
  for (const auto& [cell, v] : cells) {
    PipeRow row;
    row.rect = CellRectOracle(extent, nx, ny,
                              static_cast<uint32_t>(cell % nx),
                              static_cast<uint32_t>(cell / nx));
    row.ids.push_back(static_cast<ObjectId>(cell));
    row.value = v;
    out.push_back(std::move(row));
  }
  return out;
}

struct TopKLess {
  float qx, qy;
  bool operator()(const PipeRow& a, const PipeRow& b) const {
    const double da = TopKByDistanceOp::DistanceTo(a.rect, qx, qy);
    const double db = TopKByDistanceOp::DistanceTo(b.rect, qx, qy);
    if (da != db) return da < db;
    if (a.ids != b.ids) return a.ids < b.ids;
    if (a.rect.xlo != b.rect.xlo) return a.rect.xlo < b.rect.xlo;
    if (a.rect.ylo != b.rect.ylo) return a.rect.ylo < b.rect.ylo;
    if (a.rect.xhi != b.rect.xhi) return a.rect.xhi < b.rect.xhi;
    if (a.rect.yhi != b.rect.yhi) return a.rect.yhi < b.rect.yhi;
    return a.value < b.value;
  }
};

std::vector<PipeRow> TopKOracle(std::vector<PipeRow> rows, size_t k, float qx,
                                float qy) {
  std::sort(rows.begin(), rows.end(), TopKLess{qx, qy});
  if (rows.size() > k) rows.resize(k);
  return rows;
}

std::vector<PipeRow> SortedByIds(std::vector<PipeRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const PipeRow& a, const PipeRow& b) { return a.ids < b.ids; });
  return rows;
}

// ---------------------------------------------------------------------------
// One randomized trial
// ---------------------------------------------------------------------------

/// Every execution configuration the harness sweeps. A tight budget must
/// change spill behaviour only, never results; threads and backends must
/// change nothing observable but wall time.
struct Config {
  uint32_t threads;
  size_t memory_bytes;
  bool file_backend;

  std::string Name() const {
    return "threads=" + std::to_string(threads) +
           " budget=" + std::to_string(memory_bytes >> 10) + "KiB" +
           (file_backend ? " file" : " memory");
  }
};

std::vector<Config> Sweep() {
  std::vector<Config> configs;
  for (uint32_t threads : {1u, 2u, 8u}) {
    for (size_t budget : {size_t{256} << 10, size_t{24} << 20}) {
      for (bool file_backend : {false, true}) {
        configs.push_back(Config{threads, budget, file_backend});
      }
    }
  }
  return configs;
}

struct Trial {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  DatasetRef da, db;
  std::optional<SpatialJoiner> joiner;
  RectF window;
  uint32_t nx, ny;
  size_t k;
  float qx, qy;

  explicit Trial(uint64_t seed) {
    Random rng(seed);
    const RectF region(0, 0, 100, 100);
    const uint64_t na = 100 + rng.Uniform(400);
    const uint64_t nb = 100 + rng.Uniform(400);
    a = UniformRects(na, region, 1.0f + static_cast<float>(rng.UniformDouble(0, 3)),
                     seed * 7 + 1);
    b = UniformRects(nb, region, 1.0f + static_cast<float>(rng.UniformDouble(0, 3)),
                     seed * 7 + 2);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    joiner.emplace(&td.disk, JoinOptions());

    const float wx = static_cast<float>(rng.UniformDouble(0, 60));
    const float wy = static_cast<float>(rng.UniformDouble(0, 60));
    window = RectF(wx, wy, wx + 20 + static_cast<float>(rng.UniformDouble(0, 40)),
                   wy + 20 + static_cast<float>(rng.UniformDouble(0, 40)));
    nx = 4 + static_cast<uint32_t>(rng.Uniform(28));
    ny = 4 + static_cast<uint32_t>(rng.Uniform(28));
    k = 1 + static_cast<size_t>(rng.Uniform(20));
    qx = static_cast<float>(rng.UniformDouble(0, 100));
    qy = static_cast<float>(rng.UniformDouble(0, 100));
  }

  /// Applies one sweep configuration to a query under construction.
  template <typename Query>
  void Apply(Query& q, const Config& cfg,
             const std::shared_ptr<StorageFactory>& file_factory) const {
    q.Threads(cfg.threads).MemoryBytes(cfg.memory_bytes);
    if (cfg.file_backend) q.Storage(file_factory);
  }
};

std::shared_ptr<StorageFactory> FileFactory() {
  auto factory = TmpFileStorageFactory::Make();
  SJ_CHECK_OK(factory.status());
  return std::shared_ptr<StorageFactory>(std::move(*factory));
}

// ---------------------------------------------------------------------------
// Window scans: every configuration equals the brute-force selection.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, WindowScanAcrossConfigurations) {
  auto file_factory = FileFactory();
  for (uint64_t seed : {1u, 2u, 3u}) {
    Trial t(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    std::vector<PipeRow> expected;
    for (const RectF& r : t.a) {
      if (!r.Intersects(t.window)) continue;
      PipeRow row;
      row.rect = r;
      row.rect.id = 0;
      row.ids.push_back(r.id);
      expected.push_back(std::move(row));
    }
    expected = SortedByIds(std::move(expected));

    for (const Config& cfg : Sweep()) {
      SCOPED_TRACE(cfg.Name());
      CollectingRowSink sink;
      PipelineQuery q(*t.joiner);
      q.Input(JoinInput::FromStream(t.da)).Window(t.window);
      t.Apply(q, cfg, file_factory);
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(SortedByIds(sink.rows()), expected);
      EXPECT_EQ(stats->output_count, expected.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregate-by-cell over a join: identical rows in every configuration.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, JoinAggregateAcrossConfigurations) {
  auto file_factory = FileFactory();
  for (uint64_t seed : {4u, 5u, 6u}) {
    Trial t(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Oracle: windowed inputs -> brute-force pairs -> contact boxes ->
    // count aggregation (order-independent).
    std::vector<RectF> wa, wb;
    for (const RectF& r : t.a) {
      if (r.Intersects(t.window)) wa.push_back(r);
    }
    for (const RectF& r : t.b) {
      if (r.Intersects(t.window)) wb.push_back(r);
    }
    std::map<ObjectId, RectF> am, bm;
    for (const RectF& r : wa) am[r.id] = r;
    for (const RectF& r : wb) bm[r.id] = r;
    std::vector<PipeRow> join_rows;
    for (const IdPair& p : BruteForcePairs(wa, wb)) {
      PipeRow row;
      row.rect = JoinRowAdapter::ContactBox({am.at(p.a), bm.at(p.b)});
      row.ids = {p.a, p.b};
      join_rows.push_back(std::move(row));
    }
    const std::vector<PipeRow> expected =
        AggregateCountOracle(join_rows, t.window, t.nx, t.ny);

    std::optional<std::vector<PipeRow>> reference;
    for (const Config& cfg : Sweep()) {
      SCOPED_TRACE(cfg.Name());
      CollectingRowSink sink;
      PipelineQuery q(*t.joiner);
      q.Input(JoinInput::FromStream(t.da))
          .Input(JoinInput::FromStream(t.db))
          .Window(t.window)
          .AggregateByCell(AggregateMode::kCount, t.nx, t.ny, t.window);
      t.Apply(q, cfg, file_factory);
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();

      // Cell order is canonical, so rows match the oracle *exactly* and
      // every configuration produces the same vector.
      EXPECT_EQ(sink.rows(), expected);
      if (!reference.has_value()) {
        reference = sink.rows();
      } else {
        EXPECT_EQ(sink.rows(), *reference);
      }
      // Default-budget runs stay within their arbiter budget (tight
      // budgets may be floored above the request by design).
      if (cfg.memory_bytes >= (24u << 20)) {
        EXPECT_LE(stats->peak_memory_bytes, cfg.memory_bytes);
      }
      EXPECT_GT(stats->peak_memory_bytes, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Top-k over a join: the total order makes every configuration exact.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, JoinTopKAcrossConfigurations) {
  auto file_factory = FileFactory();
  for (uint64_t seed : {7u, 8u}) {
    Trial t(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    std::map<ObjectId, RectF> am, bm;
    for (const RectF& r : t.a) am[r.id] = r;
    for (const RectF& r : t.b) bm[r.id] = r;
    std::vector<PipeRow> join_rows;
    for (const IdPair& p : BruteForcePairs(t.a, t.b)) {
      PipeRow row;
      row.rect = JoinRowAdapter::ContactBox({am.at(p.a), bm.at(p.b)});
      row.ids = {p.a, p.b};
      join_rows.push_back(std::move(row));
    }
    const std::vector<PipeRow> expected =
        TopKOracle(join_rows, t.k, t.qx, t.qy);

    for (const Config& cfg : Sweep()) {
      SCOPED_TRACE(cfg.Name());
      CollectingRowSink sink;
      PipelineQuery q(*t.joiner);
      q.Input(JoinInput::FromStream(t.da))
          .Input(JoinInput::FromStream(t.db))
          .TopKByDistance(t.k, t.qx, t.qy);
      t.Apply(q, cfg, file_factory);
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(sink.rows(), expected);
    }
  }
}

// ---------------------------------------------------------------------------
// The full compose, one seed per configuration axis extreme: window ->
// join -> filter -> aggregate -> top-k.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, FullComposeAcrossConfigurations) {
  auto file_factory = FileFactory();
  Trial t(9);
  auto pred = [](const PipeRow& r) { return r.rect.Area() < 8.0; };

  std::vector<RectF> wa, wb;
  for (const RectF& r : t.a) {
    if (r.Intersects(t.window)) wa.push_back(r);
  }
  for (const RectF& r : t.b) {
    if (r.Intersects(t.window)) wb.push_back(r);
  }
  std::map<ObjectId, RectF> am, bm;
  for (const RectF& r : wa) am[r.id] = r;
  for (const RectF& r : wb) bm[r.id] = r;
  std::vector<PipeRow> join_rows;
  for (const IdPair& p : BruteForcePairs(wa, wb)) {
    PipeRow row;
    row.rect = JoinRowAdapter::ContactBox({am.at(p.a), bm.at(p.b)});
    row.ids = {p.a, p.b};
    if (pred(row)) join_rows.push_back(std::move(row));
  }
  const std::vector<PipeRow> expected = TopKOracle(
      AggregateCountOracle(join_rows, t.window, t.nx, t.ny), t.k, t.qx, t.qy);

  for (const Config& cfg : Sweep()) {
    SCOPED_TRACE(cfg.Name());
    CollectingRowSink sink;
    PipelineQuery q(*t.joiner);
    q.Input(JoinInput::FromStream(t.da))
        .Input(JoinInput::FromStream(t.db))
        .Window(t.window)
        .Filter(pred, "small")
        .AggregateByCell(AggregateMode::kCount, t.nx, t.ny, t.window)
        .TopKByDistance(t.k, t.qx, t.qy);
    t.Apply(q, cfg, file_factory);
    auto stats = q.Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(sink.rows(), expected);
  }
}

// ---------------------------------------------------------------------------
// Forced filter algorithms x threads x refinement x predicate: the rows of
// every run are the contact boxes of the inputs' *original* MBRs, also
// for ε-distance pairs, whose filter step joined ε-expanded copies of one
// side and whose MBRs may be disjoint. The thread count changes nothing,
// row order included.
// ---------------------------------------------------------------------------

/// Relations with exact geometry (ids are positions, as FeatureStore
/// requires) and an R-tree over each, on one disk.
struct IndexedTrial {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<std::vector<RectF>> rects;
  std::vector<std::vector<Segment>> geoms;
  std::vector<DatasetRef> refs;
  std::vector<std::unique_ptr<FeatureStore>> stores;
  std::vector<std::unique_ptr<RTree>> trees;
  std::optional<SpatialJoiner> joiner;

  IndexedTrial(uint64_t seed, const std::vector<uint64_t>& sizes,
               const RectF& region, float max_side) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      const std::string name = "in" + std::to_string(i);
      rects.push_back(UniformRects(sizes[i], region, max_side, seed * 7 + i));
      geoms.push_back(SegmentsForRects(rects.back()));
      refs.push_back(MakeDataset(&td, rects.back(), name, &keep));
      keep.push_back(td.NewPager(name + ".geom"));
      auto store = FeatureStore::Build(keep.back().get(), geoms.back(), name);
      SJ_CHECK_OK(store.status());
      stores.push_back(std::make_unique<FeatureStore>(std::move(*store)));
      keep.push_back(td.NewPager(name + ".tree"));
      Pager* tree_pager = keep.back().get();
      keep.push_back(td.NewPager(name + ".scratch"));
      auto tree = RTree::BulkLoadHilbert(tree_pager, refs.back().range,
                                         keep.back().get(), RTreeParams(),
                                         size_t{1} << 22);
      SJ_CHECK_OK(tree.status());
      trees.push_back(std::make_unique<RTree>(std::move(*tree)));
    }
    joiner.emplace(&td.disk, JoinOptions());
  }

  JoinInput Input(size_t i, bool indexed) const {
    return indexed ? JoinInput::FromRTree(trees[i].get())
                   : JoinInput::FromStream(refs[i]);
  }
};

/// The pairwise oracle: candidates of the MBR filter (for kDistanceWithin,
/// `expanded_side` is the input whose MBRs the filter grows by ε), kept
/// when refinement is off or the exact predicate holds; each row is the
/// contact box of the two original MBRs. Sets `*disjoint` when some row's
/// MBRs do not intersect.
std::vector<PipeRow> PairRowsOracle(const IndexedTrial& t,
                                    const PredicateSpec& pred, bool refine,
                                    size_t expanded_side, bool* disjoint) {
  const bool within = pred.kind == Predicate::kDistanceWithin;
  std::vector<PipeRow> rows;
  for (const RectF& ra : t.rects[0]) {
    for (const RectF& rb : t.rects[1]) {
      const RectF fa =
          within && expanded_side == 0 ? ExpandRectForDistance(ra, pred.epsilon)
                                       : ra;
      const RectF fb =
          within && expanded_side == 1 ? ExpandRectForDistance(rb, pred.epsilon)
                                       : rb;
      if (!fa.Intersects(fb)) continue;
      if (refine &&
          !EvaluateExactPredicate(pred, t.geoms[0][ra.id], t.geoms[1][rb.id])) {
        continue;
      }
      if (!ra.Intersects(rb)) *disjoint = true;
      PipeRow row;
      row.rect = JoinRowAdapter::ContactBox({ra, rb});
      row.ids = {ra.id, rb.id};
      rows.push_back(std::move(row));
    }
  }
  return SortedByIds(std::move(rows));
}

TEST(PipelineDifferential, ForcedAlgorithmRowsAreOriginalContactBoxes) {
  IndexedTrial t(10, {400, 300}, RectF(0, 0, 100, 100), 3.0f);
  const PredicateSpec intersects;
  PredicateSpec within;
  within.kind = Predicate::kDistanceWithin;
  within.epsilon = 2.0;
  for (const PredicateSpec& pred : {intersects, within}) {
    for (const bool refine : {false, true}) {
      SCOPED_TRACE(std::string(ToString(pred.kind)) +
                   (refine ? " refined" : " filter only"));
      // Both inputs indexed: the filter expands input 1.
      bool disjoint = false;
      const std::vector<PipeRow> expected =
          PairRowsOracle(t, pred, refine, /*expanded_side=*/1, &disjoint);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(disjoint, pred.kind == Predicate::kDistanceWithin);
      for (const JoinAlgorithm algo :
           {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM, JoinAlgorithm::kST,
            JoinAlgorithm::kPQ}) {
        std::optional<std::vector<PipeRow>> serial;
        for (const uint32_t threads : {1u, 4u}) {
          SCOPED_TRACE(std::string(ToString(algo)) +
                       " threads=" + std::to_string(threads));
          CollectingRowSink sink;
          PipelineQuery q(*t.joiner);
          q.Input(t.Input(0, true))
              .Input(t.Input(1, true))
              .WithFeatures(0, t.stores[0].get())
              .WithFeatures(1, t.stores[1].get())
              .Predicate(pred.kind, pred.epsilon)
              .Algorithm(algo)
              .Refine(refine)
              .Threads(threads);
          auto stats = q.Run(&sink);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          EXPECT_EQ(stats->algorithm, algo);
          EXPECT_EQ(SortedByIds(sink.rows()), expected);
          EXPECT_EQ(stats->output_count, expected.size());
          if (!serial.has_value()) {
            serial = sink.rows();
          } else {
            EXPECT_EQ(sink.rows(), *serial);
          }
        }
      }
    }
  }
}

// The ε-expanded side is input 0 when only input 1 is indexed.
TEST(PipelineDifferential, DistanceRowsWhenTheStreamSideIsExpanded) {
  IndexedTrial t(12, {300, 300}, RectF(0, 0, 100, 100), 3.0f);
  PredicateSpec within;
  within.kind = Predicate::kDistanceWithin;
  within.epsilon = 2.0;
  bool disjoint = false;
  const std::vector<PipeRow> expected =
      PairRowsOracle(t, within, /*refine=*/false, /*expanded_side=*/0,
                     &disjoint);
  ASSERT_TRUE(disjoint);
  for (const JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPQ}) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(ToString(algo)) +
                   " threads=" + std::to_string(threads));
      CollectingRowSink sink;
      PipelineQuery q(*t.joiner);
      q.Input(t.Input(0, false))
          .Input(t.Input(1, true))
          .Predicate(within.kind, within.epsilon)
          .Algorithm(algo)
          .Threads(threads);
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(SortedByIds(sink.rows()), expected);
    }
  }
}

// A refined k-way pipeline: rows are the contact boxes (the common
// intersection) of the member MBRs of every tuple whose members' exact
// geometries pairwise intersect, at every thread count. (The serial chain
// and the strip-parallel path deliver tuples in different orders.)
TEST(PipelineDifferential, KWayRefinedRowsAcrossThreads) {
  IndexedTrial t(13, {300, 300, 300}, RectF(0, 0, 40, 40), 3.0f);
  std::vector<PipeRow> expected;
  for (const RectF& ra : t.rects[0]) {
    for (const RectF& rb : t.rects[1]) {
      if (!ra.Intersects(rb) ||
          !SegmentsIntersect(t.geoms[0][ra.id], t.geoms[1][rb.id])) {
        continue;
      }
      for (const RectF& rc : t.rects[2]) {
        const RectF box = JoinRowAdapter::ContactBox({ra, rb, rc});
        const bool common = std::max({ra.xlo, rb.xlo, rc.xlo}) <=
                                std::min({ra.xhi, rb.xhi, rc.xhi}) &&
                            std::max({ra.ylo, rb.ylo, rc.ylo}) <=
                                std::min({ra.yhi, rb.yhi, rc.yhi});
        if (!common ||
            !SegmentsIntersect(t.geoms[0][ra.id], t.geoms[2][rc.id]) ||
            !SegmentsIntersect(t.geoms[1][rb.id], t.geoms[2][rc.id])) {
          continue;
        }
        PipeRow row;
        row.rect = box;
        row.ids = {ra.id, rb.id, rc.id};
        expected.push_back(std::move(row));
      }
    }
  }
  expected = SortedByIds(std::move(expected));
  ASSERT_FALSE(expected.empty());

  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CollectingRowSink sink;
    PipelineQuery q(*t.joiner);
    for (size_t i = 0; i < 3; ++i) {
      q.Input(t.Input(i, false)).WithFeatures(i, t.stores[i].get());
    }
    q.Refine(true).Threads(threads);
    auto stats = q.Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(SortedByIds(sink.rows()), expected);
    EXPECT_EQ(stats->output_count, expected.size());
  }
}

}  // namespace
}  // namespace sj
