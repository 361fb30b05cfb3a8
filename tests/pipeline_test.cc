// The physical-operator pipeline subsystem (src/op/ + PipelineQuery):
// operator semantics against brute-force oracles, builder validation,
// the costed Explain tree, and memory governance — the pipeline's peak
// stays within its arbiter budget and the aggregation spill path is
// bit-identical to the in-memory path.

#include "core/pipeline_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "op/operators.h"
#include "op/row.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

// ---------------------------------------------------------------------------
// Oracles (brute-force reimplementations of the operator semantics)
// ---------------------------------------------------------------------------

/// Same truncate-then-clamp cell arithmetic as AggregateByCellOp and
/// GridHistogram::CellRange.
uint32_t CellOf(float v, float lo, float w, uint32_t n) {
  const float rel = (v - lo) / w;
  if (!(rel > 0.0f)) return 0;
  return static_cast<uint32_t>(std::min(rel, static_cast<float>(n - 1)));
}

/// Brute-force AggregateByCell: flat cell index -> aggregate, zero cells
/// dropped (EmitBand skips them). Rows must be passed in pipeline arrival
/// order so per-cell float accumulation matches exactly.
std::map<uint64_t, double> AggregateOracle(const std::vector<PipeRow>& rows,
                                           AggregateMode mode,
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
    const double v = mode == AggregateMode::kCount ? 1.0 : row.value;
    for (uint32_t iy = y0; iy <= y1; ++iy) {
      for (uint32_t ix = x0; ix <= x1; ++ix) {
        cells[uint64_t{iy} * nx + ix] += v;
      }
    }
  }
  for (auto it = cells.begin(); it != cells.end();) {
    it = (it->second == 0.0) ? cells.erase(it) : std::next(it);
  }
  return cells;
}

/// Same last-cell-closes-on-the-extent tiling as AggregateByCellOp.
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

/// The aggregate's output rows (ascending flat cell order), built from an
/// oracle cell map.
std::vector<PipeRow> AggregateRowsOracle(const std::map<uint64_t, double>& cells,
                                         const RectF& extent, uint32_t nx,
                                         uint32_t ny) {
  std::vector<PipeRow> rows;
  for (const auto& [cell, v] : cells) {
    PipeRow row;
    const uint32_t ix = static_cast<uint32_t>(cell % nx);
    const uint32_t iy = static_cast<uint32_t>(cell / nx);
    row.rect = CellRectOracle(extent, nx, ny, ix, iy);
    row.ids.push_back(static_cast<ObjectId>(cell));
    row.value = v;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// TopKByDistanceOp's total order, replicated for the oracle.
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

std::vector<IdPair> RowPairs(const std::vector<PipeRow>& rows) {
  std::vector<IdPair> pairs;
  for (const PipeRow& r : rows) {
    EXPECT_EQ(r.ids.size(), 2u);
    pairs.push_back(IdPair{r.ids[0], r.ids[1]});
  }
  return pairs;
}

const OperatorStats* FindOp(const JoinStats& stats,
                            const std::string& prefix) {
  for (const OperatorStats& op : stats.operators) {
    if (op.name.rfind(prefix, 0) == 0) return &op;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

struct PipelineFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  DatasetRef da, db;
  std::optional<SpatialJoiner> joiner;

  explicit PipelineFixture(uint64_t na = 300, uint64_t nb = 250) {
    const RectF region(0, 0, 80, 80);
    a = UniformRects(na, region, 2.0f, 41);
    b = UniformRects(nb, region, 2.5f, 42);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    joiner.emplace(&td.disk, JoinOptions());
  }
};

// ---------------------------------------------------------------------------
// WindowScan source
// ---------------------------------------------------------------------------

TEST(WindowScanPipeline, MatchesBruteForceOnStream) {
  PipelineFixture f;
  const RectF window(10, 10, 40, 40);
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Window(window)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<ObjectId> expected;
  for (const RectF& r : f.a) {
    if (r.Intersects(window)) expected.push_back(r.id);
  }
  std::vector<ObjectId> got;
  for (const PipeRow& row : sink.rows()) {
    ASSERT_EQ(row.ids.size(), 1u);
    got.push_back(row.ids[0]);
    EXPECT_EQ(row.value, 1.0);
    EXPECT_EQ(row.rect.id, 0u);  // ids travel in `ids`, not the rect.
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(stats->output_count, expected.size());
  EXPECT_FALSE(stats->operators.empty());
  EXPECT_EQ(stats->operators.front().name, "WindowScan");
}

TEST(WindowScanPipeline, NoWindowScansEverything) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto stats =
      PipelineQuery(*f.joiner).Input(JoinInput::FromStream(f.da)).Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_count, f.a.size());
}

TEST(WindowScanPipeline, HistogramPrunesEmptyRegions) {
  // Data clustered in the lower-left corner of a wider extent.
  PipelineFixture f;
  const RectF extent(0, 0, 300, 300);
  GridHistogram hist(extent, 32, 32);
  for (const RectF& r : f.a) hist.Add(r);

  // A window in the empty region: the histogram proves it matches
  // nothing, so the scan emits nothing and reads nothing.
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .WithHistogram(0, &hist)
                   .Window(RectF(200, 200, 250, 250))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_count, 0u);
  const OperatorStats* scan = FindOp(*stats, "WindowScan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->pages_read, 0u);

  // An overlapping window returns the same rows with or without the
  // histogram (pruning is purely conservative).
  const RectF overlapping(5, 5, 30, 30);
  CollectingRowSink with_hist, without_hist;
  ASSERT_TRUE(PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .WithHistogram(0, &hist)
                  .Window(overlapping)
                  .Run(&with_hist)
                  .ok());
  ASSERT_TRUE(PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Window(overlapping)
                  .Run(&without_hist)
                  .ok());
  EXPECT_EQ(with_hist.rows(), without_hist.rows());
  EXPECT_FALSE(with_hist.rows().empty());
}

// ---------------------------------------------------------------------------
// Filter / Project / TopK over a scan source
// ---------------------------------------------------------------------------

TEST(PipelineOps, FilterKeepsExactlyTheMatchingRows) {
  PipelineFixture f;
  auto pred = [](const PipeRow& r) { return r.rect.Area() > 4.0; };
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Filter(pred, "area>4")
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  uint64_t expected = 0;
  for (const RectF& r : f.a) {
    if (static_cast<double>(r.xhi - r.xlo) * (r.yhi - r.ylo) > 4.0) expected++;
  }
  EXPECT_EQ(stats->output_count, expected);
  for (const PipeRow& row : sink.rows()) EXPECT_TRUE(pred(row));
  const OperatorStats* filter = FindOp(*stats, "Filter(area>4)");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->rows_in, f.a.size());
  EXPECT_EQ(filter->rows_out, expected);
}

TEST(PipelineOps, ProjectRewritesValues) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Project(
                       [](PipeRow r) {
                         r.value = r.rect.Area();
                         return r;
                       },
                       "value=area")
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(sink.rows().size(), f.a.size());
  for (const PipeRow& row : sink.rows()) {
    EXPECT_EQ(row.value, row.rect.Area());
  }
}

TEST(PipelineOps, TopKMatchesOracleAndIsSortedByDistance) {
  PipelineFixture f;
  const float qx = 37.5f, qy = 42.0f;
  const size_t k = 12;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .TopKByDistance(k, qx, qy)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // The oracle sorts the scan rows by the operator's own total order.
  std::vector<PipeRow> scan_rows;
  for (const RectF& r : f.a) {
    PipeRow row;
    row.rect = r;
    row.rect.id = 0;
    row.ids.push_back(r.id);
    scan_rows.push_back(std::move(row));
  }
  EXPECT_EQ(sink.rows(), TopKOracle(scan_rows, k, qx, qy));
  EXPECT_EQ(stats->output_count, k);

  // k larger than the input returns everything, still sorted.
  CollectingRowSink all;
  ASSERT_TRUE(PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .TopKByDistance(10000, qx, qy)
                  .Run(&all)
                  .ok());
  EXPECT_EQ(all.rows(), TopKOracle(scan_rows, 10000, qx, qy));
}

// ---------------------------------------------------------------------------
// AggregateByCell
// ---------------------------------------------------------------------------

TEST(AggregatePipeline, CountMatchesOracleExactly) {
  PipelineFixture f;
  const RectF extent(0, 0, 80, 80);
  const uint32_t nx = 16, ny = 12;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .AggregateByCell(AggregateMode::kCount, nx, ny, extent)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<PipeRow> scan_rows;
  for (const RectF& r : f.a) {
    PipeRow row;
    row.rect = r;
    row.rect.id = 0;
    row.ids.push_back(r.id);
    scan_rows.push_back(std::move(row));
  }
  const auto oracle =
      AggregateOracle(scan_rows, AggregateMode::kCount, extent, nx, ny);
  EXPECT_EQ(sink.rows(), AggregateRowsOracle(oracle, extent, nx, ny));
  EXPECT_FALSE(sink.rows().empty());
}

TEST(AggregatePipeline, SumAggregatesProjectedWeights) {
  PipelineFixture f;
  const RectF extent(0, 0, 80, 80);
  const uint32_t nx = 8, ny = 8;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Project(
                       [](PipeRow r) {
                         r.value = r.rect.Area();
                         return r;
                       },
                       "value=area")
                   .AggregateByCell(AggregateMode::kSum, nx, ny, extent)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<PipeRow> weighted;
  for (const RectF& r : f.a) {
    PipeRow row;
    row.rect = r;
    row.rect.id = 0;
    row.ids.push_back(r.id);
    row.value = row.rect.Area();
    weighted.push_back(std::move(row));
  }
  // Same arrival order => same per-cell accumulation order => exact.
  const auto oracle =
      AggregateOracle(weighted, AggregateMode::kSum, extent, nx, ny);
  EXPECT_EQ(sink.rows(), AggregateRowsOracle(oracle, extent, nx, ny));
}

TEST(AggregatePipeline, SpillPathIsBitIdenticalToInMemory) {
  PipelineFixture f(1500, 1);
  const RectF extent(0, 0, 80, 80);
  const uint32_t nx = 64, ny = 64;

  auto run = [&](size_t budget) {
    CollectingRowSink sink;
    auto stats = PipelineQuery(*f.joiner)
                     .Input(JoinInput::FromStream(f.da))
                     .AggregateByCell(AggregateMode::kCount, nx, ny, extent)
                     .MemoryBytes(budget)
                     .Run(&sink);
    SJ_CHECK_OK(stats.status());
    return std::make_pair(sink.rows(), *stats);
  };

  const auto [ample_rows, ample_stats] = run(64u << 20);
  const auto [tight_rows, tight_stats] = run(kMinMemoryBytes);

  // The tight run actually spilled; the ample one did not.
  const OperatorStats* tight_agg = FindOp(tight_stats, "AggregateByCell");
  const OperatorStats* ample_agg = FindOp(ample_stats, "AggregateByCell");
  ASSERT_NE(tight_agg, nullptr);
  ASSERT_NE(ample_agg, nullptr);
  EXPECT_GT(tight_agg->spill_pages, 0u);
  EXPECT_EQ(ample_agg->spill_pages, 0u);
  EXPECT_GT(tight_stats.disk.pages_written, ample_stats.disk.pages_written);

  // Results are bit-identical regardless of the budget.
  EXPECT_EQ(tight_rows, ample_rows);
  EXPECT_FALSE(ample_rows.empty());
}

// ---------------------------------------------------------------------------
// Join sources
// ---------------------------------------------------------------------------

TEST(JoinPipeline, RowsMatchBruteForcePairs) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const auto expected = BruteForcePairs(f.a, f.b);
  EXPECT_EQ(Sorted(RowPairs(sink.rows())), expected);
  EXPECT_EQ(stats->output_count, expected.size());
  EXPECT_GT(stats->candidate_count, 0u);
  EXPECT_NE(stats->algorithm, JoinAlgorithm::kAuto);

  // Row rects are the contact boxes of the joined MBRs.
  std::map<ObjectId, RectF> am, bm;
  for (const RectF& r : f.a) am[r.id] = r;
  for (const RectF& r : f.b) bm[r.id] = r;
  for (const PipeRow& row : sink.rows()) {
    RectF expected_rect =
        JoinRowAdapter::ContactBox({am.at(row.ids[0]), bm.at(row.ids[1])});
    EXPECT_EQ(row.rect, expected_rect);
    EXPECT_EQ(row.value, 1.0);
  }
}

TEST(JoinPipeline, KWayRowsMatchTripleOracle) {
  PipelineFixture f(150, 150);
  const RectF region(0, 0, 80, 80);
  const auto c = UniformRects(120, region, 3.0f, 43);
  const DatasetRef dc = MakeDataset(&f.td, c, "c", &f.keep);

  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Input(JoinInput::FromStream(dc))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Oracle: ordered triples whose three MBRs share a common point.
  std::vector<std::vector<ObjectId>> expected;
  for (const RectF& ra : f.a) {
    for (const RectF& rb : f.b) {
      if (!ra.Intersects(rb)) continue;
      for (const RectF& rc : c) {
        const float xlo = std::max({ra.xlo, rb.xlo, rc.xlo});
        const float xhi = std::min({ra.xhi, rb.xhi, rc.xhi});
        const float ylo = std::max({ra.ylo, rb.ylo, rc.ylo});
        const float yhi = std::min({ra.yhi, rb.yhi, rc.yhi});
        if (xlo <= xhi && ylo <= yhi) {
          expected.push_back({ra.id, rb.id, rc.id});
        }
      }
    }
  }
  std::vector<std::vector<ObjectId>> got;
  for (const PipeRow& row : sink.rows()) {
    EXPECT_EQ(row.ids.size(), 3u);
    got.push_back(row.ids);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(expected.empty());
}

TEST(JoinPipeline, FullComposeMatchesOracle) {
  PipelineFixture f;
  const RectF window(5, 5, 60, 60);
  const uint32_t nx = 10, ny = 10;
  const size_t k = 7;
  const float qx = 30.0f, qy = 30.0f;
  auto pred = [](const PipeRow& r) { return r.rect.Area() < 6.0; };

  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Window(window)
                   .Filter(pred, "small")
                   .AggregateByCell(AggregateMode::kCount, nx, ny, window)
                   .TopKByDistance(k, qx, qy)
                   .MemoryBytes(4u << 20)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Oracle: windowed inputs -> brute-force pairs -> contact boxes ->
  // filter -> aggregate -> top-k. Count aggregation is order-independent,
  // so the join's output order does not matter here.
  std::vector<RectF> wa, wb;
  for (const RectF& r : f.a) {
    if (r.Intersects(window)) wa.push_back(r);
  }
  for (const RectF& r : f.b) {
    if (r.Intersects(window)) wb.push_back(r);
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
  const auto cells =
      AggregateOracle(join_rows, AggregateMode::kCount, window, nx, ny);
  const auto expected =
      TopKOracle(AggregateRowsOracle(cells, window, nx, ny), k, qx, qy);
  EXPECT_EQ(sink.rows(), expected);
  EXPECT_EQ(expected.size(), k);

  // Memory governance: one arbiter spanned the join and the operators,
  // and the whole tree stayed within the budget.
  EXPECT_GT(stats->peak_memory_bytes, 0u);
  EXPECT_LE(stats->peak_memory_bytes, 4u << 20);
  bool saw_op_component = false;
  for (const MemoryComponentStats& c : stats->memory_components) {
    if (c.component.rfind("op.", 0) == 0) saw_op_component = true;
  }
  EXPECT_TRUE(saw_op_component);

  // Every operator in the chain reported stats (join + 3 downstream ops
  // + per-input scans folded in).
  EXPECT_NE(FindOp(*stats, "SpatialJoin["), nullptr);
  EXPECT_NE(FindOp(*stats, "Filter(small)"), nullptr);
  EXPECT_NE(FindOp(*stats, "AggregateByCell"), nullptr);
  EXPECT_NE(FindOp(*stats, "TopKByDistance"), nullptr);
}

TEST(JoinPipeline, RepeatedRunsAreIdentical) {
  PipelineFixture f(120, 100);
  auto query = [&]() {
    return PipelineQuery(*f.joiner)
        .Input(JoinInput::FromStream(f.da))
        .Input(JoinInput::FromStream(f.db))
        .AggregateByCell(AggregateMode::kCount, 8, 8, RectF(0, 0, 80, 80));
  };
  CollectingRowSink first, second;
  ASSERT_TRUE(query().Run(&first).ok());
  ASSERT_TRUE(query().Run(&second).ok());
  EXPECT_EQ(first.rows(), second.rows());
  EXPECT_FALSE(first.rows().empty());
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

TEST(PipelineExplain, PrintsTheCostedOperatorTree) {
  PipelineFixture f;
  auto plan = PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Input(JoinInput::FromStream(f.db))
                  .Window(RectF(5, 5, 60, 60))
                  .Filter([](const PipeRow&) { return true; }, "always")
                  .AggregateByCell(AggregateMode::kCount, 16, 16)
                  .TopKByDistance(8, 30, 30)
                  .Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EXPECT_TRUE(plan->has_join);
  EXPECT_NE(plan->join.algorithm, JoinAlgorithm::kAuto);
  EXPECT_GT(plan->total_cost_seconds, 0.0);

  // Root-first: the sink-most operator is the top-k.
  ASSERT_FALSE(plan->operators.empty());
  EXPECT_EQ(plan->operators.front().name, "TopKByDistance");

  const std::string tree = plan->Describe();
  for (const char* label :
       {"TopKByDistance", "AggregateByCell", "Filter(always)", "SpatialJoin[",
        "WindowScan"}) {
    EXPECT_NE(tree.find(label), std::string::npos) << tree;
  }

  // The memory plan merges the join's grants with the operators' own.
  bool saw_join_grant = false, saw_op_grant = false;
  for (const MemoryGrantSpec& g : plan->memory.grants) {
    if (g.component.rfind("op.", 0) == 0) saw_op_grant = true;
    if (g.component.rfind("op.", 0) != 0) saw_join_grant = true;
  }
  EXPECT_TRUE(saw_op_grant);
  EXPECT_TRUE(saw_join_grant);

  // Structured form carries the tree too.
  bool saw_kv = false;
  for (const auto& [key, value] : plan->ToKeyValues()) {
    if (key == "op.0.name") {
      EXPECT_EQ(value, "TopKByDistance");
      saw_kv = true;
    }
  }
  EXPECT_TRUE(saw_kv);
}

TEST(PipelineExplain, ScanSourceHasNoJoinDecision) {
  PipelineFixture f;
  auto plan = PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Window(RectF(10, 10, 40, 40))
                  .AggregateByCell(AggregateMode::kCount, 8, 8)
                  .Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->has_join);
  EXPECT_NE(plan->Describe().find("WindowScan"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(PipelineValidation, BuilderErrorsAreInvalidArgument) {
  PipelineFixture f;
  CollectingRowSink sink;

  // No inputs.
  {
    auto s = PipelineQuery(*f.joiner).Run(&sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
  // A scan source takes no join predicate.
  {
    auto s = PipelineQuery(*f.joiner)
                 .Input(JoinInput::FromStream(f.da))
                 .Predicate(Predicate::kDistanceWithin, 1.0)
                 .Run(&sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
  // Degenerate aggregate grid.
  {
    auto s = PipelineQuery(*f.joiner)
                 .Input(JoinInput::FromStream(f.da))
                 .AggregateByCell(AggregateMode::kCount, 0, 4)
                 .Run(&sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
  // k = 0.
  {
    auto s = PipelineQuery(*f.joiner)
                 .Input(JoinInput::FromStream(f.da))
                 .TopKByDistance(0, 1, 1)
                 .Run(&sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
  // Histogram attached to a nonexistent input.
  {
    GridHistogram hist(RectF(0, 0, 80, 80), 4, 4);
    auto s = PipelineQuery(*f.joiner)
                 .Input(JoinInput::FromStream(f.da))
                 .WithHistogram(5, &hist)
                 .Run(&sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
  // Aggregate over an input with no resolvable extent (and no window or
  // explicit extent to fall back to).
  {
    DatasetRef no_extent = f.da;
    no_extent.extent = RectF::Empty();
    auto s = PipelineQuery(*f.joiner)
                 .Input(JoinInput::FromStream(no_extent))
                 .AggregateByCell(AggregateMode::kCount, 4, 4)
                 .Run(&sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
  // Forced algorithm with three inputs (k-way plans its own chain).
  {
    auto s = PipelineQuery(*f.joiner)
                 .Input(JoinInput::FromStream(f.da))
                 .Input(JoinInput::FromStream(f.db))
                 .Input(JoinInput::FromStream(f.da))
                 .Algorithm(JoinAlgorithm::kPBSM)
                 .Run(&sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PipelineValidation, BudgetBelowFloorIsFailedPrecondition) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto s = PipelineQuery(*f.joiner)
               .Input(JoinInput::FromStream(f.da))
               .Input(JoinInput::FromStream(f.db))
               .MemoryBytes(kMinMemoryBytes - 1)
               .Run(&sink);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kFailedPrecondition);

  auto plan = PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Input(JoinInput::FromStream(f.db))
                  .MemoryBytes(kMinMemoryBytes - 1)
                  .Explain();
  EXPECT_FALSE(plan.ok());
}

// ---------------------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------------------

TEST(PipelineStatsTest, DescribeAndKeyValuesAreStructured) {
  PipelineFixture f(100, 80);
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .AggregateByCell(AggregateMode::kCount, 8, 8,
                                    RectF(0, 0, 80, 80))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_FALSE(stats->Describe().empty());
  EXPECT_FALSE(stats->Describe(f.td.disk.machine()).empty());
  bool saw_output = false, saw_op = false;
  for (const auto& [key, value] : stats->ToKeyValues()) {
    if (key == "output_count") {
      EXPECT_EQ(value, std::to_string(stats->output_count));
      saw_output = true;
    }
    if (key.rfind("op.", 0) == 0) saw_op = true;
  }
  EXPECT_TRUE(saw_output);
  EXPECT_TRUE(saw_op);
  EXPECT_GT(stats->ObservedSeconds(f.td.disk.machine()), 0.0);
}

}  // namespace
}  // namespace sj
