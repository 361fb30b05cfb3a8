#include "join/sssj.h"

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

TEST(SSSJ, MatchesBruteForceOnClusteredData) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 1000, 1000);
  const auto a = ClusteredRects(3000, region, 10, 20.0f, 3.0f, 1);
  const auto b = ClusteredRects(2500, region, 10, 20.0f, 3.0f, 2);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);

  CollectingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
}

TEST(SSSJ, EmptyInputs) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const DatasetRef empty = MakeDataset(&td, {}, "e", &keep);
  const DatasetRef one =
      MakeDataset(&td, {RectF(0, 0, 1, 1, 7)}, "o", &keep);
  CountingSink sink;
  auto stats = SSSJJoin(empty, one, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->output_count, 0u);
}

TEST(SSSJ, ComputesExtentWhenMissing) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(500, RectF(0, 0, 50, 50), 2.0f, 3);
  const auto b = UniformRects(500, RectF(0, 0, 50, 50), 2.0f, 4);
  DatasetRef da = MakeDataset(&td, a, "a", &keep);
  DatasetRef db = MakeDataset(&td, b, "b", &keep);
  da.extent = RectF::Empty();  // Force the extra extent scan.
  db.extent = RectF::Empty();
  CollectingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
}

TEST(SSSJ, IoPassStructureMatchesPaper) {
  // "SSSJ performs two sequential read passes, one non-sequential read
  // pass (while merging), and two sequential write passes over the data."
  // Machine 2's two-segment disk cache cannot track the many merge-input
  // runs, so the merge pass is genuinely non-sequential there.
  TestDisk td(MachineModel::Machine2());
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(80000, RectF(0, 0, 1000, 1000), 0.5f, 5);
  const auto b = UniformRects(80000, RectF(0, 0, 1000, 1000), 0.5f, 6);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  td.disk.ResetStats();

  JoinOptions options;
  options.memory_bytes = 1 << 20;  // Small memory so sorting forms many runs.
  CountingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, options, &sink);
  ASSERT_TRUE(stats.ok());

  const uint64_t data_pages = 2 * ((80000 + 408) / 409);
  // 3 read passes (input, merge, sorted scan), 2 write passes (runs,
  // sorted). Extents are known, so no extra scan.
  EXPECT_NEAR(static_cast<double>(stats->disk.pages_read), 3.0 * data_pages,
              0.1 * data_pages);
  EXPECT_NEAR(static_cast<double>(stats->disk.pages_written),
              2.0 * data_pages, 0.1 * data_pages);
}

TEST(SSSJ, FusedVariantSavesAPassAndAgrees) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(40000, RectF(0, 0, 500, 500), 0.5f, 7);
  const auto b = UniformRects(40000, RectF(0, 0, 500, 500), 0.5f, 8);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);

  JoinOptions options;
  options.memory_bytes = 1 << 20;
  CountingSink plain;
  auto stats_plain = SSSJJoin(da, db, &td.disk, options, &plain);
  ASSERT_TRUE(stats_plain.ok());

  options.fuse_merge_sweep = true;
  CountingSink fused;
  auto stats_fused = SSSJJoin(da, db, &td.disk, options, &fused);
  ASSERT_TRUE(stats_fused.ok());

  EXPECT_EQ(plain.count(), fused.count());
  EXPECT_LT(stats_fused->disk.pages_read, stats_plain->disk.pages_read);
  EXPECT_LT(stats_fused->disk.pages_written, stats_plain->disk.pages_written);
}

TEST(SSSJ, FusedRunsBeyondOneMergePassAreAnError) {
  // The fused variant merges its runs straight into the sweep, so it
  // needs them all in one merge pass; a budget that forms more runs than
  // the fan-in is reported, not an abort. The unfused join handles it.
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  // 128 KiB still fits the sweep grant (no strip fallback), but each
  // sorter's 64 KiB forms ~60 runs of `a` for a fan-in of 7.
  const auto a = UniformRects(95000, RectF(0, 0, 500, 500), 0.5f, 11);
  const auto b = UniformRects(5000, RectF(0, 0, 500, 500), 0.5f, 12);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);

  JoinOptions options;
  options.memory_bytes = 128u << 10;
  options.fuse_merge_sweep = true;
  CountingSink fused;
  auto stats = SSSJJoin(da, db, &td.disk, options, &fused);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("131072-byte budget"),
            std::string::npos)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("runs"), std::string::npos);

  options.fuse_merge_sweep = false;
  CountingSink plain;
  auto plain_stats = SSSJJoin(da, db, &td.disk, options, &plain);
  ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();
  EXPECT_GT(plain_stats->sort_merge_passes, 1u);
  EXPECT_EQ(plain.count(), BruteForcePairs(a, b).size());
}

TEST(SSSJ, SweepStructureStaysSmall) {
  // The square-root rule: the sweep structure is tiny relative to the
  // input (Table 3's "Sweep Structure" row).
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = ClusteredRects(50000, RectF(0, 0, 1000, 1000), 40, 10.0f,
                                0.5f, 9);
  const auto b = ClusteredRects(50000, RectF(0, 0, 1000, 1000), 40, 10.0f,
                                0.5f, 10);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  CountingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  const size_t input_bytes = (a.size() + b.size()) * sizeof(RectF);
  EXPECT_LT(stats->max_sweep_bytes, input_bytes / 10);
}

}  // namespace
}  // namespace sj
