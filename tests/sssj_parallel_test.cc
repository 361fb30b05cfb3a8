// The banded SSSJ sweep (sweep/banded_sweep.h) at every thread count must
// be the serial sweep: the same pair *sequence* (not just the same set),
// the same output count and sweep footprint, and bit-identical modeled
// I/O — fused and unfused, on memory and file scratch, on a private team
// and on a shared pool whose only worker is blocked.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/memory_arbiter.h"
#include "datagen/synthetic.h"
#include "datagen/tiger_gen.h"
#include "io/storage.h"
#include "join/sssj.h"
#include "sweep/banded_sweep.h"
#include "sweep/sweep_join.h"
#include "test_util.h"
#include "util/random.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::ExpectSameDisk;
using testing_util::MakeDataset;
using testing_util::SaturatedPool;
using testing_util::Sorted;
using testing_util::SweepGrant;
using testing_util::TestDisk;

struct Outcome {
  std::vector<IdPair> pairs;  // In emission order.
  JoinStats stats;
};

/// Runs SSSJ with a strict arbiter unless `strict` is false (inputs that
/// defeat the sweep grant's square-root estimate on purpose).
Outcome RunSSSJ(const std::vector<RectF>& a, const std::vector<RectF>& b,
                JoinOptions options, bool strict = true) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  td.disk.ResetStats();
  options.strict_memory_accounting = strict;
  CollectingSink sink;
  Result<JoinStats> stats = SSSJJoin(da, db, &td.disk, options, &sink);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  Outcome out;
  out.pairs = sink.pairs();
  if (stats.ok()) out.stats = *stats;
  return out;
}

void ExpectSameRun(const Outcome& got, const Outcome& want,
                   const std::string& what, bool strict = true) {
  EXPECT_EQ(got.pairs, want.pairs) << what;  // Sequence, not set.
  EXPECT_EQ(got.stats.output_count, want.stats.output_count) << what;
  EXPECT_EQ(got.stats.max_sweep_bytes, want.stats.max_sweep_bytes) << what;
  EXPECT_EQ(got.stats.sweep_strips_collapsed,
            want.stats.sweep_strips_collapsed)
      << what;
  ExpectSameDisk(got.stats.disk, want.stats.disk, what);
  const auto [used, granted] = SweepGrant(got.stats);
  EXPECT_GT(granted, 0u) << what;
  if (strict) {
    EXPECT_LE(used, granted) << what;
  }
}

TEST(SSSJParallel, BandedSweepIsTheSerialSweepAcrossTheGrid) {
  TigerGenerator gen(91);
  std::vector<RectF> a, b;
  gen.GenerateRoads(12000, &a);
  gen.GenerateHydro(6000, &b);
  Result<std::unique_ptr<TmpFileStorageFactory>> files =
      TmpFileStorageFactory::Make();
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  const std::shared_ptr<StorageFactory> file_storage =
      std::move(files).value();

  for (const bool fused : {false, true}) {
    for (const bool on_files : {false, true}) {
      JoinOptions base;
      base.memory_bytes = 1 << 20;
      base.fuse_merge_sweep = fused;
      if (on_files) base.storage = file_storage;
      const Outcome reference = RunSSSJ(a, b, base);
      ASSERT_FALSE(reference.pairs.empty());
      EXPECT_EQ(Sorted(reference.pairs), BruteForcePairs(a, b));
      EXPECT_EQ(reference.stats.sweep_bands, 1u);
      for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        for (const bool shared : {false, true}) {
          SaturatedPool saturated;
          JoinOptions options = base;
          options.num_threads = threads;
          if (shared) options.worker_pool = saturated.get();
          const Outcome got = RunSSSJ(a, b, options);
          const std::string what =
              std::string(fused ? "fused" : "unfused") +
              (on_files ? " files" : " memory") + " threads=" +
              std::to_string(threads) + (shared ? " saturated pool" : "");
          ExpectSameRun(got, reference, what);
          EXPECT_EQ(got.stats.sweep_bands, threads) << what;
        }
      }
    }
  }
}

// Adversarial shapes, each checked against brute force and across thread
// counts. Some keep far more rectangles active than the sweep grant's
// square-root estimate, so the arbiter records rather than aborts.
void ExpectThreadInvariant(const std::vector<RectF>& a,
                           const std::vector<RectF>& b,
                           uint32_t expected_bands_at_4) {
  const Outcome reference = RunSSSJ(a, b, JoinOptions(), /*strict=*/false);
  EXPECT_EQ(Sorted(reference.pairs), BruteForcePairs(a, b));
  for (const uint32_t threads : {2u, 4u, 8u}) {
    JoinOptions options;
    options.num_threads = threads;
    const Outcome got = RunSSSJ(a, b, options, /*strict=*/false);
    ExpectSameRun(got, reference, "threads=" + std::to_string(threads),
                  /*strict=*/false);
    if (threads == 4) {
      EXPECT_EQ(got.stats.sweep_bands, expected_bands_at_4);
    }
  }
}

TEST(SSSJParallel, AllRectanglesInOneStrip) {
  // Two far corners fix the extent; everything else sits in one strip.
  std::vector<RectF> a = UniformRects(3000, RectF(500, 0, 500.5f, 1000),
                                      0.3f, 5);
  std::vector<RectF> b = UniformRects(3000, RectF(500, 0, 500.5f, 1000),
                                      0.3f, 6);
  a.push_back(RectF(0, 0, 0.1f, 0.1f, 100000));
  b.push_back(RectF(999.9f, 999.9f, 1000, 1000, 100000));
  ExpectThreadInvariant(a, b, 4);
}

TEST(SSSJParallel, RectanglesSpanningEveryBand) {
  // Rows across the whole extent crossed with columns: every pair meets,
  // and every row is an event in every band.
  std::vector<RectF> rows, cols;
  for (ObjectId i = 0; i < 60; ++i) {
    rows.push_back(RectF(0, static_cast<float>(i * 10), 1000,
                         static_cast<float>(i * 10 + 5), i));
    cols.push_back(RectF(static_cast<float>(i * 16), 0,
                         static_cast<float>(i * 16 + 3), 600, i));
  }
  ExpectThreadInvariant(rows, cols, 4);
}

TEST(SSSJParallel, DegenerateExtentRunsOneBand) {
  // Zero-width extent: the striping collapses, so the sweep runs one band
  // whatever the thread count.
  std::vector<RectF> a, b;
  for (ObjectId i = 0; i < 500; ++i) {
    a.push_back(RectF(5, static_cast<float>(i), 5, static_cast<float>(i) + 2,
                      i));
    b.push_back(RectF(5, static_cast<float>(i) + 0.5f, 5,
                      static_cast<float>(i) + 1, i));
  }
  ExpectThreadInvariant(a, b, 1);
  JoinOptions options;
  options.num_threads = 4;
  EXPECT_TRUE(RunSSSJ(a, b, options).stats.sweep_strips_collapsed);
}

TEST(SSSJParallel, NonFiniteExtentRunsOneBand) {
  std::vector<RectF> a = UniformRects(400, RectF(0, 0, 100, 100), 2.0f, 7);
  std::vector<RectF> b = UniformRects(400, RectF(0, 0, 100, 100), 2.0f, 8);
  const float inf = std::numeric_limits<float>::infinity();
  a.push_back(RectF(-inf, 50, 10, 51, 100000));
  ExpectThreadInvariant(a, b, 1);
}

TEST(SSSJParallel, OneEmptySide) {
  const std::vector<RectF> a =
      UniformRects(2000, RectF(0, 0, 100, 100), 2.0f, 9);
  ExpectThreadInvariant(a, {}, 4);
  ExpectThreadInvariant({}, a, 4);
}

TEST(SSSJParallel, TiesOnYLo) {
  // Whole rows of rectangles share a ylo, across both inputs.
  std::vector<RectF> a, b;
  for (ObjectId i = 0; i < 4000; ++i) {
    const float x = static_cast<float>((i * 37) % 1000);
    const float y = static_cast<float>(i % 20) * 5;
    a.push_back(RectF(x, y, x + 3, y + 6, i));
    b.push_back(RectF(x + 1, y, x + 2, y + 1, i));
  }
  ExpectThreadInvariant(a, b, 4);
}

// BandedSweepJoin on its own: it reproduces SweepJoinWithKind's
// pair sequence for both structures, and its own footprint at every band
// count, with pair rings small enough to stall the bands.
TEST(SSSJParallel, BandedSweepJoinMatchesSweepJoinWithKind) {
  TigerGenerator gen(17);
  std::vector<RectF> a, b;
  gen.GenerateRoads(20000, &a);
  gen.GenerateHydro(8000, &b);
  std::sort(a.begin(), a.end(), OrderByYLo());
  std::sort(b.begin(), b.end(), OrderByYLo());
  for (const SweepStructureKind kind :
       {SweepStructureKind::kStriped, SweepStructureKind::kForward}) {
    std::vector<IdPair> want;
    VectorRectSource sa(&a), sb(&b);
    const SweepRunStats serial = SweepJoinWithKind(
        kind, gen.region(), 1024, sa, sb,
        [&](const RectF& x, const RectF& y) { want.push_back({x.id, y.id}); });
    SweepRunStats one_band;
    for (const uint32_t threads : {1u, 3u, 4u}) {
      for (const size_t buffer : {size_t{0}, size_t{256} << 10,
                                  size_t{4} << 20}) {
        BandedSweepConfig config;
        config.kind = kind;
        config.extent = gen.region();
        config.threads = threads;
        config.buffer_bytes = buffer;
        std::vector<IdPair> got;
        VectorRectSource ga(&a), gb(&b);
        const BandedSweepStats stats = BandedSweepJoin(
            config, ga, gb,
            [&](ObjectId x, ObjectId y) { got.push_back({x, y}); });
        const std::string what = std::string(ToString(kind)) + " threads=" +
                                 std::to_string(threads) + " buffer=" +
                                 std::to_string(buffer);
        EXPECT_EQ(got, want) << what;
        EXPECT_EQ(stats.output_count, serial.output_count) << what;
        if (threads == 1 && buffer == 0) one_band = stats;
        EXPECT_EQ(stats.max_structure_bytes, one_band.max_structure_bytes)
            << what;
        EXPECT_EQ(stats.max_active, one_band.max_active) << what;
        // Purges at fixed events keep the footprint near the serial
        // structure's amortized purges.
        EXPECT_LE(stats.max_active, 2 * serial.max_active + 64) << what;
        // 256 KiB holds three bands with the smallest rings, which fill
        // and stall the bands on this pair-dense data.
        const bool banded = kind == SweepStructureKind::kStriped &&
                            threads > 1 && buffer >= (size_t{256} << 10);
        EXPECT_EQ(stats.bands > 1, banded) << what;
      }
    }
  }
}

// A caller that takes rectangles gets SweepJoinWithKind's pairs with both
// MBRs, in the same order, through the bands' rings of partner
// rectangles, the smallest ones included.
TEST(SSSJParallel, BandedSweepJoinHandsOverRectangles) {
  TigerGenerator gen(17);
  std::vector<RectF> a, b;
  gen.GenerateRoads(20000, &a);
  gen.GenerateHydro(8000, &b);
  std::sort(a.begin(), a.end(), OrderByYLo());
  std::sort(b.begin(), b.end(), OrderByYLo());
  using RectPair = std::pair<RectF, RectF>;
  for (const SweepStructureKind kind :
       {SweepStructureKind::kStriped, SweepStructureKind::kForward}) {
    std::vector<RectPair> want;
    VectorRectSource sa(&a), sb(&b);
    SweepJoinWithKind(
        kind, gen.region(), 1024, sa, sb,
        [&](const RectF& x, const RectF& y) { want.emplace_back(x, y); });
    ASSERT_FALSE(want.empty());
    for (const uint32_t threads : {1u, 2u, 4u}) {
      for (const size_t buffer : {size_t{0}, size_t{512} << 10,
                                  size_t{4} << 20}) {
        BandedSweepConfig config;
        config.kind = kind;
        config.extent = gen.region();
        config.threads = threads;
        config.buffer_bytes = buffer;
        std::vector<RectPair> got;
        VectorRectSource ga(&a), gb(&b);
        const BandedSweepStats stats = BandedSweepJoin(
            config, ga, gb,
            [&](const RectF& x, const RectF& y) { got.emplace_back(x, y); });
        const std::string what = std::string(ToString(kind)) + " threads=" +
                                 std::to_string(threads) + " buffer=" +
                                 std::to_string(buffer);
        EXPECT_TRUE(got == want) << what;
        EXPECT_EQ(stats.output_count, want.size()) << what;
        // 512 KiB holds up to four bands with the smallest rings of
        // 20-byte rectangles.
        const bool banded = kind == SweepStructureKind::kStriped &&
                            threads > 1 && buffer >= (size_t{512} << 10);
        EXPECT_EQ(stats.bands > 1, banded) << what;
      }
    }
  }
}

// One event's pairs overflow a band's ring: rows spanning every strip,
// each meeting thousands of tall rectangles that are still active, with
// the smallest multi-band rings. The rectangles fill either the right
// 70 % of the extent (a band's ring fills across several of its strips,
// after strips that found nothing) or a single strip (it fills inside
// that strip while the caller still waits on the band's earlier, empty
// strips of the same row).
TEST(SSSJParallel, WideEventsOverflowTheRings) {
  std::vector<RectF> rows;
  for (ObjectId i = 0; i < 20; ++i) {
    const float y = 5.0f + 0.01f * static_cast<float>(i);
    rows.push_back(RectF(0, y, 1000, y + 0.005f, i));
  }
  const RectF extent(0, 0, 1000, 15);
  for (const float x_lo : {300.0f, 500.0f}) {
    const float x_hi = x_lo == 300.0f ? 999.0f : 500.5f;
    Random rng(21);
    std::vector<RectF> tall;
    for (ObjectId i = 0; i < 30000; ++i) {
      const float x = static_cast<float>(rng.UniformDouble(x_lo, x_hi));
      const float y = static_cast<float>(rng.UniformDouble(0, 5));
      tall.push_back(RectF(x, y, x + 0.2f, y + 10, i));
    }
    std::sort(tall.begin(), tall.end(), OrderByYLo());
    std::vector<IdPair> want;
    VectorRectSource sa(&rows), sb(&tall);
    SweepJoinWithKind(
        SweepStructureKind::kStriped, extent, 1024, sa, sb,
        [&](const RectF& x, const RectF& y) { want.push_back({x.id, y.id}); });
    ASSERT_GT(want.size(), 500000u);
    for (const uint32_t threads : {2u, 3u}) {
      BandedSweepConfig config;
      config.extent = extent;
      config.threads = threads;
      config.buffer_bytes = size_t{256} << 10;
      std::vector<IdPair> got;
      VectorRectSource ga(&rows), gb(&tall);
      const BandedSweepStats stats = BandedSweepJoin(
          config, ga, gb,
          [&](ObjectId x, ObjectId y) { got.push_back({x, y}); });
      EXPECT_EQ(stats.bands, threads);
      EXPECT_EQ(got, want) << "x from " << x_lo << ", threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace sj
