// PQ's plane sweep runs on the banded sweep (sweep/banded_sweep.h), so at
// every thread count it must be the serial sweep: the same pair sequence,
// output count and sweep footprint, and — because the calling thread
// still reads the sources in the serial order — the same index pages,
// queue-memory samples and modeled I/O. Checked for PQJoin,
// PQJoinIndexStream and JoinQuery's PQ executor with filter and
// occupancy pruning, on memory and file scratch, on a private team and
// on a shared pool whose only worker is blocked.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/tiger_gen.h"
#include "histogram/grid_histogram.h"
#include "io/storage.h"
#include "join/pq_join.h"
#include "join/sources.h"
#include "rtree/rtree.h"
#include "sweep/sweep_join.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::ExpectSameDisk;
using testing_util::MakeDataset;
using testing_util::SaturatedPool;
using testing_util::Sorted;
using testing_util::SweepGrant;
using testing_util::TestDisk;

/// The three ways a PQ join is reached.
enum class Entry { kIndexIndex, kIndexStream, kQueryPruned };

const char* Name(Entry entry) {
  switch (entry) {
    case Entry::kIndexIndex:
      return "PQJoin";
    case Entry::kIndexStream:
      return "PQJoinIndexStream";
    case Entry::kQueryPruned:
      return "JoinQuery kPQ pruned";
  }
  return "?";
}

struct Outcome {
  std::vector<IdPair> pairs;  // In emission order.
  JoinStats stats;
  uint64_t node_count = 0;  // Both trees' nodes (index x index only).
};

struct Inputs {
  std::vector<RectF> a, b;
  RectF extent;
};

/// TIGER-style roads over the whole region and hydro over its western
/// part only, so the pruned traversal of the roads index skips subtrees.
Inputs TigerInputs() {
  Inputs in;
  TigerGenerator gen(53);
  gen.GenerateRoads(12000, &in.a);
  std::vector<RectF> hydro;
  gen.GenerateHydro(12000, &hydro);
  in.extent = gen.region();
  const float west = in.extent.xlo + 0.6f * (in.extent.xhi - in.extent.xlo);
  for (const RectF& r : hydro) {
    if (r.xhi < west) in.b.push_back(r);
  }
  return in;
}

/// Fresh devices, datasets, trees and histograms over `in`, so every
/// run starts from the same disk state.
struct Env {
  explicit Env(const Inputs& in)
      : hist_a(in.extent, 32, 32), hist_b(in.extent, 32, 32) {
    da = MakeDataset(&td, in.a, "a", &keep);
    db = MakeDataset(&td, in.b, "b", &keep);
    ta.emplace(Build(da, "a"));
    tb.emplace(Build(db, "b"));
    for (const RectF& r : in.a) hist_a.Add(r);
    for (const RectF& r : in.b) hist_b.Add(r);
    td.disk.ResetStats();
  }

  RTree Build(const DatasetRef& ref, const std::string& name) {
    keep.push_back(td.NewPager("tree." + name));
    Pager* tree_pager = keep.back().get();
    keep.push_back(td.NewPager("scratch." + name));
    RTreeParams params;
    params.max_entries = 50;
    Result<RTree> tree = RTree::BulkLoadHilbert(
        tree_pager, ref.range, keep.back().get(), params, 1 << 22);
    SJ_CHECK(tree.ok()) << tree.status().ToString();
    return std::move(tree).value();
  }

  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  DatasetRef da, db;
  std::optional<RTree> ta, tb;
  GridHistogram hist_a, hist_b;
};

/// Runs one PQ join on a fresh Env under a strict arbiter.
Outcome RunPQ(const Inputs& in, Entry entry, JoinOptions options) {
  Env env(in);
  options.strict_memory_accounting = true;
  CollectingSink sink;
  Result<JoinStats> stats = Status::Internal("not run");
  switch (entry) {
    case Entry::kIndexIndex:
      stats = PQJoin(*env.ta, *env.tb, &env.td.disk, options, &sink);
      break;
    case Entry::kIndexStream:
      stats = PQJoinIndexStream(*env.ta, env.db, &env.td.disk, options, &sink);
      break;
    case Entry::kQueryPruned: {
      SpatialJoiner joiner(&env.td.disk, options);
      JoinQuery query(joiner);
      query.Input(JoinInput::FromRTree(&*env.ta))
          .Input(JoinInput::FromRTree(&*env.tb))
          .WithHistogram(0, &env.hist_a)
          .WithHistogram(1, &env.hist_b)
          .Algorithm(JoinAlgorithm::kPQ);
      stats = query.Run(&sink);
      break;
    }
  }
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  Outcome out;
  out.pairs = sink.pairs();
  if (stats.ok()) out.stats = *stats;
  out.node_count = env.ta->node_count() + env.tb->node_count();
  return out;
}

void ExpectSameRun(const Outcome& got, const Outcome& want,
                   const std::string& what) {
  EXPECT_EQ(got.pairs, want.pairs) << what;  // Sequence, not set.
  EXPECT_EQ(got.stats.output_count, want.stats.output_count) << what;
  EXPECT_EQ(got.stats.max_sweep_bytes, want.stats.max_sweep_bytes) << what;
  EXPECT_EQ(got.stats.max_queue_bytes, want.stats.max_queue_bytes) << what;
  EXPECT_EQ(got.stats.index_pages_read, want.stats.index_pages_read) << what;
  ExpectSameDisk(got.stats.disk, want.stats.disk, what);
  const auto [used, granted] = SweepGrant(got.stats);
  EXPECT_GT(granted, 0u) << what;
  EXPECT_LE(used, granted) << what;
}

TEST(PQParallel, BandedSweepIsTheSerialSweepAcrossTheGrid) {
  const Inputs in = TigerInputs();
  Result<std::unique_ptr<TmpFileStorageFactory>> files =
      TmpFileStorageFactory::Make();
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  const std::shared_ptr<StorageFactory> file_storage =
      std::move(files).value();
  const std::vector<IdPair> brute = BruteForcePairs(in.a, in.b);
  ASSERT_FALSE(brute.empty());

  for (const Entry entry :
       {Entry::kIndexIndex, Entry::kIndexStream, Entry::kQueryPruned}) {
    JoinOptions base;
    base.memory_bytes = 2 << 20;
    const Outcome reference = RunPQ(in, entry, base);
    EXPECT_EQ(Sorted(reference.pairs), brute) << Name(entry);
    EXPECT_EQ(reference.stats.sweep_bands, 1u) << Name(entry);
    EXPECT_GT(reference.stats.max_queue_bytes, 0u) << Name(entry);
    if (entry == Entry::kIndexIndex) {
      EXPECT_EQ(reference.stats.index_pages_read, reference.node_count);
    } else if (entry == Entry::kQueryPruned) {
      // Filter and occupancy pruning skip part of the roads index.
      EXPECT_LT(reference.stats.index_pages_read, reference.node_count);
    }
    for (const bool on_files : {false, true}) {
      for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        for (const bool shared : {false, true}) {
          SaturatedPool saturated;
          JoinOptions options = base;
          options.num_threads = threads;
          if (on_files) options.storage = file_storage;
          if (shared) options.worker_pool = saturated.get();
          const Outcome got = RunPQ(in, entry, options);
          const std::string what =
              std::string(Name(entry)) + (on_files ? " files" : " memory") +
              " threads=" + std::to_string(threads) +
              (shared ? " saturated pool" : "");
          ExpectSameRun(got, reference, what);
          EXPECT_EQ(got.stats.sweep_bands, threads) << what;
        }
      }
    }
  }
}

// The banded sweep reads the sources exactly as the serial sweep did, so
// the queue-memory samples (taken after each Next() past a source's
// first) see the states the serial sweep's per-event probe saw.
void ExpectSerialSweepAndQueueProbe(const Inputs& in) {
  Env env(in);
  RTreePQSource sa(&*env.ta), sb(&*env.tb);
  std::vector<IdPair> want;
  size_t want_queue = 0;
  SweepJoinWithKind(
      SweepStructureKind::kStriped, in.extent, JoinOptions().striped_strips,
      sa, sb,
      [&](const RectF& x, const RectF& y) { want.push_back({x.id, y.id}); },
      [&] {
        want_queue =
            std::max(want_queue, sa.MemoryBytes() + sb.MemoryBytes());
      });
  for (const uint32_t threads : {1u, 4u}) {
    JoinOptions options;
    options.num_threads = threads;
    const Outcome got = RunPQ(in, Entry::kIndexIndex, options);
    EXPECT_EQ(got.pairs, want) << "threads=" << threads;
    EXPECT_EQ(got.stats.max_queue_bytes, want_queue) << "threads=" << threads;
    EXPECT_EQ(got.stats.index_pages_read, sa.pages_read() + sb.pages_read());
  }
}

TEST(PQParallel, MatchesTheSerialSweepAndItsQueueProbe) {
  ExpectSerialSweepAndQueueProbe(TigerInputs());
  // Single-leaf trees: both sources' first Next() loads a whole leaf, so
  // the state after them is the largest of the join — one the serial
  // probe never sampled.
  ExpectSerialSweepAndQueueProbe(
      {{RectF(0, 0, 2, 2, 1), RectF(1, 1, 3, 3, 2)},
       {RectF(0, 0.5f, 2, 2, 1), RectF(1, 1.5f, 3, 3, 2)},
       RectF(0, 0, 3, 3)});
}

TEST(PQParallel, TinyBudgetFallsBackToOneBand) {
  // The sweep grant (half the budget) holds the structures and one band's
  // small epochs, but not the rings of several bands.
  const Inputs in = TigerInputs();
  JoinOptions base;
  base.memory_bytes = 256 << 10;
  const Outcome reference = RunPQ(in, Entry::kIndexIndex, base);
  EXPECT_EQ(Sorted(reference.pairs), BruteForcePairs(in.a, in.b));
  for (const uint32_t threads : {2u, 4u}) {
    JoinOptions options = base;
    options.num_threads = threads;
    const Outcome got = RunPQ(in, Entry::kIndexIndex, options);
    const std::string what = "threads=" + std::to_string(threads);
    ExpectSameRun(got, reference, what);
    EXPECT_EQ(got.stats.sweep_bands, 1u) << what;
  }
}

}  // namespace
}  // namespace sj
