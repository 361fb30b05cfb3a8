// The refinement subsystem: paged FeatureStore semantics and cost
// accounting, the batched parallel refinement executor's correctness and
// thread-count invariance, and the refine option end to end through the
// SpatialJoiner facade (two-way and multiway).

#include "refine/refine.h"

#include <gtest/gtest.h>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "refine/feature_store.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForceExactPairs;
using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

bool SameDiskStats(const DiskStats& x, const DiskStats& y) {
  return x.pages_read == y.pages_read && x.pages_written == y.pages_written &&
         x.read_requests == y.read_requests &&
         x.write_requests == y.write_requests &&
         x.io_seconds == y.io_seconds;
}

TEST(FeatureStore, BuildOpenFetchRoundtrip) {
  TestDisk td;
  auto pager = td.NewPager("geom");
  const RectF region(0, 0, 100, 100);
  const auto rects = UniformRects(1300, region, 2.0f, /*seed=*/11);
  const auto geom = SegmentsForRects(rects);
  auto built = FeatureStore::Build(pager.get(), geom, "roundtrip");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->count(), geom.size());
  // 512 16-byte records per 8 KB page.
  EXPECT_EQ(built->data_pages(), (geom.size() + 511) / 512);

  auto opened = FeatureStore::Open(pager.get());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->count(), geom.size());
  for (ObjectId id : {ObjectId{0}, ObjectId{511}, ObjectId{512},
                      ObjectId{1299}}) {
    auto s = opened->Fetch(id);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->x1, geom[id].x1);
    EXPECT_EQ(s->y1, geom[id].y1);
    EXPECT_EQ(s->x2, geom[id].x2);
    EXPECT_EQ(s->y2, geom[id].y2);
  }
  EXPECT_FALSE(opened->Fetch(1300).ok());
}

TEST(FeatureStore, OpenRejectsForeignPages) {
  TestDisk td;
  auto pager = td.NewPager("not.a.store");
  StreamWriter<RectF> writer(pager.get());
  writer.Append(RectF(0, 0, 1, 1, 7));
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_FALSE(FeatureStore::Open(pager.get()).ok());
}

TEST(FeatureStore, BaseIdOffsetsTheKeySpace) {
  TestDisk td;
  auto pager = td.NewPager("geom.base");
  const auto rects =
      UniformRects(100, RectF(0, 0, 10, 10), 1.0f, /*seed=*/3,
                   /*base_id=*/5000);
  const auto geom = SegmentsForRects(rects);
  auto store = FeatureStore::Build(pager.get(), geom, "based", 5000);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Fetch(0).ok());
  EXPECT_FALSE(store->Fetch(4999).ok());
  auto s = store->Fetch(5042);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->x1, geom[42].x1);
}

TEST(FeatureStore, FetchBatchReadsEachPageOnce) {
  TestDisk td;
  auto pager = td.NewPager("geom.batch");
  const auto rects = UniformRects(2000, RectF(0, 0, 100, 100), 2.0f, 13);
  const auto geom = SegmentsForRects(rects);
  auto store = FeatureStore::Build(pager.get(), geom, "batch");
  ASSERT_TRUE(store.ok());

  // Ids spanning all 4 data pages, shuffled order, with duplicates.
  const std::vector<ObjectId> ids = {1999, 0, 511, 512, 1023, 0,
                                     1024, 700, 1536, 700};
  const DiskStats before = td.disk.stats();
  std::vector<Segment> out;
  auto pages = store->FetchBatch(ids, &out);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 4u);  // 2000 records = 4 pages, each read once.
  const DiskStats delta = td.disk.stats() - before;
  EXPECT_EQ(delta.pages_read, 4u);
  // Consecutive pages coalesce into a single run request.
  EXPECT_EQ(delta.read_requests, 1u);
  // Results arrive in input order, duplicates included.
  ASSERT_EQ(out.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i].x1, geom[ids[i]].x1) << "slot " << i;
    EXPECT_EQ(out[i].y2, geom[ids[i]].y2) << "slot " << i;
  }
  // An out-of-range id anywhere in the batch fails the whole fetch.
  std::vector<Segment> unused;
  const std::vector<ObjectId> bad_ids = {5, 2000};
  EXPECT_FALSE(store->FetchBatch(bad_ids, &unused).ok());
}

TEST(FeatureStore, FetchBatchChargesExternalShard) {
  TestDisk td;
  auto pager = td.NewPager("geom.shard");
  const auto rects = UniformRects(1000, RectF(0, 0, 50, 50), 1.0f, 17);
  auto store =
      FeatureStore::Build(pager.get(), SegmentsForRects(rects), "shard");
  ASSERT_TRUE(store.ok());

  DiskModel shard(td.disk.machine());
  const uint32_t dev = shard.RegisterDevice("refine.test");
  const DiskStats own_before = td.disk.stats();
  std::vector<Segment> out;
  const std::vector<ObjectId> ids = {0, 999};
  auto pages = store->FetchBatch(ids, &out, &shard, dev);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 2u);
  // All modeled I/O lands on the shard; the store's own disk is untouched.
  EXPECT_EQ(shard.stats().pages_read, 2u);
  EXPECT_EQ((td.disk.stats() - own_before).pages_read, 0u);
  EXPECT_EQ(out[0].x1, SegmentForRect(rects[0]).x1);
  EXPECT_EQ(out[1].x1, SegmentForRect(rects[999]).x1);
}

TEST(Refine, PairsMatchBruteForceAndAreThreadInvariant) {
  TestDisk td;
  const RectF region(0, 0, 300, 300);
  const auto a = UniformRects(900, region, 3.0f, 21);
  const auto b = UniformRects(800, region, 4.0f, 22);
  const auto ga = SegmentsForRects(a);
  const auto gb = SegmentsForRects(b);
  auto pager_a = td.NewPager("geom.a");
  auto pager_b = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pager_a.get(), ga, "a");
  auto store_b = FeatureStore::Build(pager_b.get(), gb, "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  const std::vector<IdPair> candidates = BruteForcePairs(a, b);
  const std::vector<IdPair> expected = BruteForceExactPairs(a, b, ga, gb);
  ASSERT_GT(candidates.size(), expected.size());  // The filter over-approximates.
  ASSERT_FALSE(expected.empty());

  std::vector<IdPair> reference_pairs;
  RefineStats reference;
  for (uint32_t threads : {1u, 2u, 8u}) {
    JoinOptions options;
    options.num_threads = threads;
    options.refine_batch_pairs = 128;  // Several batches per run.
    CollectingSink sink;
    auto stats =
        RefinePairs(candidates, *store_a, *store_b, options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->candidates, candidates.size());
    EXPECT_EQ(stats->results, expected.size());
    EXPECT_EQ(Sorted(sink.pairs()), expected);
    EXPECT_GT(stats->pages_read, 0u);
    if (threads == 1) {
      reference_pairs = sink.pairs();
      reference = *stats;
    } else {
      // Output order, pages, and modeled I/O identical at every thread
      // count (per-batch DiskModel shards, merged in batch order).
      EXPECT_EQ(sink.pairs(), reference_pairs) << threads << " threads";
      EXPECT_EQ(stats->pages_read, reference.pages_read);
      EXPECT_TRUE(SameDiskStats(stats->disk, reference.disk))
          << threads << " threads";
    }
  }
}

TEST(Refine, JoinerRefinesThroughEveryAlgorithm) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 200, 200);
  const auto a = UniformRects(700, region, 3.0f, 31);
  const auto b = UniformRects(600, region, 3.0f, 32);
  const auto ga = SegmentsForRects(a);
  const auto gb = SegmentsForRects(b);
  const auto expected = BruteForceExactPairs(a, b, ga, gb);
  const auto expected_candidates = BruteForcePairs(a, b);

  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  auto pager_a = td.NewPager("geom.a");
  auto pager_b = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pager_a.get(), ga, "a");
  auto store_b = FeatureStore::Build(pager_b.get(), gb, "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());
  auto tree_a_pager = td.NewPager("tree.a");
  auto tree_b_pager = td.NewPager("tree.b");
  auto scratch = td.NewPager("scratch");
  auto ta = RTree::BulkLoadHilbert(tree_a_pager.get(), da.range,
                                   scratch.get(), RTreeParams(), 1 << 22);
  auto tb = RTree::BulkLoadHilbert(tree_b_pager.get(), db.range,
                                   scratch.get(), RTreeParams(), 1 << 22);
  ASSERT_TRUE(ta.ok() && tb.ok());

  JoinOptions options;
  options.refine = true;
  SpatialJoiner joiner(&td.disk, options);
  JoinInput ia = JoinInput::FromRTree(&*ta);
  JoinInput ib = JoinInput::FromRTree(&*tb);
  ia.WithFeatures(&*store_a);
  ib.WithFeatures(&*store_b);
  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                             JoinAlgorithm::kST, JoinAlgorithm::kPQ,
                             JoinAlgorithm::kAuto}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner).Input(ia).Input(ib).Algorithm(algo).Run(
        &sink);
    ASSERT_TRUE(stats.ok()) << ToString(algo) << ": "
                            << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
    EXPECT_EQ(stats->output_count, expected.size()) << ToString(algo);
    EXPECT_EQ(stats->candidate_count, expected_candidates.size())
        << ToString(algo);
    EXPECT_GT(stats->refine_pages_read, 0u) << ToString(algo);
  }
}

TEST(Refine, JoinerWithoutStoresFailsPrecondition) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(50, RectF(0, 0, 10, 10), 1.0f, 41);
  const auto b = UniformRects(50, RectF(0, 0, 10, 10), 1.0f, 42);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  JoinOptions options;
  options.refine = true;
  SpatialJoiner joiner(&td.disk, options);
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .Run(&sink);
  EXPECT_FALSE(stats.ok());
}

TEST(Refine, UnrefinedJoinReportsCandidatesEqualOutput) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(300, RectF(0, 0, 50, 50), 2.0f, 51);
  const auto b = UniformRects(300, RectF(0, 0, 50, 50), 2.0f, 52);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  SpatialJoiner joiner(&td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->candidate_count, stats->output_count);
  EXPECT_EQ(stats->refine_pages_read, 0u);
}

TEST(Refine, MultiwayTuplesPairwisePredicate) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 120, 120);
  const auto a = UniformRects(260, region, 6.0f, 61);
  const auto b = UniformRects(240, region, 6.0f, 62);
  const auto c = UniformRects(220, region, 6.0f, 63);
  const auto ga = SegmentsForRects(a);
  const auto gb = SegmentsForRects(b);
  const auto gc = SegmentsForRects(c);

  // Brute-force reference: MBR tuples with a common intersection point,
  // then the pairwise exact-segment predicate.
  std::vector<std::vector<ObjectId>> filter_tuples, exact_tuples;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (!a[i].Intersects(b[j])) continue;
      const RectF ab = a[i].IntersectionWith(b[j]);
      for (size_t k = 0; k < c.size(); ++k) {
        if (!ab.Intersects(c[k])) continue;
        filter_tuples.push_back({a[i].id, b[j].id, c[k].id});
        if (SegmentsIntersect(ga[i], gb[j]) &&
            SegmentsIntersect(ga[i], gc[k]) &&
            SegmentsIntersect(gb[j], gc[k])) {
          exact_tuples.push_back({a[i].id, b[j].id, c[k].id});
        }
      }
    }
  }
  std::sort(exact_tuples.begin(), exact_tuples.end());
  ASSERT_FALSE(filter_tuples.empty());

  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  const DatasetRef dc = MakeDataset(&td, c, "c", &keep);
  auto pa = td.NewPager("geom.a");
  auto pb = td.NewPager("geom.b");
  auto pc = td.NewPager("geom.c");
  auto sa = FeatureStore::Build(pa.get(), ga, "a");
  auto sb = FeatureStore::Build(pb.get(), gb, "b");
  auto sc = FeatureStore::Build(pc.get(), gc, "c");
  ASSERT_TRUE(sa.ok() && sb.ok() && sc.ok());

  for (uint32_t threads : {1u, 2u, 8u}) {
    JoinOptions options;
    options.refine = true;
    options.refine_batch_pairs = 64;
    options.num_threads = threads;
    SpatialJoiner joiner(&td.disk, options);
    JoinInput ia = JoinInput::FromStream(da);
    JoinInput ib = JoinInput::FromStream(db);
    JoinInput ic = JoinInput::FromStream(dc);
    ia.WithFeatures(&*sa);
    ib.WithFeatures(&*sb);
    ic.WithFeatures(&*sc);
    CollectingTupleSink sink;
    auto stats = JoinQuery(joiner).Input(ia).Input(ib).Input(ic).Run(
        static_cast<TupleSink*>(&sink));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->candidate_count, filter_tuples.size());
    EXPECT_EQ(stats->output_count, exact_tuples.size());
    auto got = sink.tuples();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, exact_tuples) << threads << " threads";
  }
}

}  // namespace
}  // namespace sj
