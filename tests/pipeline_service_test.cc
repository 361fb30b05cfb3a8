// Pipelines as first-class service citizens: PipelineQuery submissions
// share the SpatialService's global memory budget, worker pool, and
// buffer pool with plain join queries, and N pipelines run concurrently
// compute exactly what each computes standalone. Runs in the concurrency
// test tier (meaningful under -DSJ_TSAN=ON).

#include "service/spatial_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/join_query.h"
#include "core/pipeline_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

struct ServiceFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  DatasetRef da, db;
  std::optional<SpatialJoiner> joiner;

  ServiceFixture() {
    const RectF region(0, 0, 90, 90);
    a = UniformRects(400, region, 2.0f, 51);
    b = UniformRects(350, region, 2.5f, 52);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    joiner.emplace(&td.disk, JoinOptions());
  }

  PipelineQuery HeatmapQuery(uint32_t nx, uint32_t ny) {
    PipelineQuery q(*joiner);
    q.Input(JoinInput::FromStream(da))
        .Input(JoinInput::FromStream(db))
        .AggregateByCell(AggregateMode::kCount, nx, ny, RectF(0, 0, 90, 90))
        .MemoryBytes(2u << 20);
    return q;
  }

  PipelineQuery ScanQuery(const RectF& window) {
    PipelineQuery q(*joiner);
    q.Input(JoinInput::FromStream(da))
        .Window(window)
        .TopKByDistance(16, 45, 45)
        .MemoryBytes(1u << 20);
    return q;
  }
};

TEST(PipelineService, RunThroughServiceMatchesStandalone) {
  ServiceFixture f;

  // Standalone reference.
  CollectingRowSink standalone;
  PipelineQuery q0 = f.HeatmapQuery(16, 16);
  auto direct = q0.Run(&standalone);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  // Through a multi-tenant service with workers and a shared pool.
  ServiceOptions options;
  options.global_memory_bytes = 64u << 20;
  options.worker_threads = 4;
  options.buffer_pool_pages = 256;
  SpatialService service(options);
  CollectingRowSink via_service;
  PipelineQuery q1 = f.HeatmapQuery(16, 16);
  auto result = service.Run(q1, &via_service);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(via_service.rows(), standalone.rows());
  EXPECT_EQ(result->output_count, direct->output_count);
  EXPECT_FALSE(via_service.rows().empty());
  EXPECT_EQ(service.stats().admitted_full, 1u);
}

TEST(PipelineService, ConcurrentPipelinesAndJoinsShareTheBudget) {
  ServiceFixture f;

  // Standalone references.
  CollectingRowSink heat_ref, scan_ref;
  {
    PipelineQuery q = f.HeatmapQuery(12, 12);
    SJ_CHECK_OK(q.Run(&heat_ref).status());
  }
  {
    PipelineQuery q = f.ScanQuery(RectF(10, 10, 70, 70));
    SJ_CHECK_OK(q.Run(&scan_ref).status());
  }
  const auto pair_ref = BruteForcePairs(f.a, f.b);

  ServiceOptions options;
  options.global_memory_bytes = 24u << 20;  // Forces queueing under load.
  options.worker_threads = 4;
  options.buffer_pool_pages = 128;
  SpatialService service(options);

  constexpr int kRounds = 4;
  std::vector<CollectingRowSink> heat_sinks(kRounds), scan_sinks(kRounds);
  std::vector<CollectingSink> join_sinks(kRounds);
  std::vector<SubmittedQuery> heat_subs(kRounds), scan_subs(kRounds);
  std::vector<SubmittedQuery> join_subs(kRounds);

  for (int i = 0; i < kRounds; ++i) {
    PipelineQuery heat = f.HeatmapQuery(12, 12);
    heat_subs[i] = service.Submit(heat, &heat_sinks[i]);
    PipelineQuery scan = f.ScanQuery(RectF(10, 10, 70, 70));
    scan_subs[i] = service.Submit(scan, &scan_sinks[i]);
    JoinQuery join(*f.joiner);
    join.Input(JoinInput::FromStream(f.da))
        .Input(JoinInput::FromStream(f.db))
        .MemoryBytes(2u << 20);
    join_subs[i] = service.Submit(join, &join_sinks[i]);
  }

  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(heat_subs[i].Result().ok())
        << heat_subs[i].Result().status().ToString();
    ASSERT_TRUE(scan_subs[i].Result().ok())
        << scan_subs[i].Result().status().ToString();
    ASSERT_TRUE(join_subs[i].Result().ok())
        << join_subs[i].Result().status().ToString();
    EXPECT_EQ(heat_sinks[i].rows(), heat_ref.rows()) << "round " << i;
    EXPECT_EQ(scan_sinks[i].rows(), scan_ref.rows()) << "round " << i;
    EXPECT_EQ(Sorted(join_sinks[i].pairs()), pair_ref) << "round " << i;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u * kRounds);
  // The global peak never exceeded the budget.
  EXPECT_LE(stats.global_peak_bytes, options.global_memory_bytes);
  EXPECT_GT(stats.global_peak_bytes, 0u);
}

TEST(PipelineService, RejectsOversizedAndUndersizedPipelines) {
  ServiceFixture f;
  ServiceOptions options;
  options.global_memory_bytes = 8u << 20;
  SpatialService service(options);

  // Budget above the whole global budget: unsatisfiable.
  {
    CollectingRowSink sink;
    PipelineQuery q = f.HeatmapQuery(8, 8);
    q.MemoryBytes(64u << 20);
    SubmitOptions submit;
    submit.allow_degraded = false;
    auto result = service.Run(q, &sink, submit);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  // Budget below the floor: misuse.
  {
    CollectingRowSink sink;
    PipelineQuery q = f.HeatmapQuery(8, 8);
    q.MemoryBytes(kMinMemoryBytes - 1);
    auto result = service.Run(q, &sink);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
  // A validation error inside the pipeline surfaces through the service.
  {
    CollectingRowSink sink;
    PipelineQuery q(*f.joiner);
    q.Input(JoinInput::FromStream(f.da))
        .TopKByDistance(0, 1, 1)
        .MemoryBytes(2u << 20);
    auto result = service.Run(q, &sink);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PipelineService, HandleOutlivesServiceSafely) {
  ServiceFixture f;
  SubmittedQuery handle;
  CollectingRowSink sink;
  {
    ServiceOptions options;
    options.worker_threads = 2;
    SpatialService service(options);
    PipelineQuery q = f.HeatmapQuery(8, 8);
    handle = service.Submit(q, &sink);
    // The service destructor drains or resolves everything outstanding.
  }
  handle.Wait();
  ASSERT_TRUE(handle.done());
  // Either it ran to completion before the destructor, or it was
  // resolved with an error — never a hang or a crash.
  if (handle.Result().ok()) {
    EXPECT_FALSE(sink.rows().empty());
  }
}

}  // namespace
}  // namespace sj
