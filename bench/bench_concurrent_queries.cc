// Concurrent query throughput through the SpatialService: N client
// threads submit a mix of predicates, algorithms, and memory budgets
// against one service with a single global memory budget, a shared 2Q
// buffer pool, and a shared morsel worker pool. Reports throughput and
// p50/p95 latency, and enforces the scheduler's two contracts on every
// run: each query's output matches its serial baseline, and the global
// arbiter's peak never exceeds the global budget.
//
//   --n=60000      rects per relation (e.g. --n=8000 for a CI smoke run)
//   --clients=8    concurrent client threads
//   --per-client=4 queries each client submits
//   --threads=4    service worker threads

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/join_query.h"
#include "datagen/synthetic.h"
#include "geometry/extent.h"
#include "io/stream.h"
#include "service/spatial_service.h"
#include "util/timer.h"

namespace sj {
namespace bench {
namespace {

struct Env {
  DiskModel disk{MachineModel::Machine3()};
  std::vector<std::unique_ptr<Pager>> pagers;
  DatasetRef da, db;
  std::optional<RTree> ta, tb;
  std::optional<SpatialJoiner> joiner;
};

DatasetRef WriteDataset(Env* env, const std::vector<RectF>& rects,
                        const std::string& name) {
  env->pagers.push_back(MakeMemoryPager(&env->disk, name));
  Pager* pager = env->pagers.back().get();
  StreamWriter<RectF> w(pager);
  for (const RectF& r : rects) w.Append(r);
  DatasetRef ref;
  ref.range = StreamRange{pager, 0, w.Finish().value()};
  ref.extent = ComputeExtent(rects);
  return ref;
}

RTree BuildTree(Env* env, const DatasetRef& ref, const std::string& name) {
  env->pagers.push_back(MakeMemoryPager(&env->disk, "tree." + name));
  Pager* tree_pager = env->pagers.back().get();
  auto scratch = MakeMemoryPager(&env->disk, "scratch." + name);
  RTreeParams params;
  auto tree = RTree::BulkLoadHilbert(tree_pager, ref.range, scratch.get(),
                                     params, 1 << 22);
  SJ_CHECK(tree.ok()) << tree.status().ToString();
  env->pagers.push_back(std::move(scratch));
  return std::move(tree).value();
}

/// The query mix: every filter algorithm, two predicates,
/// budgets from comfortable to tight.
struct QueryKind {
  const char* label;
  JoinAlgorithm algorithm;
  sj::Predicate predicate;
  double epsilon;
  size_t memory_bytes;
  bool indexed;  // Tree inputs (ST needs them) vs stream inputs.
};

constexpr QueryKind kMix[] = {
    {"auto/intersects/24M", JoinAlgorithm::kAuto, Predicate::kIntersects,
     0.0, 24u << 20, true},
    {"sssj/intersects/8M", JoinAlgorithm::kSSSJ, Predicate::kIntersects,
     0.0, 8u << 20, false},
    {"pbsm/intersects/4M", JoinAlgorithm::kPBSM, Predicate::kIntersects,
     0.0, 4u << 20, false},
    {"st/intersects/8M", JoinAlgorithm::kST, Predicate::kIntersects,  //
     0.0, 8u << 20, true},
    {"pq/intersects/8M", JoinAlgorithm::kPQ, Predicate::kIntersects,  //
     0.0, 8u << 20, true},
    {"auto/distance/16M", JoinAlgorithm::kAuto, Predicate::kDistanceWithin,
     0.5, 16u << 20, false},
};
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

JoinQuery MakeQuery(Env* env, const QueryKind& kind) {
  JoinQuery q(*env->joiner);
  q.Input(kind.indexed ? JoinInput::FromRTree(&*env->ta)
                       : JoinInput::FromStream(env->da))
      .Input(kind.indexed ? JoinInput::FromRTree(&*env->tb)
                          : JoinInput::FromStream(env->db))
      .Algorithm(kind.algorithm)
      .Predicate(kind.predicate, kind.epsilon)
      .MemoryBytes(kind.memory_bytes);
  return q;
}

void Run(uint64_t n, int clients, int per_client, uint32_t threads) {
  std::printf("== Concurrent queries through one SpatialService ==\n");
  std::printf("relations: %llu x %llu rects; %d clients x %d queries; "
              "%u service workers\n\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(n), clients, per_client,
              threads);

  Env env;
  const RectF region(0, 0, 1000, 1000);
  const auto a = UniformRects(n, region, 0.35f, 91);
  const auto b = UniformRects(n, region, 0.35f, 92);
  env.da = WriteDataset(&env, a, "conc.a");
  env.db = WriteDataset(&env, b, "conc.b");
  env.ta.emplace(BuildTree(&env, env.da, "a"));
  env.tb.emplace(BuildTree(&env, env.db, "b"));
  env.joiner.emplace(&env.disk, JoinOptions());

  // Serial baselines: one run of each kind, standalone.
  uint64_t baseline_counts[kMixSize];
  double serial_seconds = 0;
  for (size_t k = 0; k < kMixSize; ++k) {
    CountingSink sink;
    WallTimer wall;
    auto stats = MakeQuery(&env, kMix[k]).Run(&sink);
    serial_seconds += wall.Elapsed();
    SJ_CHECK(stats.ok()) << kMix[k].label << ": "
                         << stats.status().ToString();
    baseline_counts[k] = sink.count();
  }

  ServiceOptions so;
  so.global_memory_bytes = 48u << 20;  // Tight: forces queueing/degrading.
  so.worker_threads = threads;
  so.buffer_pool_pages = BufferPool::kPaperCapacityPages / 4;
  so.default_queue_deadline_seconds = 300.0;
  SpatialService service(so);

  const int total = clients * per_client;
  std::vector<double> latencies(static_cast<size_t>(total), 0.0);
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};

  WallTimer wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        const int index = c * per_client + i;
        const size_t k = static_cast<size_t>(index) % kMixSize;
        CountingSink sink;
        WallTimer lat;
        const auto result = service.Run(MakeQuery(&env, kMix[k]), &sink);
        latencies[static_cast<size_t>(index)] = lat.Elapsed();
        if (!result.ok()) {
          std::fprintf(stderr, "query %d (%s) failed: %s\n", index,
                       kMix[k].label, result.status().ToString().c_str());
          ++errors;
        } else if (sink.count() != baseline_counts[k]) {
          std::fprintf(stderr, "query %d (%s): %llu pairs, expected %llu\n",
                       index, kMix[k].label,
                       static_cast<unsigned long long>(sink.count()),
                       static_cast<unsigned long long>(baseline_counts[k]));
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double elapsed = wall.Elapsed();

  std::sort(latencies.begin(), latencies.end());
  const double p50 = latencies[static_cast<size_t>(total) / 2];
  const double p95 =
      latencies[std::min(static_cast<size_t>(total) - 1,
                         static_cast<size_t>(total * 95 / 100))];
  const ServiceStats stats = service.stats();

  std::printf("%-28s %12s\n", "metric", "value");
  PrintHeaderRule(41);
  std::printf("%-28s %12.3f\n", "wall seconds", elapsed);
  std::printf("%-28s %12.1f\n", "queries/second", total / elapsed);
  std::printf("%-28s %12.1f\n", "serial est. seconds",
              serial_seconds * total / kMixSize);
  std::printf("%-28s %12.3f\n", "p50 latency (s)", p50);
  std::printf("%-28s %12.3f\n", "p95 latency (s)", p95);
  std::printf("%-28s %12llu\n", "admitted full",
              static_cast<unsigned long long>(stats.admitted_full));
  std::printf("%-28s %12llu\n", "admitted degraded",
              static_cast<unsigned long long>(stats.admitted_degraded));
  std::printf("%-28s %12s\n", "global peak",
              HumanBytes(stats.global_peak_bytes).c_str());
  std::printf("%-28s %12s\n", "global budget",
              HumanBytes(so.global_memory_bytes).c_str());
  const double hit_rate =
      stats.pool.requests > 0
          ? 100.0 * static_cast<double>(stats.pool.hits) /
                static_cast<double>(stats.pool.requests)
          : 0.0;
  std::printf("%-28s %11.1f%%\n", "shared pool hit rate", hit_rate);

  // The run's contracts: every query matched its serial baseline, nothing
  // failed, and concurrent admission never oversubscribed the budget.
  SJ_CHECK(errors.load() == 0) << errors.load() << " queries failed";
  SJ_CHECK(mismatches.load() == 0) << mismatches.load() << " mismatches";
  SJ_CHECK(stats.global_peak_bytes <= so.global_memory_bytes)
      << "global peak " << stats.global_peak_bytes << " exceeded budget "
      << so.global_memory_bytes;
  std::printf("\nall %d queries matched their serial baselines; global peak "
              "stayed within the budget\n",
              total);
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  uint64_t n = 60000;
  int clients = 8;
  int per_client = 4;
  uint32_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      n = std::strtoull(argv[i] + 4, nullptr, 10);
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--per-client=", 13) == 0) {
      per_client = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<uint32_t>(std::atoi(argv[i] + 10));
    }
  }
  sj::bench::Run(n, clients, per_client, threads);
  return 0;
}
