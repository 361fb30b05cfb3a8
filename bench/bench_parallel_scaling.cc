// Wall-clock scaling of the parallel join engine: the uniform 100k x 100k
// workload joined with PBSM, SSSJ strip joins, plain SSSJ and PQ over
// R-trees of both inputs (the last two sweep in x-bands,
// sweep/banded_sweep.h) at 1/2/4/8 worker threads. Output, modeled I/O,
// the sweep footprint and PQ's queue memory are identical at every
// thread count (asserted); the interesting column is host wall-clock,
// which should drop as threads are added on a multi-core machine.
// `--n=...` overrides the input size (e.g. --n=20000 for a CI smoke run).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "bench_common.h"
#include "datagen/synthetic.h"
#include "geometry/extent.h"
#include "io/pager.h"
#include "join/pbsm.h"
#include "join/pq_join.h"
#include "join/sssj.h"
#include "rtree/rtree.h"
#include "util/timer.h"

namespace sj {
namespace bench {
namespace {

struct ScalingRun {
  double wall_seconds = 0;
  double io_seconds = 0;
  uint64_t output_count = 0;
  size_t max_sweep_bytes = 0;
  size_t max_queue_bytes = 0;
  uint32_t units = 0;  // Partitions, strips or sweep bands.
};

/// One run's inputs: both streams, and R-trees over them for the indexed
/// rows (built on the run's disk before the clock starts).
struct ScalingInputs {
  DatasetRef a, b;
  const RTree* tree_a = nullptr;
  const RTree* tree_b = nullptr;
};

using ScalingJoin = std::function<Result<JoinStats>(
    const ScalingInputs&, DiskModel*, const JoinOptions&, JoinSink*)>;

ScalingRun RunOnce(const std::vector<RectF>& a, const std::vector<RectF>& b,
                   uint32_t threads, bool indexed, const ScalingJoin& join) {
  DiskModel disk(MachineModel::Machine3());
  auto pager_a = MakeMemoryPager(&disk, "scaling.a");
  auto pager_b = MakeMemoryPager(&disk, "scaling.b");
  DatasetRef da, db;
  {
    StreamWriter<RectF> wa(pager_a.get());
    for (const RectF& r : a) wa.Append(r);
    da.range = StreamRange{pager_a.get(), 0, wa.Finish().value()};
    da.extent = ComputeExtent(a);
    StreamWriter<RectF> wb(pager_b.get());
    for (const RectF& r : b) wb.Append(r);
    db.range = StreamRange{pager_b.get(), 0, wb.Finish().value()};
    db.extent = ComputeExtent(b);
  }
  ScalingInputs inputs{da, db};
  std::vector<std::unique_ptr<Pager>> tree_pagers;
  std::vector<RTree> trees;
  if (indexed) {
    for (const DatasetRef* d : {&da, &db}) {
      tree_pagers.push_back(MakeMemoryPager(&disk, "scaling.tree"));
      auto scratch = MakeMemoryPager(&disk, "scaling.tree.scratch");
      Result<RTree> tree =
          RTree::BulkLoadHilbert(tree_pagers.back().get(), d->range,
                                 scratch.get(), RTreeParams(), 8u << 20);
      SJ_CHECK(tree.ok()) << tree.status().ToString();
      trees.push_back(std::move(tree).value());
    }
    inputs.tree_a = &trees[0];
    inputs.tree_b = &trees[1];
  }

  JoinOptions options;
  // Small memory budget so PBSM produces enough partitions to schedule.
  options.memory_bytes = std::max<size_t>(
      256u << 10, (a.size() + b.size()) * sizeof(RectF) / 16);
  options.num_threads = threads;

  CountingSink sink;
  ScalingRun run;
  WallTimer wall;
  auto stats = join(inputs, &disk, options, &sink);
  run.wall_seconds = wall.Elapsed();
  SJ_CHECK(stats.ok()) << stats.status().ToString();
  run.io_seconds = stats->disk.io_seconds;
  run.output_count = stats->output_count;
  run.max_sweep_bytes = stats->max_sweep_bytes;
  run.max_queue_bytes = stats->max_queue_bytes;
  run.units = std::max(stats->partitions_total, stats->sweep_bands);
  return run;
}

void RunScaling(const char* label, const std::vector<RectF>& a,
                const std::vector<RectF>& b, bool indexed,
                const ScalingJoin& join) {
  std::printf("-- %s --\n", label);
  std::printf("%8s %10s %12s %12s %10s %8s\n", "threads", "units",
              "wall(s)", "modeledIO(s)", "output", "speedup");
  PrintHeaderRule(66);
  double base_wall = 0;
  uint64_t base_output = 0;
  double base_io = 0;
  size_t base_sweep = 0;
  size_t base_queue = 0;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    const ScalingRun run = RunOnce(a, b, threads, indexed, join);
    if (threads == 1) {
      base_wall = run.wall_seconds;
      base_output = run.output_count;
      base_io = run.io_seconds;
      base_sweep = run.max_sweep_bytes;
      base_queue = run.max_queue_bytes;
    } else {
      // The engine's contract: results, modeled I/O, the sweep footprint
      // and PQ's queue memory must not move with the thread count.
      SJ_CHECK(run.output_count == base_output) << "output changed";
      SJ_CHECK(run.io_seconds == base_io) << "modeled I/O changed";
      SJ_CHECK(run.max_sweep_bytes == base_sweep) << "max_sweep_bytes changed";
      SJ_CHECK(run.max_queue_bytes == base_queue) << "max_queue_bytes changed";
    }
    std::printf("%8u %10u %12.3f %12.3f %10llu %7.2fx\n", threads, run.units,
                run.wall_seconds, run.io_seconds,
                static_cast<unsigned long long>(run.output_count),
                base_wall / run.wall_seconds);
  }
  std::printf("\n");
}

void Run(uint64_t n) {
  std::printf("== Parallel join scaling (uniform %lluk x %lluk) ==\n\n",
              static_cast<unsigned long long>(n / 1000),
              static_cast<unsigned long long>(n / 1000));
  const RectF region(0, 0, 1000, 1000);
  // Mean edge 0.35 over a 1000x1000 domain: ~1 output pair per input rect
  // at n = 100k, the usual spatial-join selectivity regime.
  const std::vector<RectF> a = UniformRects(n, region, 0.35f, 71);
  const std::vector<RectF> b = UniformRects(n, region, 0.35f, 72);

  RunScaling("PBSM partition pairs", a, b, /*indexed=*/false,
             [](const ScalingInputs& in, DiskModel* disk,
                const JoinOptions& options, JoinSink* sink) {
               return PBSMJoin(in.a, in.b, disk, options, sink);
             });
  RunScaling("SSSJ strips (32)", a, b, /*indexed=*/false,
             [](const ScalingInputs& in, DiskModel* disk,
                const JoinOptions& options, JoinSink* sink) {
               return SSSJStripJoin(in.a, in.b, /*strips=*/32, disk, options,
                                    sink);
             });
  // The banded sweeps get the memory the scaling runs' small budget would
  // deny them: SSSJ would fall back to strips, PQ's half-budget sweep
  // grant would hold one band's buffers only.
  auto sweep_budget = [](const JoinOptions& options) {
    JoinOptions sweep_options = options;
    sweep_options.memory_bytes =
        std::max<size_t>(options.memory_bytes, 8u << 20);
    return sweep_options;
  };
  RunScaling("SSSJ (banded sweep)", a, b, /*indexed=*/false,
             [&](const ScalingInputs& in, DiskModel* disk,
                 const JoinOptions& options, JoinSink* sink) {
               return SSSJJoin(in.a, in.b, disk, sweep_budget(options), sink);
             });
  RunScaling("PQ (banded sweep)", a, b, /*indexed=*/true,
             [&](const ScalingInputs& in, DiskModel* disk,
                 const JoinOptions& options, JoinSink* sink) {
               return PQJoin(*in.tree_a, *in.tree_b, disk,
                             sweep_budget(options), sink);
             });
  std::printf(
      "Speedup tracks the machine's core count; modeled I/O and output are "
      "thread-count-invariant\nby construction (per-unit DiskModel "
      "shards; SSSJ's and PQ's bands share one read of their inputs).\n");
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  uint64_t n = 100000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      n = std::strtoull(argv[i] + 4, nullptr, 10);
    }
  }
  sj::bench::Run(n);
  return 0;
}
