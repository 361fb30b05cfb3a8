// Operator pipelines vs hand-rolled post-processing: for each dataset of
// the TIGER ladder, compute a Roads x Hydro crossing heatmap (count
// density grid over the region, then the 16 hottest cells nearest the
// region center) two ways —
//
//   pipeline:    one PipelineQuery (join -> AggregateByCell -> TopK),
//                rows flow through the operators, one memory budget
//   hand-rolled: JoinQuery materializes every pair, then two explicit
//                passes rebuild the grid and the top-k on the side
//
// and asserts the outputs are identical row for row, and that the
// pipeline reads and writes exactly the pages of its join. The point of the
// comparison is the materialization the pipeline never pays: the
// hand-rolled path holds |join| pairs (unbounded, workload-dependent)
// while the pipeline's footprint is the grid band plus a k-entry heap,
// governed by the arbiter.

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/join_query.h"
#include "core/pipeline_query.h"

namespace sj {
namespace bench {
namespace {

// The hand-rolled aggregate: same cell arithmetic as AggregateByCellOp
// (truncate-then-clamp, last cell closing on the extent edge), applied to
// each pair's contact box.
struct Grid {
  RectF extent;
  uint32_t nx, ny;
  float cell_w, cell_h;
  std::vector<double> cells;

  Grid(const RectF& e, uint32_t x, uint32_t y)
      : extent(e),
        nx(x),
        ny(y),
        cell_w((e.xhi - e.xlo) / static_cast<float>(x)),
        cell_h((e.yhi - e.ylo) / static_cast<float>(y)),
        cells(static_cast<size_t>(x) * y, 0.0) {}

  static uint32_t CellOf(float v, float lo, float w, uint32_t n) {
    const float rel = (v - lo) / w;
    if (!(rel > 0.0f)) return 0;
    return static_cast<uint32_t>(std::min(rel, static_cast<float>(n - 1)));
  }

  void Add(const RectF& r) {
    if (!r.Valid() || !r.Intersects(extent)) return;
    const uint32_t x0 = CellOf(r.xlo, extent.xlo, cell_w, nx);
    const uint32_t x1 = CellOf(r.xhi, extent.xlo, cell_w, nx);
    const uint32_t y0 = CellOf(r.ylo, extent.ylo, cell_h, ny);
    const uint32_t y1 = CellOf(r.yhi, extent.ylo, cell_h, ny);
    for (uint32_t iy = y0; iy <= y1; ++iy) {
      for (uint32_t ix = x0; ix <= x1; ++ix) {
        cells[static_cast<size_t>(iy) * nx + ix] += 1.0;
      }
    }
  }

  RectF CellRect(uint32_t ix, uint32_t iy) const {
    const float xlo = extent.xlo + static_cast<float>(ix) * cell_w;
    const float ylo = extent.ylo + static_cast<float>(iy) * cell_h;
    const float xhi = ix + 1 == nx
                          ? extent.xhi
                          : extent.xlo + static_cast<float>(ix + 1) * cell_w;
    const float yhi = iy + 1 == ny
                          ? extent.yhi
                          : extent.ylo + static_cast<float>(iy + 1) * cell_h;
    return RectF(xlo, ylo, xhi, yhi);
  }

  std::vector<PipeRow> NonZeroRows() const {
    std::vector<PipeRow> rows;
    for (uint32_t iy = 0; iy < ny; ++iy) {
      for (uint32_t ix = 0; ix < nx; ++ix) {
        const double v = cells[static_cast<size_t>(iy) * nx + ix];
        if (v == 0.0) continue;
        PipeRow row;
        row.rect = CellRect(ix, iy);
        row.ids = {static_cast<ObjectId>(iy) * nx + ix};
        row.value = v;
        rows.push_back(std::move(row));
      }
    }
    return rows;
  }
};

// The hand-rolled top-k: TopKByDistanceOp's exact total order (distance,
// ids, rect corners, value) over the full row set.
std::vector<PipeRow> TopK(std::vector<PipeRow> rows, size_t k, float qx,
                          float qy) {
  auto less = [qx, qy](const PipeRow& a, const PipeRow& b) {
    const double da = TopKByDistanceOp::DistanceTo(a.rect, qx, qy);
    const double db = TopKByDistanceOp::DistanceTo(b.rect, qx, qy);
    if (da != db) return da < db;
    if (a.ids != b.ids) return a.ids < b.ids;
    if (a.rect.xlo != b.rect.xlo) return a.rect.xlo < b.rect.xlo;
    if (a.rect.ylo != b.rect.ylo) return a.rect.ylo < b.rect.ylo;
    if (a.rect.xhi != b.rect.xhi) return a.rect.xhi < b.rect.xhi;
    if (a.rect.yhi != b.rect.yhi) return a.rect.yhi < b.rect.yhi;
    return a.value < b.value;
  };
  std::sort(rows.begin(), rows.end(), less);
  if (rows.size() > k) rows.resize(k);
  return rows;
}

void Run(const BenchConfig& config) {
  constexpr uint32_t kGrid = 64;
  constexpr size_t kTop = 16;

  std::printf(
      "== Heatmap: pipeline vs hand-rolled post-processing (scale %.4g, "
      "%ux%u grid, top %zu) ==\n\n",
      config.scale, kGrid, kGrid, kTop);
  std::printf("%-10s %10s %8s %12s %12s %14s %14s\n", "Dataset", "Pairs",
              "Cells", "Pipeline(s)", "Handroll(s)", "PipePeakMem",
              "PairsHeldMem");
  PrintHeaderRule(88);

  for (const std::string& name : config.datasets) {
    const LoadedDataset& data = GetDataset(name, config.scale);
    const MachineModel machine = MachineByIndex(config.machines.front());
    Workload w = MakeWorkload(data, machine, /*build_trees=*/false);
    const RectF region = TigerGenerator::DefaultRegion();
    const float cx = (region.xlo + region.xhi) / 2;
    const float cy = (region.ylo + region.yhi) / 2;

    SpatialJoiner joiner(w.disk.get(), config.ScaledOptions());

    // Pipeline: join -> density grid -> nearest hot cells, one run.
    w.disk->ResetStats();
    CollectingRowSink pipeline_rows;
    PipelineQuery query(joiner);
    query.Input(w.RoadsInput(false))
        .Input(w.HydroInput(false))
        .AggregateByCell(AggregateMode::kCount, kGrid, kGrid, region)
        .TopKByDistance(kTop, cx, cy);
    auto pipeline_stats = query.Run(&pipeline_rows);
    SJ_CHECK(pipeline_stats.ok()) << pipeline_stats.status().ToString();

    // Hand-rolled: materialize every pair, then rebuild the same answer
    // with explicit passes over the pair list.
    w.disk->ResetStats();
    CollectingSink pairs;
    auto join_stats = JoinQuery(joiner)
                          .Input(w.RoadsInput(false))
                          .Input(w.HydroInput(false))
                          .Run(&pairs);
    SJ_CHECK(join_stats.ok()) << join_stats.status().ToString();

    std::unordered_map<ObjectId, RectF> roads_by_id, hydro_by_id;
    roads_by_id.reserve(data.roads.size());
    hydro_by_id.reserve(data.hydro.size());
    for (const RectF& r : data.roads) roads_by_id.emplace(r.id, r);
    for (const RectF& r : data.hydro) hydro_by_id.emplace(r.id, r);

    Grid grid(region, kGrid, kGrid);
    for (const auto& pair : pairs.pairs()) {
      grid.Add(JoinRowAdapter::ContactBox(
          {roads_by_id.at(pair.a), hydro_by_id.at(pair.b)}));
    }
    const std::vector<PipeRow> handrolled =
        TopK(grid.NonZeroRows(), kTop, cx, cy);

    // The contract: identical rows, in the same (ascending distance)
    // order, down to rect corners, cell ids, and counts.
    SJ_CHECK(pipeline_rows.rows() == handrolled)
        << name << ": pipeline and hand-rolled answers diverged";
    // The join hands the pipeline its rectangles, and the grid never
    // spills here: the pipeline moves exactly the pages of its join.
    SJ_CHECK(pipeline_stats->disk.pages_read == join_stats->disk.pages_read &&
             pipeline_stats->disk.pages_written ==
                 join_stats->disk.pages_written)
        << name << ": pipeline read/wrote " << pipeline_stats->disk.pages_read
        << "/" << pipeline_stats->disk.pages_written << " pages, its join "
        << join_stats->disk.pages_read << "/" << join_stats->disk.pages_written;

    // What the hand-rolled path had to hold to get there.
    const uint64_t pairs_bytes =
        pairs.pairs().size() * sizeof(IdPair);
    std::printf("%-10s %10llu %8zu %12.2f %12.2f %14s %14s\n", name.c_str(),
                static_cast<unsigned long long>(join_stats->output_count),
                handrolled.size(), pipeline_stats->ObservedSeconds(machine),
                join_stats->ObservedSeconds(machine),
                HumanBytes(pipeline_stats->peak_memory_bytes).c_str(),
                HumanBytes(pairs_bytes).c_str());
  }
  std::printf(
      "\nIdentical answers on every dataset. The hand-rolled column counts "
      "only the join;\nits grid and top-k passes run on an unbounded "
      "materialized pair list, while the\npipeline streamed rows through a "
      "grant-governed grid band and a %zu-entry heap.\n",
      kTop);
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  sj::bench::Run(sj::bench::BenchConfig::FromArgs(argc, argv));
  return 0;
}
