// The two single-client workloads on one DISK1-like data set:
//
//  tiger-stream   both inputs non-indexed; SSSJ and PBSM alternate. External
//                 sort, sweep, emit, PBSM partitioning and file-backed
//                 scratch I/O do the work; R-trees, the buffer pool,
//                 refinement and the service are idle.
//  tiger-indexed  Hilbert R-trees on both inputs; ST, PQ (index x index)
//                 and PQ (roads index x hydro stream) rotate. R-tree
//                 traversal, the ST pool and the PQ queues dominate; sort
//                 only sees the hydro stream, PBSM and file I/O nothing.
//
// Both are closed loops with one client, so a query's latency is its wall
// time.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "core/join_query.h"
#include "histogram/grid_histogram.h"
#include "io/stream.h"
#include "join/partition_plan.h"
#include "join/pbsm.h"
#include "join/pq_join.h"
#include "join/sources.h"
#include "join/sssj.h"
#include "join/st_join.h"
#include "sort/external_sort.h"
#include "sweep/sweep_join.h"

namespace sjbench {
namespace {

constexpr size_t kBudget = 8 * kMiB;
constexpr uint32_t kThreads = 4;
// Standalone layer calls repeat this often; their median is reported.
constexpr int kLayerReps = 3;
// latency_s_tail's percentile: a 30 s run completes 34 to 46 queries
// (host speed drifts), so p70 is the highest multiple of five with at
// least ten samples beyond it in every run.
constexpr double kTailPercentile = 70;

struct Kind {
  std::string name;
  sj::JoinQuery query;
  std::function<sj::Result<sj::JoinStats>(sj::JoinSink*)> direct;
};

struct Run {
  size_t kind = 0;
  double wall = 0;
  double cpu = 0;
  sj::JoinStats stats;
  Checksum sum;
  bool ok = false;
};

struct Loop {
  std::vector<Run> runs;
  std::vector<double> rotation_walls;
  double wall = 0;
};

// Keeps the per-pair virtual call of the library's sinks: the optimizer
// must not see which sink it is.
__attribute__((noipa)) sj::JoinSink* Opaque(sj::JoinSink* sink) { return sink; }

std::vector<sj::RectF> ReadAll(const sj::StreamRange& range) {
  std::vector<sj::RectF> out;
  out.reserve(range.count);
  sj::StreamReader<sj::RectF> reader(range.pager, range.first_page,
                                     range.count);
  while (std::optional<sj::RectF> r = reader.Next()) out.push_back(*r);
  return out;
}

std::vector<sj::RectF> Drain(sj::RTreePQSource* source) {
  std::vector<sj::RectF> out;
  while (std::optional<sj::RectF> r = source->Next()) out.push_back(*r);
  return out;
}

class Bench {
 public:
  Bench(const Options& opts, Report* report)
      : opts_(opts),
        report_(report),
        indexed_(opts.workload == "tiger-indexed"),
        tracer_(opts.trace) {}

  int Main();

 private:
  void MakeKinds();
  Run RunOnce(size_t k, bool traced, uint64_t id);
  /// Checks a timed run against the warm-up reference and against the
  /// first timed run of its kind; counts it as attempted / failed.
  void Check(const Run& r);
  Loop TimedLoop(double seconds, bool traced);
  void EndToEnd(const Loop& loop);
  void Layers(const Loop& untraced, const Loop& traced);

  const Options& opts_;
  Report* report_;
  const bool indexed_;
  Tracer tracer_;
  SetupResult setup_;
  std::unique_ptr<sj::SpatialJoiner> joiner_;
  std::shared_ptr<sj::StorageFactory> files_;
  std::vector<Kind> kinds_;
  std::vector<Checksum> reference_;
  std::vector<std::optional<Counters>> first_;
  uint64_t next_id_ = 1;
};

void Bench::MakeKinds() {
  Dataset& d = *setup_.data;
  auto query = [&](const sj::JoinInput& a, const sj::JoinInput& b,
                   sj::JoinAlgorithm algo) {
    sj::JoinQuery q(*joiner_);
    q.Input(a).Input(b).Algorithm(algo).MemoryBytes(kBudget).Threads(kThreads);
    if (files_ != nullptr) q.Storage(files_);
    return q;
  };
  const auto roads = sj::JoinInput::FromStream(d.roads);
  const auto hydro = sj::JoinInput::FromStream(d.hydro);
  sj::DiskModel* disk = d.disk.get();
  if (!indexed_) {
    kinds_.push_back({"sssj", query(roads, hydro, sj::JoinAlgorithm::kSSSJ), {}});
    kinds_.push_back({"pbsm", query(roads, hydro, sj::JoinAlgorithm::kPBSM), {}});
    const sj::JoinOptions o0 = kinds_[0].query.options();
    const sj::JoinOptions o1 = kinds_[1].query.options();
    kinds_[0].direct = [&d, disk, o0](sj::JoinSink* s) {
      return sj::SSSJJoin(d.roads, d.hydro, disk, o0, s);
    };
    kinds_[1].direct = [&d, disk, o1](sj::JoinSink* s) {
      return sj::PBSMJoin(d.roads, d.hydro, disk, o1, s);
    };
    return;
  }
  const auto roads_idx = sj::JoinInput::FromRTree(&*d.roads_tree);
  const auto hydro_idx = sj::JoinInput::FromRTree(&*d.hydro_tree);
  kinds_.push_back({"st", query(roads_idx, hydro_idx, sj::JoinAlgorithm::kST), {}});
  kinds_.push_back({"pq", query(roads_idx, hydro_idx, sj::JoinAlgorithm::kPQ), {}});
  kinds_.push_back({"pq_mixed", query(roads_idx, hydro, sj::JoinAlgorithm::kPQ), {}});
  const sj::JoinOptions o0 = kinds_[0].query.options();
  const sj::JoinOptions o1 = kinds_[1].query.options();
  const sj::JoinOptions o2 = kinds_[2].query.options();
  kinds_[0].direct = [&d, disk, o0](sj::JoinSink* s) {
    return sj::STJoin(*d.roads_tree, *d.hydro_tree, disk, o0, s);
  };
  kinds_[1].direct = [&d, disk, o1](sj::JoinSink* s) {
    return sj::PQJoin(*d.roads_tree, *d.hydro_tree, disk, o1, s);
  };
  kinds_[2].direct = [&d, disk, o2](sj::JoinSink* s) {
    return sj::PQJoinIndexStream(*d.roads_tree, d.hydro, disk, o2, s);
  };
}

Run Bench::RunOnce(size_t k, bool traced, uint64_t id) {
  Run r;
  r.kind = k;
  ChecksumSink sink;
  Tracer* tracer = traced ? &tracer_ : nullptr;
  const int span = tracer ? tracer->Begin("query." + kinds_[k].name, id) : -1;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  sj::Result<sj::JoinStats> result = kinds_[k].query.Run(&sink);
  r.wall = Now() - t0;
  r.cpu = ProcessCpuSeconds() - cpu0;
  if (tracer) tracer->End(span);
  if (!result.ok()) {
    std::fprintf(stderr, "sjbench: %s query failed: %s\n",
                 kinds_[k].name.c_str(), result.status().ToString().c_str());
    return r;
  }
  r.stats = *result;
  r.sum = sink.checksum();
  r.ok = true;
  return r;
}

void Bench::Check(const Run& r) {
  report_->Attempt();
  const std::string& name = kinds_[r.kind].name;
  if (!r.ok) {
    report_->FailQuery(name + ": query returned an error");
    return;
  }
  if (r.sum != reference_[r.kind]) {
    report_->FailQuery(name + ": checksum " + r.sum.ToString() +
                       " differs from the warm-up's " +
                       reference_[r.kind].ToString());
    return;
  }
  const Counters c = Counters::Of(r.stats, r.sum);
  if (!first_[r.kind].has_value()) {
    first_[r.kind] = c;
  } else if (!c.Matches(*first_[r.kind], IoSlackSeconds(*setup_.data->disk))) {
    report_->FailQuery(name + ": counters " + c.ToString() +
                       " differ from the first timed run's " +
                       first_[r.kind]->ToString());
  }
}

Loop Bench::TimedLoop(double seconds, bool traced) {
  Loop loop;
  const double t0 = Now();
  while (Now() - t0 < seconds) {
    const double r0 = Now();
    Scoped rotation(traced ? &tracer_ : nullptr, "rotation");
    for (size_t k = 0; k < kinds_.size(); ++k) {
      Run r = RunOnce(k, traced, next_id_++);
      Check(r);
      loop.runs.push_back(std::move(r));
    }
    rotation.Close();
    loop.rotation_walls.push_back(Now() - r0);
  }
  loop.wall = Now() - t0;
  return loop;
}

void Bench::EndToEnd(const Loop& loop) {
  std::vector<double> walls;
  double pairs = 0, peak = 0;
  for (const Run& r : loop.runs) {
    walls.push_back(r.wall);
    pairs += static_cast<double>(r.stats.output_count);
    peak = std::max(peak, static_cast<double>(r.stats.peak_memory_bytes));
  }
  std::vector<double> kind_p50;
  for (size_t k = 0; k < kinds_.size(); ++k) {
    std::vector<double> kw;
    for (const Run& r : loop.runs) {
      if (r.kind == k) kw.push_back(r.wall);
    }
    kind_p50.push_back(Median(kw));
    std::printf("metric %s_s = %.6f s (median of %zu)\n", kinds_[k].name.c_str(),
                kind_p50.back(), kw.size());
  }
  std::printf("timed: %zu queries in %zu rotations, %.3f s; pooled latency p50 %.6f s, "
              "tail p%.0f\n",
              loop.runs.size(), loop.rotation_walls.size(), loop.wall,
              Percentile(walls, 50), kTailPercentile);
  Values v;
  v["setup_s"] = setup_.setup_s;
  v["latency_s_kinds_p50"] = GeometricMean(kind_p50);
  v["latency_s_tail"] = Percentile(walls, kTailPercentile);
  v["queries_per_s"] = static_cast<double>(loop.runs.size()) / loop.wall;
  v["pairs_per_s"] = pairs / loop.wall;
  // One rotation's modeled seconds, from the first timed rotation (the
  // figures the `counters` lines print).
  v["modeled_io_s"] = 0;
  for (const std::optional<Counters>& c : first_) {
    if (c.has_value()) v["modeled_io_s"] += c->io_seconds;
  }
  v["peak_grant_mb"] = peak / static_cast<double>(kMiB);
  ReportEndToEnd(v, report_);
}

void Bench::Layers(const Loop& untraced, const Loop& traced) {
  Dataset& d = *setup_.data;
  sj::DiskModel* disk = d.disk.get();
  const sj::JoinOptions o = kinds_[0].query.options();
  Values v;
  v["datagen.s"] = setup_.datagen_s;
  v["rtree.bulkload_s"] = setup_.bulkload_s;
  v["trace.overhead"] = Median(traced.rotation_walls) /
                            Median(untraced.rotation_walls) - 1.0;

  // The query path, per kind: median JoinQuery wall over the traced runs,
  // and the first traced rotation's stats.
  std::vector<double> query_wall(kinds_.size());
  std::vector<const Run*> sample(kinds_.size(), nullptr);
  double cpu = 0, wall = 0;
  for (size_t k = 0; k < kinds_.size(); ++k) {
    std::vector<double> w;
    for (const Run& r : traced.runs) {
      if (r.kind != k) continue;
      w.push_back(r.wall);
      if (sample[k] == nullptr) sample[k] = &r;
    }
    query_wall[k] = Median(w);
  }
  sj::DiskStats rotation_io;
  for (const Run* r : sample) {
    rotation_io += r->stats.disk;
    cpu += r->cpu;
    wall += r->wall;
  }
  v["mem.peak_rss_mb"] = PeakRssMiB();
  IoLayers(rotation_io, wall, &v);
  v["pool.cpu_per_wall"] = cpu / wall;

  Scoped layers(&tracer_, "layers");
  // Direct algorithm calls on the same inputs and options as the queries:
  // same checksum, and the wall the query layer adds on top.
  std::vector<sj::JoinStats> direct(kinds_.size());
  double overhead = 0;
  for (size_t k = 0; k < kinds_.size(); ++k) {
    std::vector<double> walls;
    for (int rep = 0; rep < kLayerReps; ++rep) {
      ChecksumSink sink;
      report_->Attempt();
      Scoped s(&tracer_, "join." + kinds_[k].name);
      sj::Result<sj::JoinStats> r = kinds_[k].direct(&sink);
      walls.push_back(s.Close());
      if (!r.ok() || sink.checksum() != reference_[k]) {
        report_->FailQuery("direct " + kinds_[k].name +
                           " call does not reproduce the query's checksum");
        continue;
      }
      direct[k] = *r;
    }
    const double t = Median(walls);
    v["join." + kinds_[k].name + "_s"] = t;
    overhead += query_wall[k] - t;
  }
  v["core.query_overhead_s"] = overhead / static_cast<double>(kinds_.size());

  // Sort: what SSSJ does to both inputs, and PQ index x stream to the
  // hydro stream: half the query budget each, under one query arbiter.
  auto sort_input = [&](const sj::DatasetRef& input, std::vector<sj::RectF>* sorted,
                        double* form_s, double* sort_s, uint32_t* runs,
                        uint32_t* passes) -> sj::Status {
    sj::MemoryArbiter arbiter(o.memory_bytes);
    SJ_ASSIGN_OR_RETURN(auto scratch, sj::MakePager(files_.get(), disk, "bench.sort.runs"));
    SJ_ASSIGN_OR_RETURN(auto out, sj::MakePager(files_.get(), disk, "bench.sort.out"));
    {
      sj::ExternalSorter<sj::RectF, sj::OrderByYLo> former(
          o.memory_bytes / 2, scratch.get(), sj::OrderByYLo(), &arbiter,
          sj::PrefetchContextOf(o), sj::SortConfigOf(o));
      std::vector<sj::StreamRange> formed;
      Scoped s(&tracer_, "sort.form");
      SJ_RETURN_IF_ERROR(former.FormRuns(input.range, &formed));
      *form_s += s.Close();
    }
    sj::ExternalSorter<sj::RectF, sj::OrderByYLo> sorter(
        o.memory_bytes / 2, scratch.get(), sj::OrderByYLo(), &arbiter,
        sj::PrefetchContextOf(o), sj::SortConfigOf(o));
    Scoped s(&tracer_, "sort.sort");
    SJ_ASSIGN_OR_RETURN(sj::StreamRange range, sorter.Sort(input.range, out.get()));
    *sort_s += s.Close();
    *runs = std::max(*runs, sorter.stats().runs);
    *passes = std::max(*passes, sorter.stats().merge_passes);
    *sorted = ReadAll(range);
    return sj::Status::OK();
  };
  double form_s = 0, sort_s = 0;
  uint32_t runs = 0, passes = 0;
  uint64_t sorted_records = 0;
  std::vector<sj::RectF> va, vb;
  sj::RectF extent = d.roads.extent;
  extent.ExtendTo(d.hydro.extent);
  if (!indexed_) {
    sj::Status st = sort_input(d.roads, &va, &form_s, &sort_s, &runs, &passes);
    if (st.ok()) st = sort_input(d.hydro, &vb, &form_s, &sort_s, &runs, &passes);
    if (!st.ok()) report_->Fail("layer sort failed: " + st.ToString());
    sorted_records = d.roads.count() + d.hydro.count();
  } else {
    std::vector<sj::RectF> hydro_sorted;
    sj::Status st = sort_input(d.hydro, &hydro_sorted, &form_s, &sort_s, &runs, &passes);
    if (!st.ok()) report_->Fail("layer sort failed: " + st.ToString());
    sorted_records = d.hydro.count();
    // The PQ sources: each tree drained in ylo order, as PQ's sweep pulls it.
    Scoped s(&tracer_, "rtree.pq_traverse");
    sj::RTreePQSource sa(&*d.roads_tree), sb(&*d.hydro_tree);
    va = Drain(&sa);
    vb = Drain(&sb);
    v["rtree.traverse_s"] = s.Close();
    extent = d.roads_tree->bounding_box();
    extent.ExtendTo(d.hydro_tree->bounding_box());
  }
  v["sort.form_s"] = form_s;
  v["sort.merge_s"] = sort_s - form_s;
  v["sort.records_per_s"] = static_cast<double>(sorted_records) / sort_s;
  v["sort.runs"] = runs;
  v["sort.merge_passes"] = passes;

  // Sweep over the sorted inputs in memory: counting only (the kernel),
  // then emitting through a JoinSink (the per-pair virtual call).
  const size_t swept = indexed_ ? 1 : 0;  // The query whose output it is.
  auto sweep = [&](sj::SweepStructureKind kind, const char* span,
                   sj::JoinSink* sink, sj::SweepRunStats* stats) {
    sj::VectorRectSource sa(&va), sb(&vb);
    uint64_t n = 0;
    Scoped s(&tracer_, span);
    if (sink == nullptr) {
      *stats = sj::SweepJoinWithKind(kind, extent, o.striped_strips, sa, sb,
                                     [&n](const sj::RectF&, const sj::RectF&) { ++n; });
    } else {
      *stats = sj::SweepJoinWithKind(
          kind, extent, o.striped_strips, sa, sb,
          [sink](const sj::RectF& a, const sj::RectF& b) { sink->Emit(a.id, b.id); });
    }
    return s.Close();
  };
  sj::SweepRunStats striped, forward, emitted;
  std::vector<double> sweep_walls, emit_walls;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    sweep_walls.push_back(sweep(o.stream_sweep, "sweep", nullptr, &striped));
    ChecksumSink emit_sink;
    emit_walls.push_back(sweep(o.stream_sweep, "sweep.emit", Opaque(&emit_sink), &emitted));
    report_->Attempt();
    if (striped.output_count != reference_[swept].count ||
        emit_sink.checksum() != reference_[swept]) {
      report_->FailQuery("standalone sweep does not reproduce the " +
                         kinds_[swept].name + " output");
    }
  }
  const double sweep_s = Median(sweep_walls);
  const double emit_s = Median(emit_walls);
  v["sweep.forward_s"] = sweep(sj::SweepStructureKind::kForward, "sweep.forward",
                               nullptr, &forward);
  report_->Attempt();
  if (forward.output_count != reference_[swept].count) {
    report_->FailQuery("standalone forward sweep does not reproduce the " +
                       kinds_[swept].name + " output");
  }
  v["sweep.s"] = sweep_s;
  v["sweep.pairs_per_s"] = static_cast<double>(striped.output_count) / sweep_s;
  v["sweep.max_active"] = static_cast<double>(striped.max_active);
  v["sweep.structure_mb"] =
      static_cast<double>(striped.max_structure_bytes) / static_cast<double>(kMiB);
  v["emit.s"] = emit_s - sweep_s;

  if (!indexed_) {
    v["join.sssj_self_s"] = v["join.sssj_s"] - sort_s - sweep_s;
    const sj::JoinStats& pbsm = direct[1];
    v["pbsm.partitions"] = pbsm.partitions_total;
    v["pbsm.overflowed"] = pbsm.partitions_overflowed;
    const double input_pages = static_cast<double>(
        d.roads_pager->page_count() + d.hydro_pager->page_count());
    v["pbsm.write_amp"] = static_cast<double>(pbsm.disk.pages_written) / input_pages;
    // Partition planning as PBSM runs it: sampled histograms of both
    // inputs at the configured resolution, then the adaptive planner.
    const uint32_t res = o.pbsm_histogram_resolution;
    Scoped s(&tracer_, "pbsm.plan");
    auto ha = sj::GridHistogram::BuildSampled(d.roads.range, extent, res, res,
                                              sj::kPbsmHistogramSampleOneInBlocks);
    auto hb = sj::GridHistogram::BuildSampled(d.hydro.range, extent, res, res,
                                              sj::kPbsmHistogramSampleOneInBlocks);
    if (ha.ok() && hb.ok()) {
      sj::PartitionPlannerConfig config;
      config.memory_bytes = o.memory_bytes;
      config.max_resolution = std::max(config.max_resolution, res);
      auto plan = sj::PartitionPlanner::Plan(extent, *ha, *hb, config);
      v["pbsm.plan_s"] = s.Close();
      if (plan->partitions() != pbsm.partitions_total) {
        report_->Fail("standalone partition plan differs from PBSM's");
      }
    } else {
      report_->Fail("histogram build failed");
    }
  } else {
    const sj::JoinStats& st = direct[0];
    const sj::JoinStats& pq = direct[1];
    const double nodes = static_cast<double>(d.roads_tree->node_count() +
                                             d.hydro_tree->node_count());
    v["rtree.nodes"] = nodes;
    v["st.pool_hit_ratio"] =
        st.pool_requests == 0 ? 0.0
                              : static_cast<double>(st.pool_hits) /
                                    static_cast<double>(st.pool_requests);
    v["st.index_pages_read"] = static_cast<double>(st.index_pages_read);
    v["pq.pages_per_node"] = static_cast<double>(pq.index_pages_read) / nodes;
    v["pq.max_queue_mb"] =
        static_cast<double>(pq.max_queue_bytes) / static_cast<double>(kMiB);
  }

  // The planner: Explain() cost, its pick, and its estimate against the
  // modeled time of running that pick.
  sj::JoinQuery auto_query = kinds_[0].query;
  auto_query.Algorithm(sj::JoinAlgorithm::kAuto);
  const sj::Result<sj::PlanDecision> plan = TimeExplain(&auto_query, &tracer_, &v);
  if (plan.ok()) {
    ChecksumSink sink;
    report_->Attempt();
    Scoped s(&tracer_, "plan.run");
    sj::Result<sj::JoinStats> r = auto_query.Run(&sink);
    s.Close();
    if (!r.ok() || sink.checksum() != reference_[0]) {
      report_->FailQuery("the planner's pick does not reproduce the output");
    } else {
      v["plan.estimate_error"] =
          EstimateError(PickEstimate(*plan), r->ObservedSeconds(disk->machine()));
    }
    std::printf("plan: %s\n", plan->Describe().c_str());
  } else {
    report_->Fail("Explain failed: " + plan.status().ToString());
  }
  layers.Close();
  ReportLayers(v, report_);
}

int Bench::Main() {
  const DatasetSpec spec{"DISK1", 0.25, /*trees=*/indexed_, /*features=*/false};
  setup_ = SetUp(spec, opts_);
  Dataset& d = *setup_.data;
  std::printf("data: %llu roads x %llu hydro",
              static_cast<unsigned long long>(d.roads.count()),
              static_cast<unsigned long long>(d.hydro.count()));
  if (indexed_) {
    std::printf(", %llu + %llu index pages",
                static_cast<unsigned long long>(d.roads_tree->node_count()),
                static_cast<unsigned long long>(d.hydro_tree->node_count()));
  }
  std::printf("\n");
  joiner_ = std::make_unique<sj::SpatialJoiner>(d.disk.get(), sj::JoinOptions());
  if (!indexed_) {
    auto files = sj::TmpFileStorageFactory::Make(opts_.tmp_dir);
    if (!files.ok()) {
      std::fprintf(stderr, "sjbench: %s\n", files.status().ToString().c_str());
      return 2;
    }
    files_ = std::move(files).value();
  }
  MakeKinds();

  // The simulated drive's stream state carries over between queries, so
  // every timed query must follow the same kind it will follow in steady
  // rotation: anything extra runs before the warm-up rotation. On the
  // indexed workload that is a streaming SSSJ of the same data, the
  // reference every kind must match — so both workloads produce one
  // checksum per seed.
  std::optional<Checksum> expected;
  if (indexed_) {
    sj::JoinQuery sssj(*joiner_);
    sssj.Input(sj::JoinInput::FromStream(d.roads))
        .Input(sj::JoinInput::FromStream(d.hydro))
        .Algorithm(sj::JoinAlgorithm::kSSSJ)
        .MemoryBytes(kBudget)
        .Threads(kThreads);
    ChecksumSink sink;
    sj::Result<sj::JoinStats> r = sssj.Run(&sink);
    if (!r.ok()) {
      report_->Fail("reference SSSJ failed");
      return 1;
    }
    expected = sink.checksum();
  }
  // Warm-up rotation (untimed): fills caches and lazy set-up, and gives
  // each kind's reference checksum; every kind must agree.
  reference_.resize(kinds_.size());
  first_.resize(kinds_.size());
  for (size_t k = 0; k < kinds_.size(); ++k) {
    Run r = RunOnce(k, false, 0);
    if (!r.ok) {
      report_->Fail("warm-up " + kinds_[k].name + " failed");
      return 1;
    }
    reference_[k] = r.sum;
    std::printf("warm-up %s: %.4f s, %s\n", kinds_[k].name.c_str(), r.wall,
                r.sum.ToString().c_str());
  }
  if (!expected.has_value()) expected = reference_[0];
  std::printf("checksum %s\n", expected->ToString().c_str());
  for (size_t k = 0; k < kinds_.size(); ++k) {
    if (reference_[k] != *expected) {
      report_->Fail(kinds_[k].name + " disagrees with the reference output: " +
                    reference_[k].ToString() + " vs " + expected->ToString());
    }
  }

  const double phase = opts_.trace ? opts_.seconds / 2 : opts_.seconds;
  const Loop untraced = TimedLoop(phase, false);
  for (size_t k = 0; k < kinds_.size(); ++k) {
    if (first_[k].has_value()) {
      std::printf("counters %s %s\n", kinds_[k].name.c_str(),
                  first_[k]->ToString().c_str());
    }
  }
  if (!opts_.trace) {
    EndToEnd(untraced);
    return 0;
  }
  const Loop traced = TimedLoop(phase, true);
  Layers(untraced, traced);
  std::printf("%s", tracer_.Summary().c_str());
  if (!opts_.trace_out.empty() && !tracer_.Write(opts_.trace_out)) {
    report_->Fail("could not write " + opts_.trace_out);
  }
  return 0;
}

}  // namespace

int RunStreamOrIndexed(const Options& opts, Report* report) {
  Bench bench(opts, report);
  const int rc = bench.Main();
  return rc;
}

}  // namespace sjbench
