#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "datagen/synthetic.h"
#include "io/stream.h"
#include "sweep/sweep_join.h"
#include "util/logging.h"

namespace sjbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double GeometricMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

std::string Checksum::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%016" PRIx64, count, sum);
  return buf;
}

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void ChecksumRowSink::Emit(sj::PipeRow row) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(row.value));
  std::memcpy(&bits, &row.value, sizeof(bits));
  uint64_t h = Mix64(bits);
  for (ObjectId id : row.ids) h = Mix64(h ^ id);
  sum_.Add(h);
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::Begin(const std::string& name, uint64_t query) {
  if (!enabled_) return -1;
  const double t = Now() - origin_;
  spans_.push_back(Span{name, t, t, Current(), query});
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<size_t>(span)].end = Now() - origin_;
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

int Tracer::Add(const std::string& name, double start, double end, int parent,
                uint64_t query) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start - origin_, end - origin_, parent, query});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::SelfOf(size_t i) const {
  const Span& s = spans_[i];
  // Union of the children's intervals clipped to the parent (children of
  // asynchronous work may overlap each other).
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent == static_cast<int>(i)) {
      kids.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0, reach = s.start;
  for (const auto& [lo, hi] : kids) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (s.end - s.start) - covered;
}

std::string Tracer::Summary() const {
  std::map<std::string, std::pair<size_t, std::pair<double, double>>> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& e = by_name[spans_[i].name];
    e.first++;
    e.second.first += spans_[i].end - spans_[i].start;
    e.second.second += SelfOf(i);
  }
  std::string out;
  char line[160];
  for (const auto& [name, e] : by_name) {
    std::snprintf(line, sizeof(line), "span %-22s n=%-4zu total=%.4fs self=%.4fs\n",
                  name.c_str(), e.first, e.second.first, e.second.second);
    out += line;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"query\": %" PRIu64
                 ", \"self\": %.9f}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent, s.query,
                 SelfOf(i), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "sjbench: CHECK FAILED: %s\n", what.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                attempted_, failed_);
  out += buf;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                  metrics_[i].second.first, metrics_[i].second.second.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Counters

Counters Counters::Of(const sj::JoinStats& s, const Checksum& sum) {
  Counters c;
  c.sum = sum;
  c.io_seconds = s.disk.io_seconds;
  c.pages_read = s.disk.pages_read;
  c.pages_written = s.disk.pages_written;
  c.read_requests = s.disk.read_requests;
  c.write_requests = s.disk.write_requests;
  c.candidates = s.candidate_count;
  c.index_pages = s.index_pages_read;
  return c;
}

bool Counters::Matches(const Counters& o, double io_slack) const {
  return sum == o.sum && std::fabs(io_seconds - o.io_seconds) <= io_slack &&
         pages_read == o.pages_read && pages_written == o.pages_written &&
         read_requests == o.read_requests && write_requests == o.write_requests &&
         candidates == o.candidates && index_pages == o.index_pages;
}

double IoSlackSeconds(const sj::DiskModel& disk) {
  return 2.0 * static_cast<double>(disk.stream_capacity()) *
         disk.machine().avg_access_ms * 1e-3;
}

std::string Counters::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "checksum=%s io_s=%.17g pages_read=%" PRIu64
                " pages_written=%" PRIu64 " read_requests=%" PRIu64
                " write_requests=%" PRIu64 " candidates=%" PRIu64
                " index_pages=%" PRIu64,
                sum.ToString().c_str(), io_seconds, pages_read, pages_written,
                read_requests, write_requests, candidates, index_pages);
  return buf;
}

// ---------------------------------------------------------------------------
// Layer helpers shared by the workloads

namespace {
// Explain() takes microseconds; each timed sample averages this many.
constexpr int kExplainCalls = 200;
}  // namespace

sj::Result<sj::PlanDecision> TimeExplain(sj::JoinQuery* query, Tracer* tracer,
                                         Values* layers) {
  std::vector<double> per_call;
  sj::Result<sj::PlanDecision> plan = sj::PlanDecision();
  for (int i = 0; i < 5; ++i) {
    Scoped s(tracer, "plan.explain");
    for (int j = 0; j < kExplainCalls; ++j) plan = query->Explain();
    per_call.push_back(s.Close() / kExplainCalls);
  }
  (*layers)["plan.s"] = Median(per_call);
  return plan;
}

double PickEstimate(const sj::PlanDecision& plan) {
  switch (plan.algorithm) {
    case sj::JoinAlgorithm::kPBSM:
      return plan.pbsm_cost_seconds;
    case sj::JoinAlgorithm::kST:
    case sj::JoinAlgorithm::kPQ:
      return plan.index_cost_seconds;
    default:
      return plan.stream_cost_seconds;
  }
}

void IoLayers(const sj::DiskStats& io, double wall, Values* layers) {
  Values& v = *layers;
  v["io.pages_read"] = static_cast<double>(io.pages_read);
  v["io.pages_written"] = static_cast<double>(io.pages_written);
  v["io.random_read_ratio"] =
      io.read_requests == 0 ? 0.0
                            : static_cast<double>(io.random_read_requests) /
                                  static_cast<double>(io.read_requests);
  v["io.wall_s"] = io.io_wall_seconds;
  v["io.wall_share"] = io.io_wall_seconds / wall;
}

// ---------------------------------------------------------------------------
// Data set-up

namespace {

// Sort memory of the Hilbert bulk loads (the workloads' query budget).
constexpr size_t kBulkLoadBytes = 8 * kMiB;
// Data set builds per run; setup_s is their median.
constexpr int kSetupReps = 5;

sj::DatasetRef WriteRelation(sj::Pager* pager,
                             const std::vector<sj::RectF>& rects) {
  sj::StreamWriter<sj::RectF> writer(pager);
  const sj::PageId first = writer.first_page();
  sj::RectF extent = sj::RectF::Empty();
  for (const sj::RectF& r : rects) {
    writer.Append(r);
    extent.ExtendTo(r);
  }
  auto n = writer.Finish();
  SJ_CHECK_OK(n.status());
  sj::DatasetRef ref;
  ref.range = sj::StreamRange{pager, first, n.value()};
  ref.extent = extent;
  return ref;
}

// Join pairs per (road, hydro) record pair in a sample of `fraction` of
// the relations drawn by a generator seeded with `gen_seed`. The county
// geography is fixed by the seed alone, so a sample shows the full data's
// selectivity.
double SampledSelectivity(uint64_t gen_seed, const sj::TigerSpec& t,
                          double fraction) {
  sj::TigerGenerator gen(gen_seed);
  std::vector<sj::RectF> roads, hydro;
  gen.GenerateRoads(std::max<uint64_t>(1, static_cast<uint64_t>(t.road_count * fraction)), &roads);
  gen.GenerateHydro(std::max<uint64_t>(1, static_cast<uint64_t>(t.hydro_count * fraction)), &hydro);
  std::sort(roads.begin(), roads.end(), sj::OrderByYLo());
  std::sort(hydro.begin(), hydro.end(), sj::OrderByYLo());
  sj::VectorRectSource a(&roads), b(&hydro);
  const sj::SweepRunStats stats = sj::SweepJoinWithKind(
      sj::SweepStructureKind::kStriped, gen.region(), 1024, a, b,
      [](const sj::RectF&, const sj::RectF&) {});
  return static_cast<double>(stats.output_count) /
         (static_cast<double>(roads.size()) * static_cast<double>(hydro.size()));
}

}  // namespace

GeneratorPick PickGenerator(const sj::TigerSpec& t, uint64_t seed) {
  GeneratorPick pick;
  const double sample = std::min(
      1.0, static_cast<double>(kSelectivitySampleRoads) / static_cast<double>(t.road_count));
  pick.target = SampledSelectivity(t.seed, t, sample);
  double best_error = 0;
  for (int j = 0; j < kMaxGeneratorTries; ++j) {
    const uint64_t candidate = Mix64(seed * 0x100000001b3ull + static_cast<uint64_t>(j));
    const double sel = SampledSelectivity(candidate, t, sample);
    const double error = std::fabs(sel / pick.target - 1.0);
    if (j == 0 || error < best_error) {
      best_error = error;
      pick.seed = candidate;
      pick.selectivity = sel;
      pick.tries = j + 1;
    }
    if (error <= kSelectivityTolerance) break;
  }
  return pick;
}

std::unique_ptr<Dataset> BuildDataset(const DatasetSpec& spec,
                                      uint64_t generator_seed, double scale) {
  auto d = std::make_unique<Dataset>();
  const sj::TigerSpec tiger =
      sj::PaperDataset(spec.ladder_name, spec.ladder_scale * scale);
  d->region = sj::TigerGenerator::DefaultRegion();

  double t = Now();
  std::vector<sj::RectF> roads, hydro;
  sj::TigerGenerator gen(generator_seed);
  gen.GenerateRoads(tiger.road_count, &roads);
  gen.GenerateHydro(tiger.hydro_count, &hydro);
  std::vector<sj::Segment> roads_geom, hydro_geom;
  if (spec.features) {
    roads_geom = sj::SegmentsForRects(roads);
    hydro_geom = sj::SegmentsForRects(hydro);
  }
  d->datagen_s = Now() - t;

  t = Now();
  d->disk = std::make_unique<sj::DiskModel>(sj::MachineModel::Machine3());
  d->roads_pager = sj::MakeMemoryPager(d->disk.get(), "roads");
  d->hydro_pager = sj::MakeMemoryPager(d->disk.get(), "hydro");
  d->roads = WriteRelation(d->roads_pager.get(), roads);
  d->hydro = WriteRelation(d->hydro_pager.get(), hydro);
  d->load_s = Now() - t;

  if (spec.trees) {
    t = Now();
    d->roads_tree_pager = sj::MakeMemoryPager(d->disk.get(), "roads.rtree");
    d->hydro_tree_pager = sj::MakeMemoryPager(d->disk.get(), "hydro.rtree");
    auto scratch = sj::MakeMemoryPager(d->disk.get(), "bulkload.scratch");
    const sj::RTreeParams params;  // The paper's 400 / 75 % / 20 % packing.
    auto rt = sj::RTree::BulkLoadHilbert(d->roads_tree_pager.get(),
                                         d->roads.range, scratch.get(), params,
                                         kBulkLoadBytes);
    auto ht = sj::RTree::BulkLoadHilbert(d->hydro_tree_pager.get(),
                                         d->hydro.range, scratch.get(), params,
                                         kBulkLoadBytes);
    SJ_CHECK_OK(rt.status());
    SJ_CHECK_OK(ht.status());
    d->roads_tree.emplace(std::move(rt).value());
    d->hydro_tree.emplace(std::move(ht).value());
    d->bulkload_s = Now() - t;
  }
  if (spec.features) {
    t = Now();
    d->roads_geom_pager = sj::MakeMemoryPager(d->disk.get(), "roads.geom");
    d->hydro_geom_pager = sj::MakeMemoryPager(d->disk.get(), "hydro.geom");
    auto rs = sj::FeatureStore::Build(d->roads_geom_pager.get(), roads_geom,
                                      "roads.geom");
    auto hs = sj::FeatureStore::Build(d->hydro_geom_pager.get(), hydro_geom,
                                      "hydro.geom");
    SJ_CHECK_OK(rs.status());
    SJ_CHECK_OK(hs.status());
    d->roads_store.emplace(std::move(rs).value());
    d->hydro_store.emplace(std::move(hs).value());
    d->features_s = Now() - t;
  }
  // Set-up I/O is not part of any query.
  d->disk->ResetStats();
  return d;
}

SetupResult SetUp(const DatasetSpec& spec, const Options& opts) {
  SetupResult out;
  const double t = Now();
  out.pick = PickGenerator(
      sj::PaperDataset(spec.ladder_name, spec.ladder_scale * opts.scale), opts.seed);
  std::printf("generator: seed %llu after %d tries in %.3f s, sampled selectivity %.4g "
              "(target %.4g)\n",
              static_cast<unsigned long long>(out.pick.seed), out.pick.tries, Now() - t,
              out.pick.selectivity, out.pick.target);
  std::vector<double> totals, datagen, bulkload;
  std::string each;
  for (int i = 0; i < kSetupReps; ++i) {
    out.data.reset();  // Free the previous build before timing the next.
    out.data = BuildDataset(spec, out.pick.seed, opts.scale);
    totals.push_back(out.data->total_s());
    datagen.push_back(out.data->datagen_s);
    bulkload.push_back(out.data->bulkload_s);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", totals.back());
    each += buf;
  }
  out.setup_s = Median(totals);
  out.datagen_s = Median(datagen);
  out.bulkload_s = Median(bulkload);
  std::printf("setup: %zu builds, median %.4f s (datagen %.4f s, bulk load %.4f s); each%s\n",
              totals.size(), out.setup_s, out.datagen_s, out.bulkload_s, each.c_str());
  return out;
}

}  // namespace sjbench
