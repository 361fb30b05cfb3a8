// service-refine: one SpatialService (4 workers, a 4096-page shared 2Q
// pool, a 36 MiB global budget) serving a fixed rotation of five query
// kinds, with one client thread keeping four queries in flight (a closed
// loop of four outstanding requests). It is the only workload where
// refinement, the operator pipeline, admission control and the planner's
// kAuto pick do real work, and where the same join code runs under
// contention between queries rather than parallelism within one.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "core/join_query.h"
#include "core/pipeline_query.h"
#include "refine/refine.h"
#include "service/spatial_service.h"

namespace sjbench {
namespace {

constexpr size_t kInFlight = 4;
constexpr uint32_t kQueryThreads = 2;
// latency_s_tail's percentile: a 30 s run completes 269 to 338 queries,
// so p95 is the highest multiple of five with at least ten samples beyond
// it in every run.
constexpr double kTailPercentile = 95;

struct Kind {
  std::string name;
  std::optional<sj::JoinQuery> join;
  std::optional<sj::PipelineQuery> pipeline;
};

/// One completed submission.
struct Done {
  size_t kind = 0;
  uint64_t id = 0;
  double submit = 0, admitted = 0, end = 0;
  bool ok = false;
  bool degraded = false;
  Checksum sum;
  uint64_t pairs = 0;       // Join result pairs (the pipeline's join output).
  uint64_t candidates = 0;
  double io_seconds = 0;
  sj::DiskStats disk;
  double observed_s = 0;    // Modeled observed seconds (JoinStats only).
  double latency() const { return end - submit; }
};

/// One submission in flight.
struct Flight {
  size_t kind = 0;
  double submit = 0;
  double admitted = 0;
  std::unique_ptr<ChecksumSink> sink;
  std::unique_ptr<ChecksumRowSink> rows;
  sj::SubmittedQuery query;
  sj::SubmittedPipeline pipe;

  bool done() const { return rows ? pipe.done() : query.done(); }
  size_t granted() const { return rows ? pipe.granted_bytes() : query.granted_bytes(); }
};

class Bench {
 public:
  Bench(const Options& opts, Report* report)
      : opts_(opts), report_(report), tracer_(opts.trace) {}

  int Main();

 private:
  void MakeKinds();
  Flight Submit(size_t k);
  Done Collect(Flight& f, double end);
  /// Checks a completed query against its kind's solo reference.
  void Check(const Done& d);
  /// Runs every kind `reps` times alone; the first run of each kind is
  /// its reference.
  void Solo(int reps);
  /// Keeps kInFlight queries in flight for `seconds`, then drains.
  struct Phase {
    std::vector<Done> done;
    double wall = 0;
    double cpu = 0;
    sj::BufferPoolStats pool;
  };
  Phase Concurrent(double seconds, bool traced);
  void EndToEnd(const Phase& phase);
  void Layers(const Phase& untraced, const Phase& traced);

  const Options& opts_;
  Report* report_;
  Tracer tracer_;
  SetupResult setup_;
  std::unique_ptr<sj::SpatialJoiner> joiner_;
  std::unique_ptr<sj::SpatialService> service_;
  std::vector<Kind> kinds_;
  std::vector<std::optional<Done>> reference_;
  std::vector<std::vector<Done>> solo_;
  size_t next_kind_ = 0;
};

void Bench::MakeKinds() {
  Dataset& d = *setup_.data;
  const auto roads = sj::JoinInput::FromRTree(&*d.roads_tree).WithFeatures(&*d.roads_store);
  const auto hydro = sj::JoinInput::FromRTree(&*d.hydro_tree).WithFeatures(&*d.hydro_store);
  auto join = [&](const sj::JoinInput& b, size_t budget) {
    sj::JoinQuery q(*joiner_);
    q.Input(roads).Input(b).MemoryBytes(budget).Threads(kQueryThreads);
    return q;
  };
  kinds_.resize(5);
  kinds_[0].name = "refine";
  kinds_[0].join.emplace(join(hydro, 16 * kMiB).Refine(true));
  kinds_[1].name = "within";
  kinds_[1].join.emplace(join(hydro, 16 * kMiB)
                             .Refine(true)
                             .Predicate(sj::Predicate::kDistanceWithin, 0.01));
  kinds_[2].name = "st";
  kinds_[2].join.emplace(join(hydro, 8 * kMiB).Algorithm(sj::JoinAlgorithm::kST));
  kinds_[3].name = "pq_mixed";
  kinds_[3].join.emplace(join(sj::JoinInput::FromStream(d.hydro), 8 * kMiB)
                             .Algorithm(sj::JoinAlgorithm::kPQ));
  kinds_[4].name = "pipeline";
  const float cx = (d.region.xlo + d.region.xhi) / 2;
  const float cy = (d.region.ylo + d.region.yhi) / 2;
  sj::PipelineQuery p(*joiner_);
  p.Input(sj::JoinInput::FromRTree(&*d.roads_tree))
      .Input(sj::JoinInput::FromRTree(&*d.hydro_tree))
      .AggregateByCell(sj::AggregateMode::kCount, 64, 64, d.region)
      .TopKByDistance(16, cx, cy)
      .MemoryBytes(8 * kMiB)
      .Threads(kQueryThreads);
  kinds_[4].pipeline.emplace(p);
}

Flight Bench::Submit(size_t k) {
  Flight f;
  f.kind = k;
  f.submit = Now();
  if (kinds_[k].pipeline) {
    f.rows = std::make_unique<ChecksumRowSink>();
    f.pipe = service_->Submit(*kinds_[k].pipeline, f.rows.get());
  } else {
    f.sink = std::make_unique<ChecksumSink>();
    f.query = service_->Submit(*kinds_[k].join, f.sink.get());
  }
  return f;
}

Done Bench::Collect(Flight& f, double end) {
  Done d;
  d.kind = f.kind;
  d.submit = f.submit;
  d.admitted = f.admitted > 0 ? f.admitted : f.submit;
  d.end = end;
  if (f.rows) {
    const sj::Result<sj::PipelineStats>& r = f.pipe.Result();
    d.id = f.pipe.id();
    d.degraded = f.pipe.degraded();
    if (!r.ok()) {
      std::fprintf(stderr, "sjbench: pipeline failed: %s\n", r.status().ToString().c_str());
      return d;
    }
    d.ok = true;
    d.sum = f.rows->checksum();
    d.pairs = r->candidate_count;
    d.candidates = r->candidate_count;
    d.io_seconds = r->disk.io_seconds;
    d.disk = r->disk;
    return d;
  }
  const sj::Result<sj::JoinStats>& r = f.query.Result();
  d.id = f.query.id();
  d.degraded = f.query.degraded();
  if (!r.ok()) {
    std::fprintf(stderr, "sjbench: %s query failed: %s\n", kinds_[f.kind].name.c_str(),
                 r.status().ToString().c_str());
    return d;
  }
  d.ok = true;
  d.sum = f.sink->checksum();
  d.pairs = r->output_count;
  d.candidates = r->candidate_count;
  d.io_seconds = r->disk.io_seconds;
  d.disk = r->disk;
  d.observed_s = r->ObservedSeconds(setup_.data->disk->machine());
  return d;
}

void Bench::Check(const Done& d) {
  report_->Attempt();
  const std::string& name = kinds_[d.kind].name;
  if (!d.ok) {
    report_->FailQuery(name + ": query returned an error");
    return;
  }
  const Done& ref = *reference_[d.kind];
  if (d.sum != ref.sum || d.candidates != ref.candidates) {
    report_->FailQuery(name + ": output " + d.sum.ToString() + " / " +
                       std::to_string(d.candidates) + " candidates differs from the solo run's " +
                       ref.sum.ToString() + " / " + std::to_string(ref.candidates));
  }
}

void Bench::Solo(int reps) {
  reference_.resize(kinds_.size());
  solo_.resize(kinds_.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t k = 0; k < kinds_.size(); ++k) {
      Flight f = Submit(k);
      if (f.rows) f.pipe.Wait(); else f.query.Wait();
      Done d = Collect(f, Now());
      if (!reference_[k].has_value()) {
        if (!d.ok) {
          report_->Fail("solo " + kinds_[k].name + " failed");
          continue;
        }
        reference_[k] = d;
        std::printf("solo %s: %.4f s, %s candidates=%llu io_s=%.17g\n",
                    kinds_[k].name.c_str(), d.latency(), d.sum.ToString().c_str(),
                    static_cast<unsigned long long>(d.candidates), d.io_seconds);
      } else {
        // Output only: later solo runs find the shared pool warm and the
        // disk's stream state moved, so their modeled I/O legitimately
        // differs from the first rotation's.
        Check(d);
      }
      solo_[k].push_back(d);
    }
  }
}

Bench::Phase Bench::Concurrent(double seconds, bool traced) {
  Phase phase;
  Tracer* tracer = traced ? &tracer_ : nullptr;
  Scoped loop_span(tracer, "service.loop");
  const int parent = tracer ? tracer->Current() : -1;
  const sj::BufferPoolStats pool0 = service_->stats().pool;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  std::vector<Flight> flights;
  while (true) {
    while (Now() - t0 < seconds && flights.size() < kInFlight) {
      flights.push_back(Submit(next_kind_++ % kinds_.size()));
    }
    if (flights.empty()) break;
    bool progressed = false;
    for (size_t i = 0; i < flights.size();) {
      Flight& f = flights[i];
      if (f.admitted == 0 && f.granted() > 0) f.admitted = Now();
      if (!f.done()) {
        ++i;
        continue;
      }
      Done d = Collect(f, Now());
      Check(d);
      if (tracer) {
        const int q = tracer->Add("service.query." + kinds_[d.kind].name, d.submit,
                                  d.end, parent, d.id);
        tracer->Add("service.queue", d.submit, d.admitted, q, d.id);
        tracer->Add("service.run", d.admitted, d.end, q, d.id);
      }
      phase.done.push_back(std::move(d));
      flights.erase(flights.begin() + static_cast<std::ptrdiff_t>(i));
      progressed = true;
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  phase.wall = Now() - t0;
  phase.cpu = ProcessCpuSeconds() - cpu0;
  phase.pool = service_->stats().pool - pool0;
  return phase;
}

void Bench::EndToEnd(const Phase& phase) {
  std::vector<double> lat;
  double pairs = 0;
  for (const Done& d : phase.done) {
    lat.push_back(d.latency());
    pairs += static_cast<double>(d.pairs);
  }
  std::vector<double> kind_p50;
  for (size_t k = 0; k < kinds_.size(); ++k) {
    std::vector<double> kl;
    for (const Done& d : phase.done) {
      if (d.kind == k) kl.push_back(d.latency());
    }
    kind_p50.push_back(Median(kl));
    std::printf("metric %s_latency_s = %.6f s (median of %zu)\n", kinds_[k].name.c_str(),
                kind_p50.back(), kl.size());
  }
  const double n = static_cast<double>(phase.done.size());
  std::printf("timed: %zu queries, %.3f s; pooled latency p50 %.6f s, tail p%.0f\n",
              phase.done.size(), phase.wall, Percentile(lat, 50), kTailPercentile);
  Values v;
  v["setup_s"] = setup_.setup_s;
  v["latency_s_kinds_p50"] = GeometricMean(kind_p50);
  v["latency_s_tail"] = Percentile(lat, kTailPercentile);
  v["queries_per_s"] = n / phase.wall;
  v["pairs_per_s"] = pairs / phase.wall;
  // One rotation as each query accounts it when run alone (the first solo
  // rotation): under concurrency a query's figure also counts its
  // neighbours' I/O (service.io_leak_ratio), and the shared disk misses
  // the I/O that refinement and parallel phases charge to private shards.
  v["modeled_io_s"] = 0;
  for (const std::optional<Done>& r : reference_) v["modeled_io_s"] += r->io_seconds;
  v["peak_grant_mb"] = static_cast<double>(service_->stats().global_peak_bytes) /
                       static_cast<double>(kMiB);
  ReportEndToEnd(v, report_);
}

void Bench::Layers(const Phase& untraced, const Phase& traced) {
  Dataset& d = *setup_.data;
  Values v;
  v["datagen.s"] = setup_.datagen_s;
  v["rtree.bulkload_s"] = setup_.bulkload_s;
  v["rtree.nodes"] = static_cast<double>(d.roads_tree->node_count() +
                                         d.hydro_tree->node_count());
  v["trace.overhead"] =
      (static_cast<double>(untraced.done.size()) / untraced.wall) /
          (static_cast<double>(traced.done.size()) / traced.wall) - 1.0;
  v["pool.cpu_per_wall"] = traced.cpu / traced.wall;

  // Service: latency inflation per kind, admissions, the shared pool, and
  // the per-query I/O attribution against the last (warm-pool) solo run.
  uint64_t degraded = 0;
  double leak_concurrent = 0, leak_solo = 0;
  std::vector<double> queue;
  for (const Done& q : traced.done) {
    degraded += q.degraded ? 1 : 0;
    leak_concurrent += q.io_seconds;
    leak_solo += solo_[q.kind].back().io_seconds;
    queue.push_back(q.admitted - q.submit);
  }
  for (size_t k = 0; k < kinds_.size(); ++k) {
    std::vector<double> conc, solo;
    for (const Done& q : traced.done) {
      if (q.kind == k) conc.push_back(q.latency());
    }
    for (const Done& q : solo_[k]) solo.push_back(q.latency());
    v["service.inflation." + kinds_[k].name] = Median(conc) / Median(solo);
  }
  v["service.degraded_ratio"] =
      static_cast<double>(degraded) / static_cast<double>(traced.done.size());
  v["service.queue_s"] = Median(queue);
  v["service.rejected"] = static_cast<double>(service_->stats().rejected);
  v["service.pool_hit_ratio"] =
      traced.pool.requests == 0 ? 0.0
                                : static_cast<double>(traced.pool.hits) /
                                      static_cast<double>(traced.pool.requests);
  v["service.io_leak_ratio"] = leak_concurrent / leak_solo;

  // I/O of one solo rotation (the per-query figures are exact there).
  sj::DiskStats io;
  double solo_wall = 0;
  for (size_t k = 0; k < kinds_.size(); ++k) {
    io += reference_[k]->disk;
    solo_wall += reference_[k]->latency();
  }
  v["mem.peak_rss_mb"] = PeakRssMiB();
  IoLayers(io, solo_wall, &v);

  Scoped layers(&tracer_, "layers");
  // The planner on the refine query: Explain cost, its pick, and its
  // estimate against the solo run's modeled time.
  sj::JoinQuery refine = *kinds_[0].join;
  const sj::Result<sj::PlanDecision> plan = TimeExplain(&refine, &tracer_, &v);
  if (!plan.ok()) {
    report_->Fail("Explain failed: " + plan.status().ToString());
    ReportLayers(v, report_);
    return;
  }
  std::printf("plan: %s\n", plan->Describe().c_str());
  v["plan.estimate_error"] = EstimateError(PickEstimate(*plan), reference_[0]->observed_s);

  // Refinement alone: the planner's filter into a candidate list, then
  // RefinePairs over it, which must reproduce the refine query's output.
  sj::JoinQuery filter = refine;
  filter.Refine(false).Algorithm(plan->algorithm);
  sj::CollectingSink candidates;
  report_->Attempt();
  sj::Result<sj::JoinStats> fr = service_->Run(filter, &candidates);
  if (!fr.ok() || candidates.pairs().size() != reference_[0]->candidates) {
    report_->FailQuery("standalone filter does not reproduce the refine query's candidates");
  } else {
    ChecksumSink results;
    Scoped s(&tracer_, "refine");
    sj::Result<sj::RefineStats> rs = sj::RefinePairs(
        candidates.pairs(), *d.roads_store, *d.hydro_store, refine.options(), &results);
    const double refine_s = s.Close();
    report_->Attempt();
    if (!rs.ok() || results.checksum() != reference_[0]->sum) {
      report_->FailQuery("standalone RefinePairs does not reproduce the refine query's output");
    } else {
      const double n = static_cast<double>(rs->candidates);
      v["refine.s"] = refine_s;
      v["refine.selectivity"] = static_cast<double>(rs->results) / n;
      v["refine.pages_per_candidate"] = static_cast<double>(rs->pages_read) / n;
    }
  }

  // Operators: the pipeline's solo wall minus its join's alone.
  sj::JoinQuery pipeline_join(*joiner_);
  pipeline_join.Input(sj::JoinInput::FromRTree(&*d.roads_tree))
      .Input(sj::JoinInput::FromRTree(&*d.hydro_tree))
      .MemoryBytes(8 * kMiB)
      .Threads(kQueryThreads);
  std::vector<double> join_wall, pipe_wall;
  for (const Done& q : solo_[4]) pipe_wall.push_back(q.latency());
  for (int i = 0; i < 3; ++i) {
    sj::CountingSink sink;
    Scoped s(&tracer_, "op.join_alone");
    report_->Attempt();
    sj::Result<sj::JoinStats> r = service_->Run(pipeline_join, &sink);
    join_wall.push_back(s.Close());
    if (!r.ok() || r->output_count != reference_[4]->candidates) {
      report_->FailQuery("the pipeline's join alone does not reproduce its candidates");
    }
  }
  v["op.overhead_s"] = Median(pipe_wall) - Median(join_wall);
  layers.Close();
  ReportLayers(v, report_);
}

int Bench::Main() {
  const DatasetSpec spec{"NJ", 1.0, /*trees=*/true, /*features=*/true};
  setup_ = SetUp(spec, opts_);
  Dataset& d = *setup_.data;
  std::printf("data: %llu roads x %llu hydro, %llu + %llu index pages\n",
              static_cast<unsigned long long>(d.roads.count()),
              static_cast<unsigned long long>(d.hydro.count()),
              static_cast<unsigned long long>(d.roads_tree->node_count()),
              static_cast<unsigned long long>(d.hydro_tree->node_count()));
  joiner_ = std::make_unique<sj::SpatialJoiner>(d.disk.get(), sj::JoinOptions());
  sj::ServiceOptions so;
  so.global_memory_bytes = 36 * kMiB;
  so.worker_threads = 4;
  so.buffer_pool_pages = 4096;
  service_ = std::make_unique<sj::SpatialService>(so);
  MakeKinds();

  // Untimed solo rotation(s): the warm-up, each kind's reference output,
  // and (traced) the solo latencies the inflation ratios divide by.
  Solo(opts_.trace ? 3 : 1);
  if (!report_->correct()) return 1;
  for (size_t k = 0; k < kinds_.size(); ++k) {
    const Done& r = *reference_[k];
    std::printf("counters %s checksum=%s io_s=%.17g pages_read=%llu pages_written=%llu "
                "candidates=%llu\n",
                kinds_[k].name.c_str(), r.sum.ToString().c_str(), r.io_seconds,
                static_cast<unsigned long long>(r.disk.pages_read),
                static_cast<unsigned long long>(r.disk.pages_written),
                static_cast<unsigned long long>(r.candidates));
  }
  const double phase = opts_.trace ? opts_.seconds / 2 : opts_.seconds;
  const Phase untraced = Concurrent(phase, false);
  if (!opts_.trace) {
    EndToEnd(untraced);
  } else {
    const Phase traced = Concurrent(phase, true);
    Layers(untraced, traced);
    std::printf("%s", tracer_.Summary().c_str());
    if (!opts_.trace_out.empty() && !tracer_.Write(opts_.trace_out)) {
      report_->Fail("could not write " + opts_.trace_out);
    }
  }
  const sj::ServiceStats s = service_->stats();
  std::printf("service: %llu submitted, %llu full + %llu degraded admissions, %llu rejected\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.admitted_full),
              static_cast<unsigned long long>(s.admitted_degraded),
              static_cast<unsigned long long>(s.rejected));
  return 0;
}

}  // namespace

int RunServiceRefine(const Options& opts, Report* report) {
  Bench bench(opts, report);
  return bench.Main();
}

}  // namespace sjbench
