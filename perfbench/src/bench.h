// Shared pieces of the repository benchmark (sjbench): command-line
// options, the order-independent output checksum, the in-memory span
// tracer, the metric report, and the seeded TIGER data set-up.
#ifndef SJ_PERFBENCH_BENCH_H_
#define SJ_PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/tiger_gen.h"
#include "geometry/segment.h"
#include "op/row.h"
#include "refine/feature_store.h"
#include "rtree/rtree.h"

namespace sjbench {

using sj::ObjectId;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every data set's size (1.0 = the documented sizes); only
  /// the self-test shrinks it.
  double scale = 1.0;
  /// Scratch directory for file-backed join temporaries (removed by the
  /// caller).
  std::string tmp_dir;
  /// Where the traced run writes its spans (empty = not written).
  std::string trace_out;
};

double Now();  // Monotonic seconds.
double ProcessCpuSeconds();
double PeakRssMiB();
double Median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);
double GeometricMean(const std::vector<double>& v);

inline constexpr size_t kMiB = size_t{1} << 20;

/// |ln(estimate / actual)|: 0 when the planner's estimate is exact,
/// symmetric in over- and under-estimates.
inline double EstimateError(double estimate, double actual) {
  return std::fabs(std::log(estimate / actual));
}

/// Order-independent digest of a join result: the pair count plus the
/// 64-bit wrapping sum of a hash of every (a, b) pair, so any two
/// executions emitting the same multiset of pairs agree whatever their
/// emission order or thread count.
struct Checksum {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint64_t h) {
    ++count;
    sum += h;
  }
  bool operator==(const Checksum& o) const {
    return count == o.count && sum == o.sum;
  }
  bool operator!=(const Checksum& o) const { return !(*this == o); }
  std::string ToString() const;
};

uint64_t Mix64(uint64_t x);
inline uint64_t PairHash(ObjectId a, ObjectId b) {
  return Mix64((static_cast<uint64_t>(a) << 32) | b);
}

class ChecksumSink final : public sj::JoinSink {
 public:
  void Emit(ObjectId a, ObjectId b) override { sum_.Add(PairHash(a, b)); }
  const Checksum& checksum() const { return sum_; }

 private:
  Checksum sum_;
};

/// Pipeline rows hash their ids and the bits of their value.
class ChecksumRowSink final : public sj::RowSink {
 public:
  void Emit(sj::PipeRow row) override;
  const Checksum& checksum() const { return sum_; }

 private:
  Checksum sum_;
};

/// In-memory span recorder. Spans carry a name, start and end (seconds
/// since the tracer was made), the index of the span that caused them,
/// and a query id. They are only recorded when tracing is on; a disabled
/// tracer ignores every call, so the untraced run pays nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    uint64_t query = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Now()) {}

  /// Opens a span nested under the innermost open one; returns its index
  /// (-1 when disabled).
  int Begin(const std::string& name, uint64_t query = 0);
  void End(int span);
  /// Records a finished span with explicit bounds (absolute Now() times),
  /// for asynchronous work such as service queries.
  int Add(const std::string& name, double start, double end, int parent,
          uint64_t query);
  /// The innermost open span (-1 when none).
  int Current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// "name count total self" lines, one per span name. A span's self
  /// time is its duration minus the part of that interval its child spans
  /// cover.
  std::string Summary() const;
  /// Writes the spans as a JSON array; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  double SelfOf(size_t i) const;

  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing but still measures the wall
/// time Close() returns.
class Scoped {
 public:
  Scoped(Tracer* tracer, const std::string& name, uint64_t query = 0)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, query) : -1),
        start_(Now()) {}
  ~Scoped() { Close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  /// Ends the span early; returns its wall seconds (measured whether or
  /// not tracing is on).
  double Close() {
    if (!closed_) {
      elapsed_ = Now() - start_;
      if (tracer_ != nullptr) tracer_->End(span_);
      closed_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer* tracer_;
  int span_;
  double start_;
  double elapsed_ = 0;
  bool closed_ = false;
};

/// Metrics by name, printed as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks one check as failed (the message goes to stderr).
  void Fail(const std::string& what);
  void Attempt() { ++attempted_; }
  void FailQuery(const std::string& what) {
    ++failed_;
    Fail(what);
  }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The deterministic counters of one query execution.
struct Counters {
  Checksum sum;
  double io_seconds = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t read_requests = 0;
  uint64_t write_requests = 0;
  uint64_t candidates = 0;
  uint64_t index_pages = 0;

  static Counters Of(const sj::JoinStats& s, const Checksum& sum);
  /// Output, pages, requests and candidates must repeat exactly; modeled
  /// seconds within `io_slack` (see IoSlackSeconds).
  bool Matches(const Counters& o, double io_slack) const;
  std::string ToString() const;
};

/// How far one query kind's modeled seconds may move between rotations:
/// the simulated drive carries its read and write streams (up to
/// stream_capacity() each) across query boundaries, so what ran before
/// can turn that many of a query's requests from random into sequential
/// or back, each worth one average access.
double IoSlackSeconds(const sj::DiskModel& disk);

/// The run seed does not feed the generator directly: a generator's
/// random county geography alone can halve or double the join's output.
/// Instead the seed derives a sequence of candidate generator seeds, and
/// the first whose sampled selectivity lies within kSelectivityTolerance
/// of the ladder entry's own fixed-seed data is used — every run seed
/// gives different data with the documented amount of join work.
/// Roads in the selectivity sample (the hydro sample keeps the ratio).
inline constexpr uint64_t kSelectivitySampleRoads = 300000;
inline constexpr double kSelectivityTolerance = 0.03;
inline constexpr int kMaxGeneratorTries = 200;

struct GeneratorPick {
  uint64_t seed = 0;         // The generator seed used for both relations.
  int tries = 0;             // Candidates drawn.
  double target = 0;         // Sampled selectivity of the fixed-seed data.
  double selectivity = 0;    // Sampled selectivity of the pick.
};
GeneratorPick PickGenerator(const sj::TigerSpec& spec, uint64_t seed);

/// One seeded TIGER-like relation pair and everything built from it.
struct Dataset {
  std::unique_ptr<sj::DiskModel> disk;
  std::unique_ptr<sj::Pager> roads_pager, hydro_pager;
  std::unique_ptr<sj::Pager> roads_tree_pager, hydro_tree_pager;
  std::unique_ptr<sj::Pager> roads_geom_pager, hydro_geom_pager;
  sj::DatasetRef roads, hydro;
  std::optional<sj::RTree> roads_tree, hydro_tree;
  std::optional<sj::FeatureStore> roads_store, hydro_store;
  sj::RectF region;

  // Set-up phase wall times of this build.
  double datagen_s = 0;
  double load_s = 0;
  double bulkload_s = 0;
  double features_s = 0;
  double total_s() const { return datagen_s + load_s + bulkload_s + features_s; }
};

struct DatasetSpec {
  std::string ladder_name;  // Paper ladder entry (PaperDataset).
  double ladder_scale = 1.0;
  bool trees = false;
  bool features = false;
};

/// Builds the data set: both relations from one TigerGenerator seeded by
/// `generator_seed` (in place of the ladder entry's fixed seed), streams
/// on memory pagers, and optionally Hilbert-bulk-loaded R-trees and
/// exact-geometry feature stores (SegmentsForRects).
std::unique_ptr<Dataset> BuildDataset(const DatasetSpec& spec,
                                      uint64_t generator_seed, double scale);

/// Picks the generator seed for `opts.seed` (not part of set-up time),
/// then builds the data set kSetupReps times, keeping the last;
/// setup_s is the median total, with datagen.s and rtree.bulkload_s
/// medians for the per-layer report.
struct SetupResult {
  GeneratorPick pick;
  std::unique_ptr<Dataset> data;
  double setup_s = 0;
  double datagen_s = 0;
  double bulkload_s = 0;
};
SetupResult SetUp(const DatasetSpec& spec, const Options& opts);

using Values = std::map<std::string, double>;
/// Adds every end-to-end metric, in the canonical order, from `values`;
/// a missing one fails the run.
void ReportEndToEnd(const Values& values, Report* report);
/// Adds every per-layer metric, in the canonical order; a layer the
/// workload does not exercise reports 0.
void ReportLayers(const Values& values, Report* report);

/// Times Explain() on `query` (five samples of kExplainCalls calls, each
/// in a "plan.explain" span) into plan.s; returns the last decision.
sj::Result<sj::PlanDecision> TimeExplain(sj::JoinQuery* query, Tracer* tracer,
                                         Values* layers);
/// The planner's own estimate for the algorithm it picked.
double PickEstimate(const sj::PlanDecision& plan);
/// The io.* per-layer metrics of `io` over `wall` seconds of queries.
void IoLayers(const sj::DiskStats& io, double wall, Values* layers);

int RunStreamOrIndexed(const Options& opts, Report* report);
int RunServiceRefine(const Options& opts, Report* report);

}  // namespace sjbench

#endif  // SJ_PERFBENCH_BENCH_H_
