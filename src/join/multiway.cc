#include "join/multiway.h"

#include <algorithm>
#include <deque>
#include <string>

#include "join/strip_map.h"
#include "sweep/sweep_join.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {

namespace {

template <typename Structure>
class PairSourceImpl final : public PairSourceBase {
 public:
  PairSourceImpl(SortedRectSource* a, SortedRectSource* b, const RectF& extent,
                 uint32_t strips)
      : a_(a),
        b_(b),
        active_a_(extent, strips),
        active_b_(extent, strips) {
    head_a_ = a_->Next();
    head_b_ = b_->Next();
  }

  std::optional<RectF> Next() override {
    while (pending_.empty() &&
           (head_a_.has_value() || head_b_.has_value())) {
      Step();
    }
    if (pending_.empty()) return std::nullopt;
    RectF out = pending_.front();
    pending_.pop_front();
    return out;
  }

  size_t MemoryBytes() const override {
    return a_->MemoryBytes() + b_->MemoryBytes() + active_a_.MemoryBytes() +
           active_b_.MemoryBytes() + pending_.size() * sizeof(RectF) +
           pairs_.size() * sizeof(IdPair);
  }

  const std::vector<IdPair>& pairs() const override { return pairs_; }

 private:
  void Step() {
    const bool take_a = head_a_.has_value() &&
                        (!head_b_.has_value() || head_a_->ylo <= head_b_->ylo);
    if (take_a) {
      const RectF r = *head_a_;
      active_b_.QueryAndExpire(r, [&](const RectF& other) { Found(r, other); });
      active_a_.Insert(r);
      head_a_ = a_->Next();
    } else {
      const RectF r = *head_b_;
      active_a_.QueryAndExpire(r, [&](const RectF& other) { Found(other, r); });
      active_b_.Insert(r);
      head_b_ = b_->Next();
    }
  }

  void Found(const RectF& from_a, const RectF& from_b) {
    RectF overlap = from_a.IntersectionWith(from_b);
    overlap.id = static_cast<ObjectId>(pairs_.size());
    pairs_.push_back(IdPair{from_a.id, from_b.id});
    pending_.push_back(overlap);
  }

  SortedRectSource* a_;
  SortedRectSource* b_;
  Structure active_a_;
  Structure active_b_;
  std::optional<RectF> head_a_;
  std::optional<RectF> head_b_;
  std::deque<RectF> pending_;
  std::vector<IdPair> pairs_;
};

/// The left-deep chain shared by the serial and per-strip parallel paths:
/// ((in0 x in1) x in2) x ...; all but the last stage are lazy pair
/// sources. `accept(ra, rb)` filters final results before expansion (the
/// parallel path uses it for the strip reference-point test); `ra` is the
/// running intersection of inputs 0..k-2, so max(ra.xlo, rb.xlo) is the
/// left edge of the full k-way intersection. Returns the output count and
/// the chain's sampled peak state (max_queue_bytes).
template <typename Accept>
JoinStats RunMultiwayChain(const std::vector<SortedRectSource*>& inputs,
                               const RectF& extent, const JoinOptions& options,
                               TupleSink* sink, Accept&& accept) {
  std::vector<std::unique_ptr<PairSourceBase>> chain;
  SortedRectSource* left = inputs[0];
  for (size_t i = 1; i + 1 < inputs.size(); ++i) {
    chain.push_back(MakePairSource(left, inputs[i], options.stream_sweep,
                                   extent, options.striped_strips));
    left = chain.back().get();
  }
  SortedRectSource* right = inputs.back();

  // Expands a composite id from chain stage `depth` (0 = raw input 0).
  std::vector<ObjectId> tuple;
  auto expand = [&](auto&& self, size_t depth, ObjectId id) -> void {
    if (depth == 0) {
      tuple.push_back(id);
      return;
    }
    const IdPair& p = chain[depth - 1]->pairs()[id];
    self(self, depth - 1, p.a);
    tuple.push_back(p.b);
  };

  JoinStats stats;
  auto emit = [&](const RectF& ra, const RectF& rb) {
    if (!accept(ra, rb)) return;
    tuple.clear();
    expand(expand, chain.size(), ra.id);
    tuple.push_back(rb.id);
    sink->Emit(tuple);
    stats.output_count++;
  };
  struct Adapter {
    SortedRectSource* s;
    std::optional<RectF> Next() { return s->Next(); }
  } sa{left}, sb{right};
  auto probe = [&]() {
    stats.max_queue_bytes = std::max(
        stats.max_queue_bytes, left->MemoryBytes() + right->MemoryBytes());
  };
  SweepJoinWithKind(options.stream_sweep, extent, options.striped_strips, sa,
                    sb, emit, probe);
  return stats;
}

}  // namespace

std::unique_ptr<PairSourceBase> MakePairSource(SortedRectSource* a,
                                               SortedRectSource* b,
                                               SweepStructureKind kind,
                                               const RectF& extent,
                                               uint32_t strips) {
  if (kind == SweepStructureKind::kStriped) {
    return std::make_unique<PairSourceImpl<StripedSweep>>(a, b, extent,
                                                          strips);
  }
  return std::make_unique<PairSourceImpl<ForwardSweep>>(a, b, extent, strips);
}

Result<JoinStats> MultiwayJoinSources(
    const std::vector<SortedRectSource*>& inputs, const RectF& extent,
    DiskModel* disk, const JoinOptions& options, TupleSink* sink) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("multiway join needs at least 2 inputs");
  }
  JoinMeasurement measurement(disk);

  const JoinStats run = RunMultiwayChain(
      inputs, extent, options, sink,
      [](const RectF&, const RectF&) { return true; });

  JoinStats stats = measurement.Finish();
  stats.output_count = run.output_count;
  stats.max_queue_bytes = run.max_queue_bytes;
  return stats;
}

Result<JoinStats> MultiwayJoinStreams(const std::vector<DatasetRef>& inputs,
                                      const RectF& extent, DiskModel* disk,
                                      const JoinOptions& options,
                                      TupleSink* sink) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("multiway join needs at least 2 inputs");
  }
  JoinMeasurement measurement(disk);
  const StripMap map(extent, options.multiway_strips);
  const size_t k = inputs.size();

  // Phase 1 (serial, shared disk): replicate every input into the strips
  // it overlaps. Inputs are y-sorted and distribution preserves order, so
  // each strip file is itself a valid sorted source.
  struct StripFiles {
    std::vector<std::unique_ptr<Pager>> pagers;  // One per input.
    std::vector<StreamRange> ranges;
  };
  std::vector<StripFiles> strips(map.strips());
  for (StripFiles& s : strips) {
    s.pagers.resize(k);
    s.ranges.resize(k);
  }
  for (size_t in = 0; in < k; ++in) {
    std::vector<std::unique_ptr<StreamWriter<RectF>>> writers(map.strips());
    // Abandons every still-open writer of this input so an error return
    // unwinds instead of tripping the writers' destructor checks.
    auto abandon_writers = [&writers]() {
      for (auto& w : writers) {
        if (w != nullptr) w->Abandon();
      }
    };
    for (uint32_t s = 0; s < map.strips(); ++s) {
      Result<std::unique_ptr<Pager>> pager = MakePager(
          options.storage.get(), disk,
          "multiway.strip." + std::to_string(s) + "." + std::to_string(in));
      if (!pager.ok()) {
        abandon_writers();
        return pager.status();
      }
      strips[s].pagers[in] = std::move(pager).value();
      writers[s] = std::make_unique<StreamWriter<RectF>>(
          strips[s].pagers[in].get(), /*block_pages=*/4);
    }
    StreamReader<RectF> reader(inputs[in].range.pager,
                               inputs[in].range.first_page,
                               inputs[in].range.count);
    while (std::optional<RectF> r = reader.Next()) {
      const uint32_t s0 = map.StripOf(r->xlo);
      const uint32_t s1 = map.StripOf(r->xhi);
      for (uint32_t s = s0; s <= s1; ++s) writers[s]->Append(*r);
    }
    // Finish every writer even when one fails, then surface the first
    // failure (Finish marks a stream finished on error too).
    Status first_error = Status::OK();
    for (uint32_t s = 0; s < map.strips(); ++s) {
      const PageId first = writers[s]->first_page();
      Result<uint64_t> n = writers[s]->Finish();
      if (n.ok()) {
        strips[s].ranges[in] =
            StreamRange{strips[s].pagers[in].get(), first, n.value()};
      } else if (first_error.ok()) {
        first_error = n.status();
      }
    }
    SJ_RETURN_IF_ERROR(first_error);
  }

  // Phase 2: one chain per strip against a private shard; a tuple is
  // reported only in the strip owning the left edge of its full k-way
  // intersection. Stats merge as in PBSM: identical for any num_threads.
  struct StripTask {
    std::unique_ptr<DiskModel> disk;
    StripFiles files;
    CollectingTupleSink sink;
    JoinStats run;  // Output count, peak state, and CPU of the strip.
  };
  // Inline runs (same condition as ParallelFor's) stream tuples straight
  // to the caller's sink in strip order; only pooled runs buffer.
  const bool pooled = options.num_threads > 1 && map.strips() > 1;
  std::vector<StripTask> tasks(map.strips());
  for (uint32_t s = 0; s < map.strips(); ++s) {
    StripTask& t = tasks[s];
    t.disk = std::make_unique<DiskModel>(disk->machine());
    t.files.pagers.resize(k);
    t.files.ranges.resize(k);
    for (size_t in = 0; in < k; ++in) {
      t.files.pagers[in] =
          RehomePager(std::move(strips[s].pagers[in]), t.disk.get());
      t.files.ranges[in] = StreamRange{t.files.pagers[in].get(),
                                       strips[s].ranges[in].first_page,
                                       strips[s].ranges[in].count};
    }
  }

  SJ_RETURN_IF_ERROR(ParallelFor(
      options.worker_pool, options.num_threads, map.strips(), [&](uint64_t s) -> Status {
        StripTask& t = tasks[s];
        ThreadCpuTimer cpu;
        TupleSink* out = pooled ? static_cast<TupleSink*>(&t.sink) : sink;
        std::vector<std::unique_ptr<SortedStreamSource>> sources;
        std::vector<SortedRectSource*> source_ptrs;
        sources.reserve(k);
        source_ptrs.reserve(k);
        for (size_t in = 0; in < k; ++in) {
          sources.push_back(
              std::make_unique<SortedStreamSource>(t.files.ranges[in]));
          source_ptrs.push_back(sources.back().get());
        }
        t.run = RunMultiwayChain(
            source_ptrs, extent, options, out,
            [&](const RectF& ra, const RectF& rb) {
              return map.StripOf(std::max(ra.xlo, rb.xlo)) == s;
            });
        t.run.host_cpu_seconds = cpu.Elapsed();
        return Status::OK();
      }));

  uint64_t output = 0;
  size_t max_queue_bytes = 0;
  double worker_cpu = 0;
  DiskStats shard_disk;
  for (const StripTask& t : tasks) {
    if (pooled) {
      for (const std::vector<ObjectId>& tuple : t.sink.tuples()) {
        sink->Emit(tuple);
      }
    }
    output += t.run.output_count;
    max_queue_bytes = std::max(max_queue_bytes, t.run.max_queue_bytes);
    worker_cpu += t.run.host_cpu_seconds;
    shard_disk += t.disk->stats();
  }

  JoinStats stats = measurement.Finish();
  if (pooled) stats.host_cpu_seconds += worker_cpu;
  stats.disk += shard_disk;
  stats.output_count = output;
  stats.max_queue_bytes = max_queue_bytes;
  return stats;
}

}  // namespace sj
