#include "refine/refine.h"

#include <algorithm>
#include <memory>

#include "join/predicate_batch.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {
namespace {

/// Per-batch state shared by the pair and tuple executors: a private
/// DiskModel shard (fresh disk state, so modeled I/O depends only on the
/// batch's own request sequence) with one registered device per input
/// store, plus per-batch counters.
struct BatchShard {
  std::unique_ptr<DiskModel> disk;
  std::vector<uint32_t> devices;
  uint64_t pages_read = 0;
  uint64_t results = 0;
  double cpu_seconds = 0.0;
};

std::vector<BatchShard> MakeShards(uint64_t nbatches, const MachineModel& m,
                                   size_t nstores) {
  std::vector<BatchShard> shards(nbatches);
  for (BatchShard& s : shards) {
    s.disk = std::make_unique<DiskModel>(m);
    s.devices.reserve(nstores);
    for (size_t k = 0; k < nstores; ++k) {
      s.devices.push_back(
          s.disk->RegisterDevice("refine." + std::to_string(k)));
    }
  }
  return shards;
}

/// Grant-aware batch size: the configured refine_batch_pairs, shrunk so
/// one batch's working set fits the "refine.batch" grant — the graceful
/// over-budget path (smaller batches mean more, smaller fetch rounds,
/// never a failure). `grant` keeps the share reserved for the caller's
/// lifetime.
uint64_t EffectiveBatchPairs(const JoinOptions& options, MemoryArbiter* arbiter,
                             MemoryGrant* grant) {
  const uint64_t batch = std::max<uint32_t>(1, options.refine_batch_pairs);
  if (arbiter == nullptr) return batch;
  *grant = arbiter->AcquireShrinkable(
      grants::kRefineBatch, batch * kRefineBytesPerCandidate,
      size_t{kMinRefineBatchPairs} * kRefineBytesPerCandidate);
  const uint64_t cap = std::max<uint64_t>(
      kMinRefineBatchPairs, grant->bytes() / kRefineBytesPerCandidate);
  const uint64_t effective = std::min(batch, cap);
  grant->NoteUsage(effective * kRefineBytesPerCandidate);
  return effective;
}

RefineStats MergeShards(const std::vector<BatchShard>& shards, bool pooled,
                        uint64_t candidates) {
  RefineStats stats;
  stats.candidates = candidates;
  for (const BatchShard& s : shards) {
    stats.results += s.results;
    stats.pages_read += s.pages_read;
    stats.disk += s.disk->stats();
    // Inline batches already ran on the caller's measured thread; only
    // pool workers' CPU needs reporting (parallel-engine convention).
    if (pooled) stats.host_cpu_seconds += s.cpu_seconds;
  }
  return stats;
}

}  // namespace

Result<RefineStats> RefinePairs(const std::vector<IdPair>& candidates,
                                const FeatureStore& store_a,
                                const FeatureStore& store_b,
                                const JoinOptions& options, JoinSink* sink,
                                const PredicateSpec& predicate,
                                MemoryArbiter* arbiter) {
  MemoryGrant batch_grant;
  const uint64_t batch = EffectiveBatchPairs(options, arbiter, &batch_grant);
  const uint64_t n = candidates.size();
  const uint64_t nbatches = (n + batch - 1) / batch;
  if (nbatches == 0) return RefineStats{};

  const SweepKernelMode kernel_mode = ActiveSweepKernelMode();
  const MachineModel& machine = store_a.pager()->disk()->machine();
  std::vector<BatchShard> shards = MakeShards(nbatches, machine, 2);
  std::vector<CollectingSink> buffered(nbatches);
  // Matches ParallelFor's inline condition: serial batches stream straight
  // to the caller's sink in the same order the pooled merge replays them.
  const bool pooled = options.num_threads > 1 && nbatches > 1;

  // Read-ahead: batch i starts batch i+1's page fetches before refining,
  // so the next batch's bytes arrive while this batch computes. Serial
  // only (inline ParallelFor runs batches in index order); pool workers
  // already overlap each other. Modeled charges land in FinishBatch on
  // the consuming batch's own shard, so stats are unchanged.
  const PrefetchContext prefetch = PrefetchContextOf(options);
  const bool read_ahead = prefetch.enabled && !pooled;
  std::vector<FeatureStore::PendingBatch> fetch_a(nbatches), fetch_b(nbatches);
  std::vector<uint8_t> started(nbatches, 0);
  auto start_batch = [&](uint64_t i) -> Status {
    const uint64_t lo = i * batch;
    const uint64_t hi = std::min(n, lo + batch);
    std::vector<ObjectId> ids_a, ids_b;
    ids_a.reserve(hi - lo);
    ids_b.reserve(hi - lo);
    for (uint64_t k = lo; k < hi; ++k) {
      ids_a.push_back(candidates[k].a);
      ids_b.push_back(candidates[k].b);
    }
    SJ_ASSIGN_OR_RETURN(
        fetch_a[i],
        store_a.StartBatch(Span<const ObjectId>(ids_a.data(), ids_a.size()),
                           prefetch));
    SJ_ASSIGN_OR_RETURN(
        fetch_b[i],
        store_b.StartBatch(Span<const ObjectId>(ids_b.data(), ids_b.size()),
                           prefetch));
    started[i] = 1;
    return Status::OK();
  };

  SJ_RETURN_IF_ERROR(ParallelFor(
      options.worker_pool, options.num_threads, nbatches, [&](uint64_t i) -> Status {
        BatchShard& shard = shards[i];
        ThreadCpuTimer cpu;
        const uint64_t lo = i * batch;
        const uint64_t hi = std::min(n, lo + batch);
        if (started[i] == 0) SJ_RETURN_IF_ERROR(start_batch(i));
        if (read_ahead && i + 1 < nbatches && started[i + 1] == 0) {
          SJ_RETURN_IF_ERROR(start_batch(i + 1));
        }
        std::vector<Segment> geom_a, geom_b;
        SJ_ASSIGN_OR_RETURN(
            uint64_t pages_a,
            store_a.FinishBatch(std::move(fetch_a[i]), &geom_a,
                                shard.disk.get(), shard.devices[0]));
        SJ_ASSIGN_OR_RETURN(
            uint64_t pages_b,
            store_b.FinishBatch(std::move(fetch_b[i]), &geom_b,
                                shard.disk.get(), shard.devices[1]));
        shard.pages_read = pages_a + pages_b;
        JoinSink* out = pooled ? static_cast<JoinSink*>(&buffered[i]) : sink;
        // Whole-batch predicate evaluation (join/predicate_batch.h): one
        // flat pass computes the match mask, then emission replays it in
        // candidate order — bit-identical to the old per-pair
        // EvaluateExactPredicate loop in both kernel modes.
        std::vector<uint8_t> match(hi - lo);
        EvaluateExactPredicateBatch(kernel_mode, predicate, geom_a.data(),
                                    geom_b.data(), hi - lo, match.data());
        for (uint64_t k = 0; k < hi - lo; ++k) {
          if (match[k]) {
            out->Emit(candidates[lo + k].a, candidates[lo + k].b);
            shard.results++;
          }
        }
        shard.cpu_seconds = cpu.Elapsed();
        return Status::OK();
      }));

  if (pooled) {
    // Deterministic merge, in batch (= candidate) order.
    for (const CollectingSink& b : buffered) b.ReplayInto(sink);
  }
  return MergeShards(shards, pooled, n);
}

Result<RefineStats> RefineTuples(
    const std::vector<std::vector<ObjectId>>& tuples,
    const std::vector<const FeatureStore*>& stores, const JoinOptions& options,
    TupleSink* sink, MemoryArbiter* arbiter) {
  const size_t k = stores.size();
  if (k < 2) {
    return Status::InvalidArgument("tuple refinement needs at least 2 stores");
  }
  for (const FeatureStore* store : stores) {
    if (store == nullptr) {
      return Status::InvalidArgument("tuple refinement: missing store");
    }
  }
  MemoryGrant batch_grant;
  const uint64_t batch = EffectiveBatchPairs(options, arbiter, &batch_grant);
  const uint64_t n = tuples.size();
  const uint64_t nbatches = (n + batch - 1) / batch;
  if (nbatches == 0) return RefineStats{};

  const SweepKernelMode kernel_mode = ActiveSweepKernelMode();
  const MachineModel& machine = stores[0]->pager()->disk()->machine();
  std::vector<BatchShard> shards = MakeShards(nbatches, machine, k);
  std::vector<CollectingTupleSink> buffered(nbatches);
  const bool pooled = options.num_threads > 1 && nbatches > 1;

  SJ_RETURN_IF_ERROR(ParallelFor(
      options.worker_pool, options.num_threads, nbatches, [&](uint64_t i) -> Status {
        BatchShard& shard = shards[i];
        ThreadCpuTimer cpu;
        const uint64_t lo = i * batch;
        const uint64_t hi = std::min(n, lo + batch);
        // Validate the whole batch before any fetch is modeled.
        for (uint64_t t = lo; t < hi; ++t) {
          if (tuples[t].size() != k) {
            return Status::InvalidArgument(
                "tuple arity does not match store count");
          }
        }
        // Column-at-a-time gather: one batched fetch per input store.
        std::vector<std::vector<Segment>> geom(k);
        std::vector<ObjectId> ids;
        for (size_t input = 0; input < k; ++input) {
          ids.clear();
          ids.reserve(hi - lo);
          for (uint64_t t = lo; t < hi; ++t) {
            ids.push_back(tuples[t][input]);
          }
          SJ_ASSIGN_OR_RETURN(
              uint64_t pages,
              stores[input]->FetchBatch(
                  Span<const ObjectId>(ids.data(), ids.size()), &geom[input],
                  shard.disk.get(), shard.devices[input]));
          shard.pages_read += pages;
        }
        TupleSink* out = pooled ? static_cast<TupleSink*>(&buffered[i]) : sink;
        // Batched pairwise intersection: the columns are already
        // contiguous Segment arrays, so each (x, y) input pair runs one
        // BatchRectOverlap-style flat pass whose mask is ANDed into the
        // per-row alive mask. The predicates are pure, so dropping the
        // scalar loop's short-circuit cannot change which tuples survive.
        const uint64_t rows = hi - lo;
        std::vector<uint8_t> alive(rows, 1), pair_mask(rows);
        for (size_t x = 0; x < k; ++x) {
          for (size_t y = x + 1; y < k; ++y) {
            BatchSegmentsIntersect(kernel_mode, geom[x].data(), geom[y].data(),
                                   rows, pair_mask.data());
            for (uint64_t row = 0; row < rows; ++row) {
              alive[row] &= pair_mask[row];
            }
          }
        }
        for (uint64_t t = lo; t < hi; ++t) {
          if (alive[t - lo]) {
            out->Emit(tuples[t]);
            shard.results++;
          }
        }
        shard.cpu_seconds = cpu.Elapsed();
        return Status::OK();
      }));

  if (pooled) {
    for (const CollectingTupleSink& b : buffered) b.ReplayInto(sink);
  }
  return MergeShards(shards, pooled, n);
}

}  // namespace sj
