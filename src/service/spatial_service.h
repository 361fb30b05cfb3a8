#ifndef USJ_SERVICE_SPATIAL_SERVICE_H_
#define USJ_SERVICE_SPATIAL_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/join_query.h"
#include "core/memory_arbiter.h"
#include "core/pipeline_query.h"
#include "io/buffer_pool.h"
#include "join/join_types.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sj {

namespace service_internal {
struct ServiceGate;  // Handle-side liveness gate; defined in the .cc.
}  // namespace service_internal

/// Process-wide resource configuration for a SpatialService.
struct ServiceOptions {
  /// One memory budget for every concurrently admitted query. Each
  /// admitted query gets a child MemoryArbiter carved out of this (its
  /// grants::kBufferPool, sort runs, sweeps ... all draw from the child),
  /// so the sum of admitted query budgets can never exceed this number —
  /// the global arbiter's Acquire denies the carve instead. Default: ~10
  /// concurrent queries at the paper's 24 MB each.
  size_t global_memory_bytes = 256u << 20;
  /// Strict mode for the *global* arbiter (children inherit each query's
  /// own strict_memory_accounting option).
  bool strict_memory_accounting = false;
  /// Shared morsel-style workers executing admitted queries and their
  /// parallel phases (one ThreadPool for everything; per-query task
  /// groups drained round-robin, see util/thread_pool.h). 0 = inline
  /// mode: Submit() runs the query to completion on the calling thread —
  /// the single-query service JoinQuery::Run wraps.
  uint32_t worker_threads = 0;
  /// Shared page-cache frames (io/buffer_pool.h, 2Q replacement) serving
  /// every ST traversal of every query, with per-query hit/miss
  /// attribution. 0 = no shared pool: each query builds its grant-backed
  /// private pool exactly as standalone execution does.
  size_t buffer_pool_pages = 0;
  /// Queries allowed to wait for admission before Submit() rejects with
  /// ResourceExhausted outright.
  size_t admission_queue_limit = 64;
  /// How long a queued query may wait for admission before failing with
  /// DeadlineExceeded (used when SubmitOptions names no deadline).
  double default_queue_deadline_seconds = 30.0;
  /// Degraded admission floor: when the free global budget cannot cover
  /// a query's full request but covers at least this much — and nothing
  /// is queued ahead of it — the query is admitted with the smaller
  /// budget instead of queueing (its executors spill more; results are
  /// identical). Clamped up to kMinMemoryBytes. 0 disables degraded
  /// admission.
  size_t degraded_min_bytes = 4u << 20;
  /// Default storage backend for admitted queries' scratch/spill files
  /// (null = in-memory). A query's own JoinOptions::storage, when set,
  /// wins over this. Implementations must be thread-safe — concurrent
  /// queries create files through one factory.
  std::shared_ptr<StorageFactory> storage;
};

/// Per-submission knobs.
struct SubmitOptions {
  /// Overrides ServiceOptions::default_queue_deadline_seconds when >= 0.
  double queue_deadline_seconds = -1.0;
  /// Permit admission below the full request (never below the service's
  /// degraded_min_bytes floor).
  bool allow_degraded = true;
};

/// Scheduler-facing counters (ServiceStats::pool is the shared pool's
/// aggregate; per-query pool traffic lands in each JoinStats).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t admitted_full = 0;
  uint64_t admitted_degraded = 0;
  /// Rejected at Submit: request above the whole global budget, or the
  /// admission queue was full.
  uint64_t rejected = 0;
  uint64_t deadline_expired = 0;
  uint64_t cancelled = 0;
  size_t global_in_use_bytes = 0;
  size_t global_peak_bytes = 0;
  BufferPoolStats pool;
};

class SpatialService;

/// A future-like handle to one submitted query — pairwise join, k-way
/// join or pipeline. Copyable (all copies refer to the same submission);
/// safe to outlive the service (the service's destructor resolves every
/// outstanding submission first).
class SubmittedQuery {
 public:
  struct Ticket;  // Shared submission state; defined in the service's .cc.

  SubmittedQuery() = default;

  /// True once the query finished, failed, was cancelled, or expired.
  bool done() const;

  /// Blocks until done (helping is not needed: the service's reaper
  /// thread expires a queued query at its deadline, a running one
  /// finishes, and the service destructor resolves everything queued).
  void Wait() const;

  /// Best-effort cancel: a still-queued query completes immediately with
  /// Cancelled and returns true; a running or finished query is left
  /// alone and returns false (results are delivered normally).
  bool Cancel();

  /// Waits, then returns the outcome: JoinStats on success, or the
  /// admission/execution error (FailedPrecondition for misuse,
  /// ResourceExhausted for rejection, DeadlineExceeded for queue timeout,
  /// Cancelled, or whatever the executors returned).
  const sj::Result<JoinStats>& Result() const;

  /// Admission outcome (0 / false while still queued).
  size_t granted_bytes() const;
  bool degraded() const;
  uint64_t id() const;

 private:
  friend class SpatialService;
  explicit SubmittedQuery(std::shared_ptr<Ticket> ticket)
      : ticket_(std::move(ticket)) {}
  std::shared_ptr<Ticket> ticket_;
};

/// Kept so that code written against the former pipeline-only handle
/// (perfbench/ among it) still compiles: pipelines, pairwise and k-way
/// joins all submit through one ticket kind.
using SubmittedPipeline = SubmittedQuery;

/// The process-wide spatial-join service: one global memory budget, one
/// shared 2Q buffer pool, one morsel-style worker pool, and a FIFO
/// admission scheduler in front of them.
///
/// Admission: Submit() validates the query's budget (below kMinMemoryBytes
/// is FailedPrecondition — misuse; above the whole global budget is
/// ResourceExhausted — unsatisfiable), then admits it by carving a child
/// MemoryArbiter out of the global one. When the free budget cannot cover
/// the request, the query either degrades (admitted with the free budget,
/// never below degraded_min_bytes) or queues FIFO — strictly: a later
/// small query never jumps an earlier big one, so admission cannot starve.
/// Every completion re-runs admission with the freed bytes; queued queries
/// that outlive their deadline fail with DeadlineExceeded.
///
/// Execution: each admitted query runs as one task on the shared worker
/// pool (inline on the submitter when worker_threads == 0) with its
/// options rewritten to the granted budget, the shared pool/threads, and
/// the carved arbiter — then flows through exactly the JoinQuery or
/// PipelineQuery execution body.
/// Because a query's parallel phases submit task groups to the same pool
/// and group waits help (run their own queued tasks), any number of
/// queries make progress on a fixed set of threads without deadlock.
///
/// Thread-safe throughout. The destructor cancels queued queries and
/// waits for running ones.
class SpatialService {
 public:
  explicit SpatialService(const ServiceOptions& options = ServiceOptions());
  ~SpatialService();

  SpatialService(const SpatialService&) = delete;
  SpatialService& operator=(const SpatialService&) = delete;

  /// Submits a pairwise query (the query object is copied; inputs,
  /// histograms, and feature stores it references must stay alive until
  /// the submission is done). Results stream into `sink`, which must be
  /// thread-safe against nothing but this one query (one query = one
  /// execution thread plus morsel helpers that already merge in unit
  /// order). Never blocks in threaded mode; runs the query to completion
  /// inline when worker_threads == 0.
  SubmittedQuery Submit(const JoinQuery& query, JoinSink* sink,
                        const SubmitOptions& submit = SubmitOptions());

  /// Submit + Result in one call.
  sj::Result<JoinStats> Run(const JoinQuery& query, JoinSink* sink,
                            const SubmitOptions& submit = SubmitOptions());

  /// Submits a k-way query (JoinQuery::Run(TupleSink*)); tuples stream
  /// into `sink` on the executing thread.
  SubmittedQuery Submit(const JoinQuery& query, TupleSink* sink,
                        const SubmitOptions& submit = SubmitOptions());

  /// Submits an operator pipeline (core/pipeline_query.h). Pipelines are
  /// first-class citizens of the scheduler: the same FIFO admission over
  /// the same global budget, the same degraded grants, the same shared
  /// worker pool and buffer pool — a pipeline's join source and its
  /// operators all draw from the one carved child arbiter. Rows stream
  /// into `sink` on the executing thread.
  SubmittedQuery Submit(const PipelineQuery& pipeline, RowSink* sink,
                        const SubmitOptions& submit = SubmitOptions());

  /// Submit + Result in one call.
  sj::Result<JoinStats> Run(const PipelineQuery& pipeline, RowSink* sink,
                            const SubmitOptions& submit = SubmitOptions());

  ServiceStats stats() const;
  MemoryArbiter* global_arbiter() { return &global_arbiter_; }
  /// Null when the service was configured without workers / shared pool.
  ThreadPool* worker_pool() { return worker_pool_.get(); }
  BufferPool* buffer_pool() { return buffer_pool_.get(); }
  const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class AdmitOutcome {
    kAdmitted,           // Committed: dispatch it.
    kNoBudget,           // Free budget cannot cover it (even degraded).
    kResolvedMeanwhile,  // A Cancel() resolved it mid-admission: pop only.
  };

  /// Removes cancelled tickets anywhere in queue_ (folding their count
  /// into counters_) and fails past-deadline ones with DeadlineExceeded.
  /// Caller must hold mu_.
  void ReapLocked(Clock::time_point now);
  /// Reaps, then admits every queued ticket the FIFO head allows (full
  /// or degraded). Returns the tickets to dispatch; caller must hold mu_
  /// and dispatch after unlocking.
  std::vector<std::shared_ptr<SubmittedQuery::Ticket>> AdmitLocked();
  /// Carves the child arbiter etc. for `t` if the free budget allows,
  /// rechecking under the ticket lock that no Cancel() raced the commit.
  /// Caller must hold mu_.
  AdmitOutcome TryAdmitOneLocked(
      const std::shared_ptr<SubmittedQuery::Ticket>& t);
  void Dispatch(std::vector<std::shared_ptr<SubmittedQuery::Ticket>> tickets);
  void Execute(const std::shared_ptr<SubmittedQuery::Ticket>& ticket);
  /// The shared Submit body: wraps `query`'s execution body (RunDirect
  /// into `sink`) in a ticket's run closure and submits the ticket.
  /// Defined in the .cc, its only user.
  template <typename Query, typename Sink>
  SubmittedQuery SubmitQuery(const Query& query, Sink* sink,
                             const SubmitOptions& submit);
  /// Validation, enqueue, and admission for a fully-constructed ticket.
  void SubmitTicket(const std::shared_ptr<SubmittedQuery::Ticket>& ticket,
                    const SubmitOptions& submit);

  friend class SubmittedQuery;
  /// Cancel()'s gate-guarded notification: reap the cancelled ticket's
  /// queue slot now and re-run admission for whatever was behind it.
  /// Returns the tickets to dispatch (already counted in running_).
  std::vector<std::shared_ptr<SubmittedQuery::Ticket>> ReapAfterHandleCancel();

  /// Starts the reaper thread on the first submission that actually
  /// queues. Caller must hold mu_.
  void EnsureReaperLocked();
  /// Sleeps until the earliest queued deadline (or a queue change),
  /// expires overdue tickets, and re-runs admission — so an expired head
  /// releases the queries behind it at its deadline, not at the next
  /// submit/completion.
  void ReaperLoop();

  const ServiceOptions options_;
  MemoryArbiter global_arbiter_;
  /// Shared with every ticket; the destructor nulls its service pointer
  /// so handles outliving the service cannot call back into it.
  std::shared_ptr<service_internal::ServiceGate> gate_;
  std::unique_ptr<ThreadPool> worker_pool_;   // Null in inline mode.
  std::unique_ptr<BufferPool> buffer_pool_;   // Null when pages == 0.

  mutable std::mutex mu_;
  std::deque<std::shared_ptr<SubmittedQuery::Ticket>> queue_;
  uint64_t next_id_ = 1;
  size_t running_ = 0;
  bool shutting_down_ = false;
  std::condition_variable idle_cv_;  // Signaled when running_ drops.
  std::thread reaper_;               // Lazily started; see ReaperLoop.
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;  // Guarded by mu_.
  ServiceStats counters_;
};

}  // namespace sj

#endif  // USJ_SERVICE_SPATIAL_SERVICE_H_
