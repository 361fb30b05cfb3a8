#include "service/spatial_service.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/logging.h"

namespace sj {

namespace service_internal {

/// Pins the service for handle-side calls. A SubmittedQuery may outlive
/// its SpatialService, so after resolving a ticket the handle must not
/// touch the raw service pointer; instead it takes `mu` and calls through
/// `service` only while that is non-null. ~SpatialService nulls the
/// pointer under the same mutex (after draining the queue), so a handle
/// either reaches a live service or finds the pointer cleared — never a
/// dangling one. Lock order: gate mu before the service's mu_.
struct ServiceGate {
  std::mutex mu;
  SpatialService* service = nullptr;
};

}  // namespace service_internal

using service_internal::ServiceGate;

/// One submission's shared state. Completion (result/state/cv) is
/// self-contained on the ticket so handles stay valid independently of
/// the service's internals; handle-side calls back into the service go
/// through the gate (see ServiceGate). Lock order: gate mu before
/// service mu_ before ticket mu, never the reverse.
struct SubmittedQuery::Ticket {
  /// Executes the submitted query with its admitted options and carved
  /// arbiter. Holds a private copy of the query; referenced inputs must
  /// outlive the submission.
  using RunFn = std::function<sj::Result<JoinStats>(
      const JoinOptions&, std::shared_ptr<MemoryArbiter>)>;

  Ticket(std::shared_ptr<ServiceGate> gate_in, const JoinOptions& options_in,
         RunFn run_in)
      : gate(std::move(gate_in)),
        options(options_in),
        run(std::move(run_in)) {}

  std::shared_ptr<ServiceGate> gate;
  uint64_t id = 0;
  // Immutable once the ticket is published (set in Submit before the
  // ticket reaches the queue or a handle). `options` is the query's own:
  // its memory_bytes is the requested budget.
  JoinOptions options;
  RunFn run;
  bool allow_degraded = true;
  std::chrono::steady_clock::time_point deadline;

  enum class State { kQueued, kRunning, kDone };

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  State state = State::kQueued;
  size_t granted_bytes = 0;
  bool degraded = false;
  /// Set (with kDone) by Cancel(); the scheduler folds it into
  /// ServiceStats::cancelled when it removes the ticket from its queue,
  /// so the count lives on the ticket and needs no service call.
  bool cancelled_by_handle = false;
  uint32_t pool_client = 0;
  std::shared_ptr<MemoryArbiter> arbiter;  // Carved child; reset when done.
  std::optional<sj::Result<JoinStats>> result;

  /// Caller must hold `mu`.
  void FinishLocked(sj::Result<JoinStats> r) {
    // Single-finisher invariant: Cancel/expiry only resolve kQueued
    // tickets, Execute only finishes the kRunning ticket it admitted —
    // so the result is emplaced exactly once and references returned by
    // Result() stay valid.
    SJ_CHECK(state != State::kDone) << "double finish on query ticket";
    result.emplace(std::move(r));
    state = State::kDone;
    arbiter.reset();
    cv.notify_all();
  }
};

using Ticket = SubmittedQuery::Ticket;

bool SubmittedQuery::done() const {
  if (ticket_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return ticket_->state == Ticket::State::kDone;
}

void SubmittedQuery::Wait() const {
  if (ticket_ == nullptr) return;
  // Expiry is the scheduler's job: the service's reaper thread wakes at
  // the earliest queued deadline and resolves expired tickets (and its
  // destructor resolves everything still queued), so waiting handles
  // never need to touch the service.
  std::unique_lock<std::mutex> lock(ticket_->mu);
  ticket_->cv.wait(lock,
                   [this] { return ticket_->state == Ticket::State::kDone; });
}

/// Resolves a still-queued ticket with Cancelled, then notifies the
/// scheduler through the gate so the queue slot frees immediately and, if
/// this was the head, the queries behind it get an admission pass now
/// rather than at the next submit/completion. The gate pins the service:
/// once its destructor nulls the pointer, the destructor's drain has
/// already folded this ticket's cancel into the counters.
bool SubmittedQuery::Cancel() {
  if (ticket_ == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(ticket_->mu);
    if (ticket_->state != Ticket::State::kQueued) return false;
    ticket_->cancelled_by_handle = true;
    ticket_->FinishLocked(Status::Cancelled(
        "query #" + std::to_string(ticket_->id) +
        " cancelled while queued for admission"));
  }
  std::vector<std::shared_ptr<Ticket>> to_dispatch;
  SpatialService* service = nullptr;
  {
    std::lock_guard<std::mutex> gate_lock(ticket_->gate->mu);
    service = ticket_->gate->service;
    if (service != nullptr) to_dispatch = service->ReapAfterHandleCancel();
  }
  // Safe outside the gate: each dispatched ticket is already counted in
  // running_, which the service destructor waits on before returning.
  if (!to_dispatch.empty()) service->Dispatch(std::move(to_dispatch));
  return true;
}

const sj::Result<JoinStats>& SubmittedQuery::Result() const {
  SJ_CHECK(ticket_ != nullptr) << "Result() on a default SubmittedQuery";
  Wait();
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return *ticket_->result;
}

size_t SubmittedQuery::granted_bytes() const {
  if (ticket_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return ticket_->granted_bytes;
}

bool SubmittedQuery::degraded() const {
  if (ticket_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return ticket_->degraded;
}

uint64_t SubmittedQuery::id() const {
  return ticket_ == nullptr ? 0 : ticket_->id;
}

SpatialService::SpatialService(const ServiceOptions& options)
    : options_(options),
      global_arbiter_(options.global_memory_bytes,
                      options.strict_memory_accounting),
      gate_(std::make_shared<ServiceGate>()) {
  gate_->service = this;
  if (options_.worker_threads > 0) {
    worker_pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  if (options_.buffer_pool_pages > 0) {
    buffer_pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages);
  }
}

SpatialService::~SpatialService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
    reaper_stop_ = true;
    // Queued queries never run once shutdown starts; resolve them so no
    // handle blocks forever. Tickets a handle already cancelled (but the
    // scheduler has not reaped) get their count folded here — removal
    // from queue_ and the counter bump are atomic under mu_, so every
    // cancel is counted exactly once.
    for (const std::shared_ptr<Ticket>& t : queue_) {
      std::lock_guard<std::mutex> tl(t->mu);
      if (t->state == Ticket::State::kQueued) {
        t->FinishLocked(Status::Cancelled(
            "query #" + std::to_string(t->id) +
            " cancelled: the service shut down before admission"));
        counters_.cancelled++;
      } else if (t->state == Ticket::State::kDone && t->cancelled_by_handle) {
        counters_.cancelled++;
      }
    }
    queue_.clear();
  }
  reaper_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
  // Admitted queries run to completion.
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return running_ == 0; });
  }
  // From here no handle may reach this service: Cancel() callers either
  // already passed the gate (their tickets were resolved and folded by
  // the drain above, so their reap is a no-op) or will find it closed.
  {
    std::lock_guard<std::mutex> gate_lock(gate_->mu);
    gate_->service = nullptr;
  }
  worker_pool_.reset();  // Joins workers before the shared pool dies.
}

template <typename Query, typename Sink>
SubmittedQuery SpatialService::SubmitQuery(const Query& query, Sink* sink,
                                           const SubmitOptions& submit) {
  // The closure runs a private copy of the query whose arbiter reference
  // dies with the call, so FinishLocked's arbiter reset stays the last
  // reference to the carved budget.
  auto ticket = std::make_shared<Ticket>(
      gate_, query.options(),
      [query, sink](const JoinOptions& options,
                    std::shared_ptr<MemoryArbiter> arbiter) {
        Query admitted = query;
        admitted.mutable_options() = options;
        admitted.UseArbiter(std::move(arbiter));
        return admitted.RunDirect(sink);
      });
  SubmitTicket(ticket, submit);
  return SubmittedQuery(std::move(ticket));
}

void SpatialService::SubmitTicket(const std::shared_ptr<Ticket>& ticket,
                                  const SubmitOptions& submit) {
  ticket->allow_degraded =
      submit.allow_degraded && options_.degraded_min_bytes > 0;
  const double deadline_seconds = submit.queue_deadline_seconds >= 0.0
                                      ? submit.queue_deadline_seconds
                                      : options_.default_queue_deadline_seconds;
  ticket->deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_seconds));

  // Validation, enqueue, and admission form one continuous critical
  // section: the queue-limit and shutdown checks cannot go stale between
  // checking and enqueueing (N racing Submits each see the queue length
  // including the pushes that beat them, and no push can land after the
  // destructor's drain).
  std::vector<std::shared_ptr<Ticket>> to_dispatch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket->id = next_id_++;
    counters_.submitted++;
    // Reap before measuring the queue so cancelled/expired stragglers do
    // not count against the limit (done outside the new ticket's lock —
    // only one ticket mutex is ever held at a time).
    ReapLocked(Clock::now());
    {
      std::lock_guard<std::mutex> tl(ticket->mu);
      const size_t requested = ticket->options.memory_bytes;
      if (requested < kMinMemoryBytes) {
        // Misuse, not contention: same floor and code path the query layer
        // enforces (see JoinQuery::Compile).
        counters_.rejected++;
        ticket->FinishLocked(Status::FailedPrecondition(
            "memory budget " + std::to_string(requested) +
            " B is below the supported floor of " +
            std::to_string(kMinMemoryBytes) +
            " B (kMinMemoryBytes, 64 KiB); raise the query's MemoryBytes / "
            "JoinOptions::memory_bytes"));
        return;
      }
      if (requested > options_.global_memory_bytes) {
        // Unsatisfiable at any queue position: no amount of waiting frees
        // more than the whole global budget.
        counters_.rejected++;
        ticket->FinishLocked(Status::ResourceExhausted(
            "query asks for " + std::to_string(requested) +
            " B but the service's whole global budget is " +
            std::to_string(options_.global_memory_bytes) +
            " B; lower the query's MemoryBytes or grow "
            "ServiceOptions::global_memory_bytes"));
        return;
      }
      if (shutting_down_) {
        counters_.rejected++;
        ticket->FinishLocked(
            Status::FailedPrecondition("service is shutting down"));
        return;
      }
      if (queue_.size() >= options_.admission_queue_limit) {
        counters_.rejected++;
        ticket->FinishLocked(Status::ResourceExhausted(
            "admission queue is full (" +
            std::to_string(options_.admission_queue_limit) +
            " queries already waiting)"));
        return;
      }
    }
    queue_.push_back(ticket);
    to_dispatch = AdmitLocked();
    if (!queue_.empty()) {
      // Someone stayed queued: the reaper owns their deadlines.
      EnsureReaperLocked();
      reaper_cv_.notify_one();  // New earliest deadline, maybe.
    }
  }
  Dispatch(std::move(to_dispatch));
}

SubmittedQuery SpatialService::Submit(const JoinQuery& query, JoinSink* sink,
                                      const SubmitOptions& submit) {
  return SubmitQuery(query, sink, submit);
}

sj::Result<JoinStats> SpatialService::Run(const JoinQuery& query,
                                          JoinSink* sink,
                                          const SubmitOptions& submit) {
  return Submit(query, sink, submit).Result();
}

SubmittedQuery SpatialService::Submit(const JoinQuery& query, TupleSink* sink,
                                      const SubmitOptions& submit) {
  return SubmitQuery(query, sink, submit);
}

SubmittedQuery SpatialService::Submit(const PipelineQuery& pipeline,
                                      RowSink* sink,
                                      const SubmitOptions& submit) {
  return SubmitQuery(pipeline, sink, submit);
}

sj::Result<JoinStats> SpatialService::Run(const PipelineQuery& pipeline,
                                          RowSink* sink,
                                          const SubmitOptions& submit) {
  return Submit(pipeline, sink, submit).Result();
}

void SpatialService::ReapLocked(Clock::time_point now) {
  auto it = queue_.begin();
  while (it != queue_.end()) {
    const std::shared_ptr<Ticket>& t = *it;
    std::lock_guard<std::mutex> tl(t->mu);
    if (t->state == Ticket::State::kDone) {  // Handle-side cancel.
      if (t->cancelled_by_handle) counters_.cancelled++;
      it = queue_.erase(it);
      continue;
    }
    if (now >= t->deadline) {
      counters_.deadline_expired++;
      t->FinishLocked(Status::DeadlineExceeded(
          "query #" + std::to_string(t->id) +
          " expired after waiting for admission; the global memory "
          "budget stayed occupied past the queue deadline"));
      it = queue_.erase(it);
      continue;
    }
    ++it;
  }
}

std::vector<std::shared_ptr<Ticket>> SpatialService::AdmitLocked() {
  // Clear cancelled/expired tickets anywhere in the queue first, so they
  // neither hold queue slots nor block the FIFO head.
  ReapLocked(Clock::now());
  std::vector<std::shared_ptr<Ticket>> out;
  while (!queue_.empty()) {
    const std::shared_ptr<Ticket> t = queue_.front();
    const AdmitOutcome outcome = TryAdmitOneLocked(t);
    // Strict FIFO: if the head cannot be admitted (even degraded),
    // nothing behind it is — a stream of small queries can never starve
    // an earlier big one.
    if (outcome == AdmitOutcome::kNoBudget) break;
    queue_.pop_front();
    if (outcome == AdmitOutcome::kAdmitted) out.push_back(t);
    // kResolvedMeanwhile: a Cancel() landed between ReapLocked and the
    // commit; the ticket is popped without dispatching.
  }
  return out;
}

SpatialService::AdmitOutcome SpatialService::TryAdmitOneLocked(
    const std::shared_ptr<Ticket>& t) {
  // options / allow_degraded are immutable once the ticket is
  // published, so reading them without the ticket lock is fine.
  const size_t requested = t->options.memory_bytes;
  const size_t available = global_arbiter_.available();
  size_t grant = 0;
  bool degraded = false;
  if (available >= requested) {
    grant = requested;
  } else if (t->allow_degraded) {
    // Admit with what is free instead of queueing, if that is at least
    // the documented degradation floor (executors spill more under the
    // smaller budget; results are identical).
    const size_t floor =
        std::max(options_.degraded_min_bytes, kMinMemoryBytes);
    if (available >= floor) {
      grant = std::min(requested, available);
      degraded = true;
    }
  }
  if (grant == 0) return AdmitOutcome::kNoBudget;

  auto child = global_arbiter_.CarveChild("query." + std::to_string(t->id),
                                          grant,
                                          t->options.strict_memory_accounting);
  if (!child.ok()) return AdmitOutcome::kNoBudget;
  {
    std::lock_guard<std::mutex> tl(t->mu);
    // Recheck under the ticket lock: a Cancel() may have resolved the
    // ticket since this admission pass last looked at it. Committing
    // blindly would overwrite kDone with kRunning and run a cancelled
    // query. Dropping `child` here releases the carved budget.
    if (t->state != Ticket::State::kQueued) {
      if (t->cancelled_by_handle) counters_.cancelled++;
      return AdmitOutcome::kResolvedMeanwhile;
    }
    t->state = Ticket::State::kRunning;
    t->granted_bytes = grant;
    t->degraded = degraded;
    t->arbiter = std::move(child).value();
    if (buffer_pool_ != nullptr) {
      t->pool_client =
          buffer_pool_->RegisterClient("query." + std::to_string(t->id));
    }
  }
  if (degraded) {
    counters_.admitted_degraded++;
  } else {
    counters_.admitted_full++;
  }
  running_++;
  return AdmitOutcome::kAdmitted;
}

std::vector<std::shared_ptr<Ticket>> SpatialService::ReapAfterHandleCancel() {
  std::lock_guard<std::mutex> lock(mu_);
  // During shutdown the destructor's drain owns the queue (and folds the
  // cancel count itself).
  if (shutting_down_) return {};
  return AdmitLocked();
}

void SpatialService::EnsureReaperLocked() {
  if (!reaper_.joinable()) {
    // Lazily started on the first submission that actually queues, so
    // the single-query path (JoinQuery::Run over a fresh service) never
    // pays for a thread.
    reaper_ = std::thread(&SpatialService::ReaperLoop, this);
  }
}

void SpatialService::ReaperLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!reaper_stop_) {
    // Sleep until the earliest queued deadline (or a queue change).
    std::optional<Clock::time_point> next;
    for (const std::shared_ptr<Ticket>& t : queue_) {
      std::lock_guard<std::mutex> tl(t->mu);
      if (t->state == Ticket::State::kQueued) {
        next = next.has_value() ? std::min(*next, t->deadline) : t->deadline;
      }
    }
    if (!next.has_value()) {
      reaper_cv_.wait(lock);
    } else {
      reaper_cv_.wait_until(lock, *next);
    }
    if (reaper_stop_) break;
    // Expire whatever is overdue and re-run admission: an expired head
    // must not keep admittable queries behind it waiting for the next
    // submit/completion.
    std::vector<std::shared_ptr<Ticket>> to_dispatch = AdmitLocked();
    if (!to_dispatch.empty()) {
      lock.unlock();
      Dispatch(std::move(to_dispatch));
      lock.lock();
    }
  }
}

void SpatialService::Dispatch(
    std::vector<std::shared_ptr<Ticket>> tickets) {
  for (std::shared_ptr<Ticket>& t : tickets) {
    if (worker_pool_ != nullptr) {
      std::shared_ptr<Ticket> ticket = std::move(t);
      worker_pool_->Submit(
          [this, ticket = std::move(ticket)] { Execute(ticket); });
    } else {
      Execute(t);  // Inline mode: the submitter's thread is the worker.
    }
  }
}

void SpatialService::Execute(const std::shared_ptr<Ticket>& ticket) {
  // The query runs with its options rewritten to the admission outcome:
  // granted budget and the shared pool(s), next to the carved child
  // arbiter. The run closure's copies of the arbiter pointer die with the
  // call, so FinishLocked's arbiter reset below is the last reference —
  // otherwise the carved budget would still look occupied when
  // AdmitLocked re-runs admission.
  JoinOptions o = ticket->options;
  o.memory_bytes = ticket->granted_bytes;
  if (worker_pool_ != nullptr) o.worker_pool = worker_pool_.get();
  if (buffer_pool_ != nullptr) {
    o.shared_buffer_pool = buffer_pool_.get();
    o.buffer_pool_client = ticket->pool_client;
  }
  // The service's storage backend is the default; a query that chose its
  // own keeps it.
  if (o.storage == nullptr) o.storage = options_.storage;
  sj::Result<JoinStats> result = ticket->run(o, ticket->arbiter);

  std::vector<std::shared_ptr<Ticket>> to_dispatch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    {
      std::lock_guard<std::mutex> tl(ticket->mu);
      ticket->FinishLocked(std::move(result));  // Frees the carved budget.
    }
    running_--;
    idle_cv_.notify_all();
    to_dispatch = AdmitLocked();  // The freed bytes may admit the head.
  }
  Dispatch(std::move(to_dispatch));
}

ServiceStats SpatialService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = counters_;
  s.global_in_use_bytes = global_arbiter_.in_use();
  s.global_peak_bytes = global_arbiter_.peak_bytes();
  if (buffer_pool_ != nullptr) s.pool = buffer_pool_->stats();
  return s;
}

}  // namespace sj
