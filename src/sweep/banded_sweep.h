#ifndef USJ_SWEEP_BANDED_SWEEP_H_
#define USJ_SWEEP_BANDED_SWEEP_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "geometry/rect.h"
#include "sweep/interval_structures.h"
#include "sweep/sweep_join.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {

/// One banded plane sweep (BandedSweepJoin).
struct BandedSweepConfig {
  SweepStructureKind kind = SweepStructureKind::kStriped;
  /// Sweep extent and strip count, as for SweepJoinWithKind.
  RectF extent;
  uint32_t strips = 1024;
  /// Bands wanted, one per thread; <= 1 sweeps on the caller alone.
  uint32_t threads = 1;
  /// Shared pool the band team joins (service mode); nullptr spins up a
  /// private team for this sweep.
  ThreadPool* pool = nullptr;
  /// Bytes the epoch and pair buffers may occupy. BandedSweepBufferBytes
  /// gives the preferred figure; a smaller budget shrinks the epochs and,
  /// below the multi-band minimum, falls back to one band.
  size_t buffer_bytes = 0;
  /// Events the sweep will see (both inputs); bounds the buffers of small
  /// sweeps. 0 = unknown.
  uint64_t events = 0;
};

struct BandedSweepStats : SweepRunStats {
  /// Bands the strips were dealt into (1 = the serial sweep).
  uint32_t bands = 1;
  /// Epoch and pair buffer bytes the sweep allocated.
  size_t buffer_bytes = 0;
  /// CPU time of the bands that ran on pool workers (the caller's own
  /// CPU is not included).
  double worker_cpu_seconds = 0;
};

/// The buffer shape of one banded sweep.
struct BandedSweepLayout {
  uint32_t bands = 1;
  /// Epochs in flight between the caller and the bands.
  uint32_t slots = 1;
  /// Events per epoch, and per-band ring capacities (powers of two).
  uint32_t epoch_events = 0;
  uint32_t ring_pairs = 0;
  uint32_t ring_records = 0;
  /// Bytes of one pair-ring entry: an IdPair, or the partner's RectF when
  /// the caller takes rectangles.
  uint32_t pair_bytes = sizeof(IdPair);

  size_t Bytes() const;
};

/// Picks bands and buffer sizes for `config` over `strips` strips, for a
/// caller that takes ids or (`rects`) rectangles.
BandedSweepLayout PlanBandedSweep(const BandedSweepConfig& config,
                                  uint32_t strips, bool rects = false);

/// The buffer bytes a sweep of `events` events wants at `threads` bands.
size_t BandedSweepBufferBytes(uint32_t threads, uint64_t events,
                              bool rects = false);

namespace banded_internal {

/// One merged input event: the rectangle, the strips [s0, s1] it
/// overlaps and the input it came from (0 = A, 1 = B).
struct SweepEvent {
  RectF rect;
  uint32_t s0 = 0;
  uint32_t s1 = 0;
  uint8_t side = 0;
};

/// What a worker band reports for a strip of an event that produced
/// pairs: which one (event * strips + strip) and how many pairs it wrote
/// to its pair ring. Strip-events without pairs get no record.
struct StripRecord {
  uint64_t key = 0;
  uint64_t pairs = 0;
};

/// Spin-then-block wakeup: Wait(ready) returns once ready() holds; every
/// state change a waiter may be waiting for is followed by Notify().
class Signal {
 public:
  template <typename Ready>
  void Wait(Ready&& ready) {
    for (int spin = 0; spin < kSpins; ++spin) {
      if (ready()) return;
      Pause();
    }
    // A blocked thread can take a millisecond to wake (an idle virtual
    // CPU is parked), far longer than the other side usually needs to
    // deliver: keep yielding for a while before blocking.
    const double deadline = WallTimer::Now() + kYieldSeconds;
    do {
      for (int spin = 0; spin < 16; ++spin) {
        if (ready()) return;
        std::this_thread::yield();
      }
    } while (WallTimer::Now() < deadline);
    std::unique_lock<std::mutex> lock(mu_);
    waiters_.fetch_add(1, std::memory_order_relaxed);
    // Pairs with the fence in Notify: either the notifier sees this
    // waiter, or this check sees the notifier's state change.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    while (!ready()) cv_.wait(lock);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  void Notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

 private:
  static constexpr int kSpins = 256;
  static constexpr double kYieldSeconds = 0.002;
  static void Pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::atomic<uint32_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// One band: the two inputs' structures over the strips s with
/// s % stride == offset, plus the channel a worker running the band
/// reports through. Its pair ring holds `Pair`s: IdPairs, or the partner
/// RectF of each pair when the caller takes rectangles (the caller still
/// holds the event's own rectangle when it drains).
template <typename Structure, typename Pair>
struct Band {
  enum Owner : int { kFree = 0, kWorker = 1, kCaller = 2 };

  Band(const StripeGeometry& geometry, uint32_t band_offset,
       uint32_t band_stride)
      : offset(band_offset), stride(band_stride) {
    if constexpr (std::is_same_v<Structure, StripedSweep>) {
      a.emplace(geometry, offset, stride);
      b.emplace(geometry, offset, stride);
    } else {
      a.emplace();
      b.emplace();
    }
  }

  /// The first strip of event `e` this band owns (> e.s1 when none).
  uint32_t FirstStrip(const SweepEvent& e) const {
    return e.s0 + (offset + stride - e.s0 % stride) % stride;
  }

  /// Applies strip `s` of event `e` as SweepJoinRun applies the whole
  /// event: query the other input's structure, then insert. Reports each
  /// pair as partner(rectangle from the other input). Strips are
  /// independent, so applying an event strip by strip equals the serial
  /// query-all-then-insert.
  template <typename Partner>
  void ApplyStrip(const SweepEvent& e, uint32_t s, Partner&& partner) {
    const RectF& r = e.rect;
    Structure& mine = e.side == 0 ? *a : *b;
    Structure& other = e.side == 0 ? *b : *a;
    if constexpr (std::is_same_v<Structure, StripedSweep>) {
      other.QueryStrip(r, s, partner);
      mine.InsertStrip(r, s);
    } else {
      other.QueryAndExpire(r, partner);
      mine.Insert(r);
    }
  }

  /// Drops the band's expired entries at sweep position y.
  void Purge(float y) {
    if constexpr (std::is_same_v<Structure, StripedSweep>) {
      a->Purge(y);
      b->Purge(y);
    }
  }

  size_t entries() const { return a->ActiveCount() + b->ActiveCount(); }

  const uint32_t offset;
  const uint32_t stride;
  std::optional<Structure> a, b;
  std::atomic<int> owner{kFree};
  double cpu_seconds = 0;  // Worker-run bands only.

  // Written by the worker: sweep events finished (a global event index;
  // every record of those events is in records_written), epochs
  // finished, and — while stalled on a full ring — the pairs written and
  // 1 + the key of the strip-event it is producing.
  alignas(64) std::atomic<uint64_t> progress{0};
  std::atomic<uint64_t> records_written{0};
  std::atomic<uint64_t> epochs_done{0};
  std::atomic<uint64_t> pairs_written{0};
  std::atomic<uint64_t> stalled{0};
  // Written by the caller: records and pairs taken out of the rings.
  alignas(64) std::atomic<uint64_t> records_taken{0};
  std::atomic<uint64_t> pairs_taken{0};
  // Caller-local mirrors.
  uint64_t progress_seen = 0;  // Cache of progress.
  uint64_t records_seen = 0;   // Cache of records_written.
  uint64_t next_record = 0;
  uint64_t next_pair = 0;
  uint64_t records_published = 0;  // Last records_taken stored.
  uint64_t pairs_published = 0;    // Last pairs_taken stored.
  std::vector<Pair> pairs;
  std::vector<StripRecord> records;
  Signal signal;  // The worker waits here.
};

/// The banded sweep engine; see BandedSweepJoin. With `kRects` it reports
/// emit(const RectF& from A, const RectF& from B), else emit(id from A,
/// id from B).
template <typename Structure, bool kRects>
class BandedSweep {
 public:
  BandedSweep(const StripeGeometry& geometry, const BandedSweepLayout& layout,
              ThreadPool* pool)
      : geometry_(geometry),
        layout_(layout),
        pool_(pool),
        epoch_(layout.epoch_events),
        events_(size_t{layout.slots} * layout.epoch_events),
        deltas_(size_t{layout.slots} * layout.epoch_events),
        epoch_size_(layout.slots, 0) {
    bands_.reserve(layout.bands);
    for (uint32_t k = 0; k < layout.bands; ++k) {
      bands_.push_back(std::make_unique<BandT>(geometry, k, layout.bands));
      if (layout.bands > 1) {
        bands_[k]->pairs.resize(layout.ring_pairs);
        bands_[k]->records.resize(layout.ring_records);
      }
    }
  }

  template <typename SourceA, typename SourceB, typename Emit>
  BandedSweepStats Run(SourceA& a, SourceB& b, Emit&& emit) {
    // The team starts first, so its threads spin up while the caller
    // reads the first epochs. The guard stops the workers before the
    // group (declared earlier, destroyed later) waits for them.
    std::optional<ThreadPool> private_pool;
    std::optional<ThreadPool::Group> team;
    if (bands_.size() > 1) {
      ThreadPool& pool = pool_ != nullptr
                             ? *pool_
                             : private_pool.emplace(
                                   static_cast<uint32_t>(bands_.size()));
      team.emplace(pool);
      for (size_t k = 0; k < bands_.size(); ++k) {
        team->Submit([this] { WorkerMain(); });
      }
    }
    struct StopGuard {
      BandedSweep* sweep;
      ~StopGuard() { sweep->StopWorkers(); }
    } stop_guard{this};

    std::optional<RectF> ra = a.Next();
    std::optional<RectF> rb = b.Next();
    uint64_t filled = 0, drained = 0;
    bool exhausted = false;
    for (;;) {
      if (!exhausted && filled - drained < layout_.slots) {
        const uint32_t slot = Slot(filled);
        const uint32_t n = Fill(&events_[size_t{slot} * epoch_], a, b, &ra,
                                &rb);
        if (n < epoch_) exhausted = true;
        if (n == 0) continue;
        std::atomic<int64_t>* deltas = &deltas_[size_t{slot} * epoch_];
        for (uint32_t i = 0; i < n; ++i) {
          deltas[i].store(0, std::memory_order_relaxed);
        }
        epoch_size_[slot] = n;
        filled++;
        published_.store(filled, std::memory_order_release);
        NotifyWorkers();
        continue;
      }
      if (drained == filled) break;
      if (drained == 0) ClaimFreeBands();
      Drain(drained++, emit);
    }
    StopWorkers();
    if (team.has_value()) team->Wait();

    BandedSweepStats stats;
    stats.output_count = output_;
    stats.max_active = static_cast<size_t>(max_entries_);
    stats.max_structure_bytes = stats.max_active * sizeof(RectF);
    stats.strips_collapsed = geometry_.collapsed();
    stats.bands = static_cast<uint32_t>(bands_.size());
    stats.buffer_bytes = layout_.Bytes();
    for (const auto& band : bands_) {
      if (band->owner.load(std::memory_order_relaxed) == BandT::kWorker) {
        stats.worker_cpu_seconds += band->cpu_seconds;
      }
    }
    return stats;
  }

 private:
  using Pair = std::conditional_t<kRects, RectF, IdPair>;
  using BandT = Band<Structure, Pair>;
  /// A worker band publishes its progress every this many events it
  /// processed (and at every epoch end and stall).
  static constexpr uint32_t kPublishEvery = 16;
  /// How far ahead of the caller's reads ring lines are prefetched.
  static constexpr uint64_t kPrefetchRecords = 8;
  static constexpr uint64_t kPrefetchPairs = 16;
  /// Sweep events between two purges of every band.
  static constexpr uint64_t kPurgeEvery = 256;
  /// How long the caller waits for shared-pool workers to pick up bands.
  static constexpr double kClaimWaitSeconds = 0.002;

  /// Whether every band purges its expired entries before sweep event
  /// `g`. Purges run at fixed events rather than on an amortized count
  /// of the band's own inserts, so each strip's list is the same for any
  /// banding — and strips the sweep has left behind still get cleaned.
  static bool PurgesAt(uint64_t g) {
    if constexpr (std::is_same_v<Structure, StripedSweep>) {
      return g > 0 && g % kPurgeEvery == 0;
    } else {
      return false;  // The one Forward-Sweep band purges itself.
    }
  }

  uint32_t Slot(uint64_t epoch) const {
    return static_cast<uint32_t>(epoch % layout_.slots);
  }

  /// Reads up to one epoch of events, y-merging the sources with exactly
  /// SweepJoinRun's Next() interleaving (so page reads are unchanged).
  template <typename SourceA, typename SourceB>
  uint32_t Fill(SweepEvent* out, SourceA& a, SourceB& b,
                std::optional<RectF>* ra, std::optional<RectF>* rb) {
    uint32_t n = 0;
    while (n < epoch_ && (ra->has_value() || rb->has_value())) {
      const bool take_a =
          ra->has_value() && (!rb->has_value() || (*ra)->ylo <= (*rb)->ylo);
      SweepEvent& e = out[n++];
      e.rect = take_a ? **ra : **rb;
      e.side = take_a ? 0 : 1;
      geometry_.Range(e.rect, &e.s0, &e.s1);
      if (take_a) {
        *ra = a.Next();
      } else {
        *rb = b.Next();
      }
    }
    return n;
  }

  /// Settles who runs each band before the first drain. A private team's
  /// threads are the sweep's own, so the caller waits for them; on a
  /// shared pool, bands no worker has claimed within kClaimWaitSeconds
  /// stay with the caller for the whole sweep — a saturated pool slows
  /// the sweep down but never stalls it.
  void ClaimFreeBands() {
    auto all_claimed = [&] {
      return claimed_.load(std::memory_order_acquire) == bands_.size();
    };
    if (bands_.size() > 1 && pool_ == nullptr) {
      caller_signal_.Wait(all_claimed);
    } else if (bands_.size() > 1) {
      const double deadline = WallTimer::Now() + kClaimWaitSeconds;
      while (!all_claimed() && WallTimer::Now() < deadline) {
        std::this_thread::yield();
      }
    }
    for (const auto& band : bands_) {
      int expected = BandT::kFree;
      band->owner.compare_exchange_strong(expected, BandT::kCaller,
                                          std::memory_order_acq_rel);
      caller_runs_.push_back(
          band->owner.load(std::memory_order_relaxed) == BandT::kCaller);
    }
  }

  /// Emits epoch `epoch` in serial order — per event, strip by strip —
  /// then folds the per-event footprint into the maximum.
  template <typename Emit>
  void Drain(uint64_t epoch, Emit& emit) {
    const uint32_t slot = Slot(epoch);
    const uint32_t n = epoch_size_[slot];
    const SweepEvent* events = &events_[size_t{slot} * epoch_];
    std::atomic<int64_t>* deltas = &deltas_[size_t{slot} * epoch_];
    const uint32_t stride = static_cast<uint32_t>(bands_.size());
    const uint64_t base = epoch * epoch_;
    for (uint32_t i = 0; i < n; ++i) {
      const SweepEvent& e = events[i];
      const uint64_t g = base + i;
      int64_t delta = 0;  // The caller-run bands' share.
      if (PurgesAt(g)) {
        for (const auto& band : bands_) {
          if (caller_runs_[band->offset]) {
            const size_t before = band->entries();
            band->Purge(e.rect.ylo);
            delta += static_cast<int64_t>(band->entries()) -
                     static_cast<int64_t>(before);
          }
        }
      }
      uint32_t k = e.s0 % stride;
      for (uint32_t s = e.s0; s <= e.s1; ++s) {
        BandT* band = bands_[k].get();
        if (caller_runs_[k]) {
          const size_t before = band->entries();
          band->ApplyStrip(e, s, [&](const RectF& o) {
            Report(e, o, emit);
            output_++;
          });
          delta += static_cast<int64_t>(band->entries()) -
                   static_cast<int64_t>(before);
        } else {
          TakeStrip(band, e, g, g * geometry_.strips() + s, emit);
        }
        if (++k == stride) k = 0;
      }
      if (delta != 0) deltas[i].fetch_add(delta, std::memory_order_relaxed);
    }
    // Every worker band finishes the epoch (its deltas included) before
    // the footprint is read and the slot refilled.
    for (const auto& band : bands_) PublishTaken(band.get());
    for (const auto& band : bands_) {
      if (caller_runs_[band->offset]) continue;
      BandT* b = band.get();
      caller_signal_.Wait([&] {
        return b->epochs_done.load(std::memory_order_acquire) > epoch ||
               failed_.load(std::memory_order_acquire);
      });
      RethrowWorkerFailure();
    }
    for (uint32_t i = 0; i < n; ++i) {
      total_entries_ += deltas[i].load(std::memory_order_relaxed);
      max_entries_ = std::max(max_entries_, total_entries_);
    }
  }

  /// Reports the pair of event `e` and its partner `o` from the other
  /// input, in (A, B) order.
  template <typename Emit>
  static void Report(const SweepEvent& e, const RectF& o, Emit& emit) {
    if constexpr (kRects) {
      if (e.side == 0) {
        emit(e.rect, o);
      } else {
        emit(o, e.rect);
      }
    } else if (e.side == 0) {
      emit(e.rect.id, o.id);
    } else {
      emit(o.id, e.rect.id);
    }
  }

  /// The ring entry of the pair of event `e` and its partner `o`.
  static Pair RingEntry(const SweepEvent& e, const RectF& o) {
    if constexpr (kRects) {
      return o;
    } else {
      return e.side == 0 ? IdPair{e.rect.id, o.id} : IdPair{o.id, e.rect.id};
    }
  }

  /// Emits the pairs a worker band found in strip-event `key` (strip of
  /// global event `g`, which is `e`), if any.
  template <typename Emit>
  void TakeStrip(BandT* band, const SweepEvent& e, uint64_t g, uint64_t key,
                 Emit& emit) {
    const uint64_t start = band->next_pair;
    const uint64_t r = band->next_record;
    for (;;) {
      if (band->progress_seen <= g) {
        band->progress_seen = band->progress.load(std::memory_order_acquire);
      }
      // The band is past this strip-event once it finished event g or
      // stalled on a later strip-event (it goes through them in order).
      bool passed = band->progress_seen > g;
      if (!passed && band->records_seen <= r) {
        passed = band->stalled.load(std::memory_order_acquire) > key + 1;
      }
      // Read after those: once the band is past, every record of this
      // strip-event is published.
      if (band->records_seen <= r) {
        band->records_seen =
            band->records_written.load(std::memory_order_acquire);
      }
      if (band->records_seen > r) {
        // Records come in key order, so a later key means this
        // strip-event found no pairs. A copy: once published as taken,
        // the slot may be rewritten.
        const uint64_t record_mask = band->records.size() - 1;
        const StripRecord rec = band->records[r & record_mask];
        if (rec.key != key) return;
        // The ring lines come from another core: fetch the next ones
        // while these pairs are emitted.
        if (r + kPrefetchRecords < band->records_seen) {
          __builtin_prefetch(
              &band->records[(r + kPrefetchRecords) & record_mask]);
        }
        __builtin_prefetch(
            &band->pairs[(start + kPrefetchPairs) & (band->pairs.size() - 1)]);
        EmitPairs(band, e, start + rec.pairs, emit);
        band->next_record = r + 1;
        if (band->next_record - band->records_published >=
                layout_.ring_records / 4 ||
            band->next_pair - band->pairs_published >=
                layout_.ring_pairs / 4) {
          PublishTaken(band);
        }
        return;
      }
      if (passed) return;  // No pairs here.
      // The band has not finished this strip-event. If it stalled on a
      // full ring inside it, every pair it wrote beyond what was taken
      // belongs here: take them so it can go on. (pairs_written is read
      // first: a value from a later stall implies `stalled` moved.)
      const uint64_t written =
          band->pairs_written.load(std::memory_order_acquire);
      if (band->stalled.load(std::memory_order_acquire) == key + 1 &&
          written > band->next_pair) {
        EmitPairs(band, e, written, emit);
        PublishTaken(band);
        continue;
      }
      // Never wait while holding back ring space: the other bands keep
      // sweeping ahead meanwhile.
      for (const auto& other : bands_) PublishTaken(other.get());
      caller_signal_.Wait([&] {
        const uint64_t stalled = band->stalled.load(std::memory_order_acquire);
        return band->progress.load(std::memory_order_acquire) > g ||
               band->records_written.load(std::memory_order_acquire) > r ||
               stalled > key + 1 ||
               (stalled == key + 1 &&
                band->pairs_written.load(std::memory_order_acquire) >
                    band->next_pair) ||
               failed_.load(std::memory_order_acquire);
      });
      RethrowWorkerFailure();
    }
  }

  template <typename Emit>
  void EmitPairs(BandT* band, const SweepEvent& e, uint64_t end, Emit& emit) {
    const uint64_t mask = band->pairs.size() - 1;
    for (uint64_t j = band->next_pair; j < end; ++j) {
      const Pair& p = band->pairs[j & mask];
      if constexpr (kRects) {
        Report(e, p, emit);
      } else {
        emit(p.a, p.b);
      }
    }
    output_ += end - band->next_pair;
    band->next_pair = end;
  }

  void PublishTaken(BandT* band) {
    if (band->next_record == band->records_published &&
        band->next_pair == band->pairs_published) {
      return;
    }
    band->records_published = band->next_record;
    band->pairs_published = band->next_pair;
    band->records_taken.store(band->next_record, std::memory_order_release);
    band->pairs_taken.store(band->next_pair, std::memory_order_release);
    band->signal.Notify();
  }

  void RethrowWorkerFailure() {
    if (!failed_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(failure_mu_);
    std::rethrow_exception(failure_);
  }

  /// A pool task: claims the first free band and runs it to the end of
  /// the sweep (returns at once when every band is taken).
  void WorkerMain() {
    for (const auto& band : bands_) {
      int expected = BandT::kFree;
      if (!band->owner.compare_exchange_strong(expected, BandT::kWorker,
                                               std::memory_order_acq_rel)) {
        continue;
      }
      claimed_.fetch_add(1, std::memory_order_acq_rel);
      caller_signal_.Notify();
      try {
        RunBand(band.get());
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(failure_mu_);
          if (!failure_) failure_ = std::current_exception();
        }
        failed_.store(true, std::memory_order_release);
        caller_signal_.Notify();
      }
      return;
    }
  }

  /// A worker's band loop: every published epoch, every event touching
  /// the band, strip by strip, into the rings.
  void RunBand(BandT* band) {
    ThreadCpuTimer cpu;
    const uint64_t pair_mask = band->pairs.size() - 1;
    const uint64_t record_mask = band->records.size() - 1;
    const uint64_t strips = geometry_.strips();
    uint64_t pairs = 0, records = 0;            // Written.
    uint64_t pairs_room = 0, records_room = 0;  // Taken + capacity.
    uint32_t unpublished = 0;
    auto publish = [&](uint64_t events_done) {
      band->records_written.store(records, std::memory_order_release);
      band->progress.store(events_done, std::memory_order_release);
      caller_signal_.Notify();
      unpublished = 0;
    };
    auto stall = [&](uint64_t g, uint64_t key, auto&& has_room) {
      band->pairs_written.store(pairs, std::memory_order_release);
      publish(g);
      band->stalled.store(key + 1, std::memory_order_release);
      caller_signal_.Notify();
      band->signal.Wait([&] {
        return has_room() || stop_.load(std::memory_order_acquire);
      });
      band->stalled.store(0, std::memory_order_release);
    };
    auto pair_room = [&] {
      pairs_room = band->pairs_taken.load(std::memory_order_acquire) +
                   band->pairs.size();
      return pairs < pairs_room;
    };
    auto record_room = [&] {
      records_room = band->records_taken.load(std::memory_order_acquire) +
                     band->records.size();
      return records < records_room;
    };
    for (uint64_t epoch = 0;; ++epoch) {
      band->signal.Wait([&] {
        return published_.load(std::memory_order_acquire) > epoch ||
               stop_.load(std::memory_order_acquire);
      });
      if (published_.load(std::memory_order_acquire) <= epoch ||
          stop_.load(std::memory_order_acquire)) {
        break;
      }
      const uint32_t slot = Slot(epoch);
      const uint32_t n = epoch_size_[slot];
      const SweepEvent* events = &events_[size_t{slot} * epoch_];
      std::atomic<int64_t>* deltas = &deltas_[size_t{slot} * epoch_];
      const uint64_t base = epoch * epoch_;
      for (uint32_t i = 0; i < n; ++i) {
        const SweepEvent& e = events[i];
        const uint64_t g = base + i;
        uint32_t s = band->FirstStrip(e);
        const bool purges = PurgesAt(g);
        if (s > e.s1 && !purges) continue;
        const size_t before = band->entries();
        if (purges) band->Purge(e.rect.ylo);
        for (; s <= e.s1; s += band->stride) {
          const uint64_t key = g * strips + s;
          const uint64_t start = pairs;
          band->ApplyStrip(e, s, [&](const RectF& o) {
            // After a stop the ring is overwritten; nobody reads it.
            if (pairs == pairs_room && !pair_room()) {
              stall(g, key, pair_room);
            }
            band->pairs[pairs & pair_mask] = RingEntry(e, o);
            pairs++;
          });
          if (pairs == start) continue;
          if (records == records_room && !record_room()) {
            stall(g, key, record_room);
          }
          band->records[records & record_mask] =
              StripRecord{key, pairs - start};
          records++;
        }
        const size_t after = band->entries();
        if (after != before) {
          deltas[i].fetch_add(
              static_cast<int64_t>(after) - static_cast<int64_t>(before),
              std::memory_order_relaxed);
        }
        if (++unpublished == kPublishEvery) publish(g + 1);
      }
      publish(base + n);
      band->epochs_done.store(epoch + 1, std::memory_order_release);
      caller_signal_.Notify();
    }
    band->cpu_seconds = cpu.Elapsed();
  }

  void NotifyWorkers() {
    for (const auto& band : bands_) {
      if (band->owner.load(std::memory_order_relaxed) != BandT::kCaller) {
        band->signal.Notify();
      }
    }
  }

  void StopWorkers() {
    stop_.store(true, std::memory_order_release);
    for (const auto& band : bands_) band->signal.Notify();
  }

  const StripeGeometry geometry_;
  const BandedSweepLayout layout_;
  ThreadPool* const pool_;
  const uint32_t epoch_;
  std::vector<SweepEvent> events_;    // slots * epoch_ events.
  // Per event: the change in all bands' entries it caused.
  std::vector<std::atomic<int64_t>> deltas_;
  std::vector<uint32_t> epoch_size_;  // Events in each slot's epoch.
  std::vector<std::unique_ptr<BandT>> bands_;
  std::vector<bool> caller_runs_;  // Per band, settled at the first drain.
  std::atomic<uint64_t> published_{0};  // Epochs the workers may read.
  std::atomic<uint32_t> claimed_{0};    // Bands claimed by workers.
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::mutex failure_mu_;
  std::exception_ptr failure_;
  Signal caller_signal_;
  uint64_t output_ = 0;
  int64_t total_entries_ = 0;
  int64_t max_entries_ = 0;
};

}  // namespace banded_internal

/// The plane sweep of SweepJoinWithKind, dealt out in x-bands that run in
/// parallel, with a result bit-identical to the serial sweep.
///
/// The strips of the Striped-Sweep are dealt round-robin into one band
/// per thread (strip s to band s % bands): dense clusters are narrower
/// than a strip, so contiguous bands would leave most of every stretch of
/// the sweep to one band. The caller coordinates: it reads the two
/// y-sorted sources once, y-merging them with exactly SweepJoinRun's
/// Next() interleaving (so page reads and modeled I/O are unchanged),
/// into fixed-size epochs of merged events shared with the bands. Each
/// band runs its own pair of band-restricted StripedSweeps over only the
/// events that touch its strips, writing its pairs and a record per
/// strip-event that found any into bounded rings, and its change in
/// active entries into the event's footprint delta. The caller emits the
/// pairs in serial order — per event, strip by strip — and because a
/// strip's list, and with it its emission order, does not depend on the
/// banding, the pair sequence equals the one-band run's. So does the
/// footprint: the caller sums the deltas event by event into
/// max_structure_bytes / max_active. Expired entries are purged at fixed
/// sweep events in every band.
///
/// Pairs are reported always on the calling thread, as emit(const RectF&
/// from A, const RectF& from B) when `emit` takes two rectangles, else as
/// emit(ObjectId from A, ObjectId from B). The pair rings hold 8-byte id
/// pairs for an id caller, and each pair's 20-byte partner rectangle for
/// a rectangle caller. One band (threads <= 1, the Forward-Sweep,
/// collapsed extents, tight buffer budgets) runs on the caller alone and
/// emits straight through. Bands no pool worker has picked up by the
/// first drain are run by the caller itself, so a saturated shared pool
/// slows the sweep down but never stalls it. Sink-side I/O, if any, may
/// interleave with the source reads differently than in the serial sweep.
template <typename SourceA, typename SourceB, typename Emit>
BandedSweepStats BandedSweepJoin(const BandedSweepConfig& config,
                                 SourceA& a, SourceB& b, Emit&& emit) {
  constexpr bool kRects =
      std::is_invocable_v<Emit&, const RectF&, const RectF&>;
  const bool striped = config.kind == SweepStructureKind::kStriped;
  const StripeGeometry geometry(config.extent, striped ? config.strips : 1);
  const BandedSweepLayout layout =
      PlanBandedSweep(config, geometry.strips(), kRects);
  if (striped) {
    banded_internal::BandedSweep<StripedSweep, kRects> sweep(geometry, layout,
                                                             config.pool);
    return sweep.Run(a, b, emit);
  }
  banded_internal::BandedSweep<ForwardSweep, kRects> sweep(geometry, layout,
                                                           config.pool);
  return sweep.Run(a, b, emit);
}

}  // namespace sj

#endif  // USJ_SWEEP_BANDED_SWEEP_H_
