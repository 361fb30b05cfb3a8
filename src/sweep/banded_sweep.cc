#include "sweep/banded_sweep.h"

namespace sj {
namespace {

using banded_internal::StripRecord;
using banded_internal::SweepEvent;

// Epoch sizes: the preferred one, the smallest that still runs several
// bands, and the floor of the one-band sweep.
constexpr uint32_t kMaxEpochEvents = 2048;
constexpr uint32_t kMinBandedEpochEvents = 256;
constexpr uint32_t kMinEpochEvents = 64;
// Epochs in flight with a team: the caller fills and drains while the
// bands sweep up to kTeamSlots - 1 epochs ahead of it.
constexpr uint32_t kTeamSlots = 4;
// Ring capacities per epoch event: room for the pairs and strip records
// a band writes ahead of the caller on pair-dense data.
constexpr uint32_t kRingPairsPerEvent = 16;
constexpr uint32_t kRingRecordsPerEvent = 2;

uint32_t EpochFor(uint64_t events) {
  if (events == 0) return kMaxEpochEvents;
  uint32_t e = kMinEpochEvents;
  while (e < kMaxEpochEvents && e < events) e *= 2;
  return e;
}

BandedSweepLayout Layout(uint32_t bands, uint32_t epoch_events, bool rects) {
  BandedSweepLayout layout;
  layout.bands = bands;
  layout.epoch_events = epoch_events;
  layout.pair_bytes = rects ? sizeof(RectF) : sizeof(IdPair);
  if (bands > 1) {
    layout.slots = kTeamSlots;
    layout.ring_pairs = kRingPairsPerEvent * epoch_events;
    layout.ring_records = kRingRecordsPerEvent * epoch_events;
  }
  return layout;
}

}  // namespace

size_t BandedSweepLayout::Bytes() const {
  // Per epoch event: the event and its footprint delta.
  return size_t{slots} * epoch_events * (sizeof(SweepEvent) + sizeof(int64_t)) +
         size_t{bands > 1 ? bands : 0} *
             (size_t{ring_pairs} * pair_bytes +
              size_t{ring_records} * sizeof(StripRecord));
}

size_t BandedSweepBufferBytes(uint32_t threads, uint64_t events,
                              bool rects) {
  return Layout(std::max<uint32_t>(1, threads), EpochFor(events), rects)
      .Bytes();
}

BandedSweepLayout PlanBandedSweep(const BandedSweepConfig& config,
                                  uint32_t strips, bool rects) {
  uint32_t bands = 1;
  if (config.kind == SweepStructureKind::kStriped &&
      (config.pool == nullptr || config.pool->size() > 0)) {
    bands = std::clamp<uint32_t>(config.threads, 1, strips);
  }
  const uint32_t top = EpochFor(config.events);
  if (bands > 1) {
    for (uint32_t e = top; e >= std::min(top, kMinBandedEpochEvents);
         e /= 2) {
      const BandedSweepLayout layout = Layout(bands, e, rects);
      if (layout.Bytes() <= config.buffer_bytes) return layout;
    }
  }
  uint32_t e = top;
  while (e > kMinEpochEvents &&
         Layout(1, e, rects).Bytes() > config.buffer_bytes) {
    e /= 2;
  }
  return Layout(1, e, rects);
}

}  // namespace sj
