#include "refine/feature_store.h"

#include <algorithm>
#include <cstring>

#include "io/stream.h"
#include "util/timer.h"

namespace sj {

static_assert(sizeof(Segment) == 16,
              "Segment must be the 16-byte geometry payload record");

Result<FeatureStore> FeatureStore::Build(Pager* pager,
                                         Span<const Segment> geom,
                                         const std::string& name,
                                         ObjectId base_id) {
  FeatureStoreHeader header;
  header.count = geom.size();
  header.base_id = base_id;
  std::strncpy(header.name, name.c_str(), sizeof(header.name) - 1);

  const PageId header_page = pager->Allocate(1);
  uint8_t page[kPageSize] = {};
  std::memcpy(page, &header, sizeof(header));
  SJ_RETURN_IF_ERROR(pager->WritePage(header_page, page));

  StreamWriter<Segment> writer(pager);
  for (const Segment& s : geom) writer.Append(s);
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  SJ_CHECK(n == geom.size());

  return FeatureStore(pager, header_page, geom.size(), base_id);
}

Result<FeatureStore> FeatureStore::Open(Pager* pager, PageId header_page) {
  uint8_t page[kPageSize];
  SJ_RETURN_IF_ERROR(pager->ReadPage(header_page, page));
  FeatureStoreHeader header;
  std::memcpy(&header, page, sizeof(header));
  if (header.magic != FeatureStoreHeader::kMagic) {
    return Status::Corruption("feature store header magic mismatch");
  }
  if (header.version != FeatureStoreHeader::kVersion) {
    return Status::Corruption("unsupported feature store version");
  }
  return FeatureStore(pager, header_page, header.count, header.base_id);
}

Result<PageId> FeatureStore::DataPageOf(ObjectId id) const {
  const uint64_t index = static_cast<uint64_t>(id) - base_id_;
  if (id < base_id_ || index >= count_) {
    return Status::InvalidArgument("feature id " + std::to_string(id) +
                                   " outside store [" +
                                   std::to_string(base_id_) + ", " +
                                   std::to_string(base_id_ + count_) + ")");
  }
  return static_cast<PageId>(first_data_page_ + index / kRecordsPerPage);
}

Result<Segment> FeatureStore::Fetch(ObjectId id) const {
  SJ_ASSIGN_OR_RETURN(PageId page, DataPageOf(id));
  uint8_t buf[kPageSize];
  SJ_RETURN_IF_ERROR(pager_->ReadPage(page, buf));
  const uint64_t slot =
      (static_cast<uint64_t>(id) - base_id_) % kRecordsPerPage;
  Segment out;
  std::memcpy(&out, buf + slot * sizeof(Segment), sizeof(Segment));
  return out;
}

Result<uint64_t> FeatureStore::FetchBatch(Span<const ObjectId> ids,
                                          std::vector<Segment>* out,
                                          DiskModel* charge,
                                          uint32_t charge_dev) const {
  SJ_ASSIGN_OR_RETURN(PendingBatch batch, StartBatch(ids));
  return FinishBatch(std::move(batch), out, charge, charge_dev);
}

Result<FeatureStore::PendingBatch> FeatureStore::StartBatch(
    Span<const ObjectId> ids, const PrefetchContext& prefetch) const {
  PendingBatch batch;
  batch.ids_.assign(ids.begin(), ids.end());
  if (ids.empty()) return batch;
  batch.pages_.reserve(ids.size());
  for (const ObjectId id : ids) {
    SJ_ASSIGN_OR_RETURN(PageId page, DataPageOf(id));
    batch.pages_.push_back(page);
  }
  std::sort(batch.pages_.begin(), batch.pages_.end());
  batch.pages_.erase(std::unique(batch.pages_.begin(), batch.pages_.end()),
                     batch.pages_.end());

  // Runs of consecutive pages become single requests, in ascending page
  // order; slot i of the batch buffer holds pages_[i].
  size_t i = 0;
  while (i < batch.pages_.size()) {
    size_t j = i + 1;
    while (j < batch.pages_.size() &&
           batch.pages_[j] == batch.pages_[j - 1] + 1 &&
           j - i < kStreamBlockPages) {
      ++j;
    }
    batch.runs_.push_back(
        PageRun{batch.pages_[i], static_cast<uint32_t>(j - i)});
    i = j;
  }

  if (prefetch.enabled) {
    batch.prefetcher_ =
        std::make_unique<BlockPrefetcher>(pager_, prefetch.pool);
    batch.prefetcher_->Start(batch.runs_);
  }
  return batch;
}

Result<uint64_t> FeatureStore::FinishBatch(PendingBatch batch,
                                           std::vector<Segment>* out,
                                           DiskModel* charge,
                                           uint32_t charge_dev) const {
  if (batch.ids_.empty()) return uint64_t{0};
  DiskModel* disk = charge != nullptr ? charge : pager_->disk();
  const uint32_t dev = charge != nullptr ? charge_dev : pager_->device_id();
  std::vector<uint8_t> buffer;
  if (batch.prefetcher_ != nullptr) {
    // Bytes were moved (or are being moved) in the background; the
    // modeled charges land here, on the consuming thread, in plan order.
    SJ_RETURN_IF_ERROR(batch.prefetcher_->FinishCharged(&buffer, disk, dev));
  } else {
    buffer.resize(batch.pages_.size() * kPageSize);
    size_t slot = 0;
    for (const PageRun& run : batch.runs_) {
      uint8_t* dst = buffer.data() + slot * kPageSize;
      if (charge == nullptr) {
        SJ_RETURN_IF_ERROR(pager_->ReadRun(run.first, run.npages, dst));
      } else {
        charge->Read(charge_dev, run.first, run.npages);
        WallTimer wall;
        for (uint32_t k = 0; k < run.npages; ++k) {
          SJ_RETURN_IF_ERROR(pager_->backend()->ReadPage(
              run.first + k, dst + k * kPageSize));
        }
        charge->AddIoWall(wall.Elapsed());
      }
      slot += run.npages;
    }
  }

  out->reserve(out->size() + batch.ids_.size());
  for (const ObjectId id : batch.ids_) {
    const uint64_t index = static_cast<uint64_t>(id) - base_id_;
    const PageId page =
        static_cast<PageId>(first_data_page_ + index / kRecordsPerPage);
    const size_t slot_in_buffer =
        std::lower_bound(batch.pages_.begin(), batch.pages_.end(), page) -
        batch.pages_.begin();
    Segment s;
    std::memcpy(&s,
                buffer.data() + slot_in_buffer * kPageSize +
                    (index % kRecordsPerPage) * sizeof(Segment),
                sizeof(Segment));
    out->push_back(s);
  }
  return static_cast<uint64_t>(batch.pages_.size());
}

}  // namespace sj
