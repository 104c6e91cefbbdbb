#include "shiftsplit/storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>

namespace shiftsplit {

void PageGuard::Release() {
  if (frame_ == nullptr) return;
  pool_->Unpin(frame_, dirty_);
  pool_ = nullptr;
  frame_ = nullptr;
  dirty_ = false;
}

void PageGuard::ReleaseClean() {
  if (frame_ == nullptr) return;
  pool_->UnpinClean(frame_);
  pool_ = nullptr;
  frame_ = nullptr;
  dirty_ = false;
}

void AdmissionTicket::Release() {
  if (pool_ == nullptr) return;
  pool_->ReleaseAdmission();
  pool_ = nullptr;
}

BufferPool::BufferPool(BlockManager* manager, uint64_t capacity_blocks)
    : manager_(manager), capacity_(capacity_blocks) {
  assert(manager_ != nullptr);
  assert(capacity_ > 0);
}

BufferPool::~BufferPool() {
  // Guards hold raw frame pointers; one outliving the pool is a caller bug.
  assert(pinned_frames_ == 0 && "PageGuard outlived its BufferPool");
  // Best effort; callers that care about durability call Flush explicitly.
  const uint64_t dropped = FlushBestEffortLocked();
  if (dropped != 0) {
    std::fprintf(stderr,
                 "shiftsplit: BufferPool dropped %llu dirty frame(s) whose "
                 "write-back failed during destruction\n",
                 static_cast<unsigned long long>(dropped));
  }
}

PageGuard BufferPool::Pin(internal::PoolFrame* frame, bool for_write) {
  if (frame->pins == 0) ++pinned_frames_;
  ++frame->pins;
  return PageGuard(this, frame, for_write);
}

void BufferPool::Unpin(internal::PoolFrame* frame, bool dirty) {
  const auto lock = Lock();
  assert(frame->pins > 0);
  frame->dirty = frame->dirty || dirty;
  --frame->pins;
  if (frame->pins == 0) {
    assert(pinned_frames_ > 0);
    --pinned_frames_;
    if (unpin_waiters_ != 0) unpinned_cv_.notify_all();
  }
}

void BufferPool::UnpinClean(internal::PoolFrame* frame) {
  const auto lock = Lock();
  assert(frame->pins > 0);
  frame->dirty = false;
  --frame->pins;
  if (frame->pins == 0) {
    assert(pinned_frames_ > 0);
    --pinned_frames_;
    if (unpin_waiters_ != 0) unpinned_cv_.notify_all();
  }
}

Result<PageGuard> BufferPool::GetBlock(uint64_t block_id, bool for_write,
                                       OperationContext* ctx) {
  // The gate sits before the lock: a caller past its deadline never queues
  // on the pool mutex, so a wedged query unwinds within one block read.
  if (ctx != nullptr) SS_RETURN_IF_ERROR(ctx->Check());
  const auto lock = Lock();
  auto it = frames_.find(block_id);
  if (it != frames_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU
    return Pin(&*it->second, for_write);
  }
  ++misses_;
  // Choose the victim up front so a full-of-pins pool fails before any I/O.
  auto victim = lru_.end();
  if (frames_.size() >= capacity_) {
    victim = FindVictim();
    if (victim == lru_.end()) {
      return Status::ResourceExhausted(
          "all " + std::to_string(capacity_) +
          " buffer-pool frames are pinned; release a PageGuard or enlarge "
          "the pool");
    }
  }
  // Read the incoming block before touching the victim: a failed read leaves
  // cache contents, dirty bits and recency order unchanged.
  std::vector<double> data = TakeBuffer();
  SS_RETURN_IF_ERROR(manager_->ReadBlockRetry(block_id, data, ctx));
  ++io_.block_reads;
  if (victim == lru_.end()) {
    lru_.push_front(internal::PoolFrame{block_id, false, 0, std::move(data)});
    frames_[block_id] = lru_.begin();
    return Pin(&lru_.front(), for_write);
  }
  // A failed write-back also leaves the cache unchanged: the victim stays
  // resident and dirty, and the just-read data is discarded. On success the
  // victim's list node and storage are recycled in place — the steady-state
  // miss path allocates nothing.
  SS_RETURN_IF_ERROR(WriteBack(*victim));
  frames_.erase(victim->block_id);
  ++evictions_;
  victim->block_id = block_id;
  victim->dirty = false;
  victim->pins = 0;
  std::swap(victim->data, data);
  free_buffers_.push_back(std::move(data));
  lru_.splice(lru_.begin(), lru_, victim);
  frames_[block_id] = victim;
  return Pin(&*victim, for_write);
}

bool BufferPool::CopyIfResident(uint64_t block_id, std::span<double> out) {
  const auto lock = Lock();
  const auto it = frames_.find(block_id);
  if (it == frames_.end()) return false;
  const std::vector<double>& data = it->second->data;
  assert(out.size() == data.size());
  std::copy(data.begin(), data.end(), out.begin());
  return true;
}

Result<PageGuard> BufferPool::PinForInstall(uint64_t block_id,
                                            std::span<const double> present) {
  auto lock = Lock();
  auto victim = lru_.end();
  for (;;) {
    const auto it = frames_.find(block_id);
    if (it != frames_.end()) return Pin(&*it->second, /*for_write=*/false);
    if (frames_.size() < capacity_) break;
    victim = FindVictim();
    if (victim != lru_.end()) break;
    // Every frame is pinned. The installer holds none of those pins, and
    // in thread-safe mode each belongs to an operation that releases it
    // shortly, so wait for one; a single-threaded caller would wait for
    // itself.
    if (!thread_safe_) {
      return Status::ResourceExhausted(
          "all " + std::to_string(capacity_) +
          " buffer-pool frames are pinned; cannot install block " +
          std::to_string(block_id));
    }
    ++unpin_waiters_;
    unpinned_cv_.wait(lock);
    --unpin_waiters_;
  }
  if (victim != lru_.end()) {
    SS_RETURN_IF_ERROR(WriteBack(*victim));
    frames_.erase(victim->block_id);
    ++evictions_;
    victim->block_id = block_id;
    victim->dirty = false;
    victim->pins = 0;
    std::copy(present.begin(), present.end(), victim->data.begin());
    lru_.splice(lru_.end(), lru_, victim);  // cold end
  } else {
    std::vector<double> data = TakeBuffer();
    std::copy(present.begin(), present.end(), data.begin());
    lru_.push_back(internal::PoolFrame{block_id, false, 0, std::move(data)});
    victim = std::prev(lru_.end());
  }
  frames_[block_id] = victim;
  return Pin(&*victim, /*for_write=*/false);
}

std::vector<double> BufferPool::TakeBuffer() {
  if (free_buffers_.empty()) {
    return std::vector<double>(manager_->block_size());
  }
  std::vector<double> buffer = std::move(free_buffers_.back());
  free_buffers_.pop_back();
  return buffer;
}

BufferPool::FrameList::iterator BufferPool::FindVictim() {
  for (auto it = std::prev(lru_.end());; --it) {
    if (it->pins == 0) return it;
    if (it == lru_.begin()) break;
  }
  return lru_.end();
}

Status BufferPool::WriteBack(internal::PoolFrame& frame) {
  if (!frame.dirty) return Status::OK();
  SS_RETURN_IF_ERROR(manager_->WriteBlock(frame.block_id, frame.data));
  ++io_.block_writes;
  ++write_backs_;
  frame.dirty = false;
  return Status::OK();
}

void BufferPool::SetAdmissionControl(uint64_t max_concurrent,
                                     uint64_t max_queue_depth,
                                     uint64_t queue_timeout_us) {
  const std::lock_guard<std::mutex> lock(admission_mu_);
  assert(admission_active_ == 0 && admission_queue_.empty() &&
         "reconfigure admission control only while no operation is in flight");
  admission_max_ = max_concurrent;
  admission_queue_cap_ = max_queue_depth;
  admission_timeout_us_ = queue_timeout_us;
}

Result<AdmissionTicket> BufferPool::AdmitOperation(OperationContext* ctx) {
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (admission_max_ == 0) return AdmissionTicket();  // control disabled
  if (ctx != nullptr) SS_RETURN_IF_ERROR(ctx->Check());
  // Fast path: a free slot and nobody queued ahead of us.
  if (admission_active_ < admission_max_ && admission_queue_.empty()) {
    ++admission_active_;
    ++admitted_;
    return AdmissionTicket(this);
  }
  if (admission_queue_.size() >= admission_queue_cap_) {
    ++admission_rejections_;
    return Status::Unavailable(
        "buffer pool at concurrency cap and its admission queue is full");
  }
  AdmissionWaiter waiter;
  admission_queue_.push_back(&waiter);
  const auto self = std::prev(admission_queue_.end());
  auto wait_deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(admission_timeout_us_);
  if (ctx != nullptr && ctx->has_deadline()) {
    wait_deadline = std::min(wait_deadline, ctx->deadline());
  }
  while (!waiter.granted) {
    if (ctx != nullptr && ctx->cancelled()) {
      admission_queue_.erase(self);
      return Status::Cancelled("operation cancelled");
    }
    if (waiter.cv.wait_until(lock, wait_deadline) ==
            std::cv_status::timeout &&
        !waiter.granted) {
      admission_queue_.erase(self);
      ++admission_timeouts_;
      if (ctx != nullptr) {
        Status gate = ctx->Check();
        if (!gate.ok()) return gate;
      }
      return Status::Unavailable(
          "timed out waiting for a buffer pool admission slot");
    }
  }
  // The grantor incremented admission_active_ on our behalf.
  ++admitted_;
  return AdmissionTicket(this);
}

void BufferPool::ReleaseAdmission() {
  const std::lock_guard<std::mutex> lock(admission_mu_);
  assert(admission_active_ > 0);
  --admission_active_;
  while (admission_active_ < admission_max_ && !admission_queue_.empty()) {
    AdmissionWaiter* next = admission_queue_.front();
    admission_queue_.pop_front();
    next->granted = true;
    ++admission_active_;
    next->cv.notify_one();
  }
}

Status BufferPool::Prefetch(std::span<const uint64_t> block_ids,
                            OperationContext* ctx) {
  if (ctx != nullptr) SS_RETURN_IF_ERROR(ctx->Check());
  const auto lock = Lock();
  // Distinct not-yet-cached ids, first-to-last, capped at the number of
  // frames the pool can actually hold alongside the pinned ones.
  const uint64_t room = capacity_ - pinned_frames_;
  std::vector<uint64_t> missing;
  missing.reserve(std::min<uint64_t>(block_ids.size(), room));
  for (uint64_t id : block_ids) {
    if (missing.size() >= room) break;
    if (frames_.contains(id)) continue;
    if (std::find(missing.begin(), missing.end(), id) != missing.end()) {
      continue;
    }
    missing.push_back(id);
  }
  if (missing.empty()) return Status::OK();
  // One vectored read for the whole missing set; a failure here leaves the
  // cache untouched.
  std::vector<double> data(missing.size() * manager_->block_size());
  SS_RETURN_IF_ERROR(manager_->ReadBlocksRetry(missing, data, ctx));
  io_.block_reads += missing.size();
  prefetched_ += missing.size();
  for (size_t i = 0; i < missing.size(); ++i) {
    const std::span<const double> src(
        data.data() + i * manager_->block_size(), manager_->block_size());
    if (frames_.size() >= capacity_) {
      auto victim = FindVictim();
      if (victim == lru_.end()) break;  // everything pinned; stop warming
      SS_RETURN_IF_ERROR(WriteBack(*victim));
      frames_.erase(victim->block_id);
      ++evictions_;
      // Recycle the victim's node and storage in place.
      victim->block_id = missing[i];
      victim->dirty = false;
      victim->pins = 0;
      std::copy(src.begin(), src.end(), victim->data.begin());
      lru_.splice(lru_.begin(), lru_, victim);
      frames_[missing[i]] = victim;
      continue;
    }
    std::vector<double> buffer = TakeBuffer();
    std::copy(src.begin(), src.end(), buffer.begin());
    lru_.push_front(
        internal::PoolFrame{missing[i], false, 0, std::move(buffer)});
    frames_[missing[i]] = lru_.begin();
  }
  return Status::OK();
}

Status BufferPool::Flush() {
  const auto lock = Lock();
  return FlushLocked();
}

Status BufferPool::FlushAtomic(Journal* journal) {
  const auto lock = Lock();
  if (journal == nullptr) return FlushLocked();
  // Snapshot the dirty set, ordered by block id so the commit record (and
  // the in-place write order) is deterministic.
  std::vector<internal::PoolFrame*> dirty;
  for (internal::PoolFrame& frame : lru_) {
    if (frame.dirty) dirty.push_back(&frame);
  }
  if (dirty.empty()) return Status::OK();
  std::sort(dirty.begin(), dirty.end(),
            [](const internal::PoolFrame* a, const internal::PoolFrame* b) {
              return a->block_id < b->block_id;
            });
  std::vector<BlockWrite> writes;
  writes.reserve(dirty.size());
  for (const internal::PoolFrame* frame : dirty) {
    writes.push_back({frame->block_id, std::span<const double>(frame->data)});
  }
  // 1. Durable intent: the whole batch (with checksums and post-commit
  //    parity) hits the journal before any block is touched in place.
  SS_RETURN_IF_ERROR(journal->AppendWithParity(*manager_, writes));
  // 2. In-place writes. A failure here leaves the journal in place: reopen
  //    replays the full batch (idempotent redo).
  for (internal::PoolFrame* frame : dirty) {
    SS_RETURN_IF_ERROR(WriteBack(*frame));
    ++journaled_write_backs_;
  }
  // 3. Device sync, then retire the intent; the commit is complete.
  return journal->Complete(*manager_);
}

uint64_t BufferPool::InvalidateBlocks(std::span<const uint64_t> block_ids) {
  const auto lock = Lock();
  uint64_t dropped = 0;
  for (uint64_t id : block_ids) {
    const auto it = frames_.find(id);
    if (it == frames_.end()) continue;
    // Pinned or dirty frames are left alone: a pin means a caller is still
    // reading the frame, and a dirty frame holds newer data than the disk
    // image the caller wants to re-read.
    if (it->second->pins != 0 || it->second->dirty) continue;
    free_buffers_.push_back(std::move(it->second->data));
    lru_.erase(it->second);
    frames_.erase(it);
    ++dropped;
  }
  return dropped;
}

Status BufferPool::Discard() {
  const auto lock = Lock();
  if (pinned_frames_ != 0) {
    return Status::ResourceExhausted(
        std::to_string(pinned_frames_) +
        " buffer-pool frame(s) still pinned; release all PageGuards before "
        "Discard");
  }
  lru_.clear();
  frames_.clear();
  return Status::OK();
}

Status BufferPool::FlushLocked() {
  for (internal::PoolFrame& frame : lru_) {
    SS_RETURN_IF_ERROR(WriteBack(frame));
  }
  return Status::OK();
}

uint64_t BufferPool::FlushBestEffort() {
  const auto lock = Lock();
  return FlushBestEffortLocked();
}

uint64_t BufferPool::FlushBestEffortLocked() {
  uint64_t failures = 0;
  for (internal::PoolFrame& frame : lru_) {
    if (!WriteBack(frame).ok()) {
      ++failures;
      ++flush_failures_;
    }
  }
  return failures;
}

Status BufferPool::Clear() {
  const auto lock = Lock();
  if (pinned_frames_ != 0) {
    return Status::ResourceExhausted(
        std::to_string(pinned_frames_) +
        " buffer-pool frame(s) still pinned; release all PageGuards before "
        "Clear");
  }
  SS_RETURN_IF_ERROR(FlushLocked());
  lru_.clear();
  frames_.clear();
  return Status::OK();
}

BufferPool::Stats BufferPool::stats() const {
  const auto lock = Lock();
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.write_backs = write_backs_;
  s.flush_failures = flush_failures_;
  s.prefetched = prefetched_;
  s.pinned_frames = pinned_frames_;
  s.cached_blocks = frames_.size();
  s.capacity = capacity_;
  s.io = io_;
  {
    const std::lock_guard<std::mutex> admission_lock(admission_mu_);
    s.admitted = admitted_;
    s.admission_rejections = admission_rejections_;
    s.admission_timeouts = admission_timeouts_;
  }
  return s;
}

}  // namespace shiftsplit
