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
  assert(pinned_frames_.load() == 0 && "PageGuard outlived its BufferPool");
  // Best effort; callers that care about durability call Flush explicitly.
  const uint64_t dropped = FlushBestEffortLocked();
  if (dropped != 0) {
    std::fprintf(stderr,
                 "shiftsplit: BufferPool dropped %llu dirty frame(s) whose "
                 "write-back failed during destruction\n",
                 static_cast<unsigned long long>(dropped));
  }
}

void BufferPool::Pin(internal::PoolFrame* frame) {
  if (frame->pins.fetch_add(1, std::memory_order_relaxed) == 0) {
    pinned_frames_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool BufferPool::DropPin(internal::PoolFrame* frame) {
  // seq_cst, so at least release: every read of the frame through this pin
  // happens before an evictor that loads the count as 0 recycles it. It is
  // also one half of the announce/re-check pattern of PinForInstall.
  const uint32_t pins = frame->pins.fetch_sub(1);
  assert(pins > 0);
  if (pins != 1) return false;
  // Release too: Discard and Clear free every frame once this count is 0.
  pinned_frames_.fetch_sub(1, std::memory_order_release);
  return true;
}

void BufferPool::Unpin(internal::PoolFrame* frame, bool dirty) {
  if (dirty) {
    const auto lock = Lock();
    frame->dirty = true;
    if (DropPin(frame) && unpin_waiters_.load() != 0) {
      unpinned_cv_.notify_all();
    }
    return;
  }
  // A clean release takes no lock. A waiting PinForInstall announces itself
  // before re-checking the pins (both seq_cst, like this unpin and this
  // load), so it either sees this unpin or is seen here and woken.
  if (!DropPin(frame) || !thread_safe_ || unpin_waiters_.load() == 0) return;
  const auto lock = Lock();
  unpinned_cv_.notify_all();
}

void BufferPool::UnpinClean(internal::PoolFrame* frame) {
  const auto lock = Lock();
  frame->dirty = false;
  if (DropPin(frame) && unpin_waiters_.load() != 0) unpinned_cv_.notify_all();
}

Result<bool> BufferPool::AwaitLoad(std::unique_lock<std::mutex>& lock,
                                   FrameList::iterator frame,
                                   OperationContext* ctx) {
  using State = internal::PoolFrame::State;
  if (frame->state.load() == State::kReady) return true;
  // Announce, then re-check (both seq_cst): the loader publishes, then
  // looks for waiters, so one of the two sees the other.
  load_waiters_.fetch_add(1);
  bool expired = false;
  while (frame->state.load() == State::kLoading && !expired) {
    if (ctx != nullptr && ctx->has_deadline()) {
      expired = loaded_cv_.wait_until(lock, ctx->deadline()) ==
                std::cv_status::timeout;
    } else {
      loaded_cv_.wait(lock);
    }
  }
  load_waiters_.fetch_sub(1);
  switch (frame->state.load()) {
    case State::kReady:
      return true;
    case State::kLoading: {
      const uint64_t block_id = frame->block_id;
      DropPin(&*frame);  // never the last: the loader holds its own
      return Status::DeadlineExceeded(
          "deadline passed while waiting for another caller's read of block " +
          std::to_string(block_id));
    }
    case State::kFailed:
      break;
  }
  DropFailed(frame);
  return false;
}

void BufferPool::DropFailed(FrameList::iterator frame) {
  if (DropPin(&*frame)) free_frames_.splice(free_frames_.begin(), lru_, frame);
}

Result<PageGuard> BufferPool::GetBlock(uint64_t block_id, bool for_write,
                                       OperationContext* ctx) {
  // The gate sits before the lock: a caller past its deadline never queues
  // on the pool mutex, so a wedged query unwinds within one block read.
  if (ctx != nullptr) SS_RETURN_IF_ERROR(ctx->Check());
  auto lock = Lock();
  // Make the room earlier misses left to be made. A failed victim
  // write-back fails only a miss, the call that needs the room.
  const Status trimmed = Trim();
  for (;;) {
    const auto it = frames_.find(block_id);
    if (it == frames_.end()) break;
    const FrameList::iterator frame = it->second;
    ++hits_;
    lru_.splice(lru_.begin(), lru_, frame);  // move to MRU
    Pin(&*frame);
    // Another caller's read of the block may be in flight: wait for it.
    SS_ASSIGN_OR_RETURN(const bool loaded, AwaitLoad(lock, frame, ctx));
    if (loaded) return PageGuard(this, &*frame, for_write);
    --hits_;  // that read failed; this call becomes a miss
  }
  ++misses_;
  SS_RETURN_IF_ERROR(trimmed);
  // Fail a full-of-pins pool before any I/O.
  if (frames_.size() >= capacity_ && FindVictim() == lru_.end()) {
    return Status::ResourceExhausted(
        "all " + std::to_string(capacity_) +
        " buffer-pool frames are pinned; release a PageGuard or enlarge "
        "the pool");
  }
  // Insert the frame pinned and loading, then read with the mutex released:
  // other blocks' lookups proceed, and a miss on this block waits for this
  // read instead of issuing its own.
  const FrameList::iterator frame =
      TakeFrame(block_id, lru_.begin(), internal::PoolFrame::kLoading);
  Pin(&*frame);
  if (lock.owns_lock()) lock.unlock();
  Status status = manager_->ReadBlockRetry(block_id, frame->data, ctx);
  if (status.ok()) {
    ++io_.block_reads;
    frame->state.store(internal::PoolFrame::kReady);
    if (thread_safe_) {
      // Published without the mutex; it is taken only to wake a waiter.
      if (load_waiters_.load() != 0) {
        const std::lock_guard<std::mutex> wake(mu_);
        loaded_cv_.notify_all();
      }
      return PageGuard(this, &*frame, for_write);
    }
    // No later caller makes a single-threaded pool's room: evict now, after
    // the read. A failed write-back leaves the victim resident and dirty and
    // discards the just-read frame below.
    status = Trim();
    if (status.ok()) return PageGuard(this, &*frame, for_write);
  }
  // Drop the frame. Nothing was evicted, and no dirty bit or recency
  // position changed: the cache is as it was before this miss.
  lock = Lock();
  frame->state.store(internal::PoolFrame::kFailed);
  frames_.erase(block_id);
  DropFailed(frame);
  loaded_cv_.notify_all();    // waiters retry as misses
  unpinned_cv_.notify_all();  // the dropped frame made room
  return status;
}

bool BufferPool::CopyIfResident(uint64_t block_id, std::span<double> out) {
  const auto lock = Lock();
  const auto it = frames_.find(block_id);
  if (it == frames_.end()) return false;
  const internal::PoolFrame& frame = *it->second;
  if (frame.state.load() != internal::PoolFrame::kReady) return false;
  assert(out.size() == frame.data.size());
  std::copy(frame.data.begin(), frame.data.end(), out.begin());
  return true;
}

Result<PageGuard> BufferPool::PinForInstall(uint64_t block_id,
                                            std::span<const double> present) {
  auto lock = Lock();
  for (;;) {
    SS_RETURN_IF_ERROR(Trim());
    const auto it = frames_.find(block_id);
    if (it != frames_.end()) {
      const FrameList::iterator frame = it->second;
      Pin(&*frame);
      SS_ASSIGN_OR_RETURN(const bool loaded, AwaitLoad(lock, frame, nullptr));
      if (loaded) return PageGuard(this, &*frame, /*for_write=*/false);
      continue;  // that read failed: the block is absent again
    }
    if (frames_.size() < capacity_) break;
    const auto victim = FindVictim();
    if (victim != lru_.end()) {
      SS_RETURN_IF_ERROR(Evict(victim));
      break;
    }
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
    // Announce, then re-check (see Unpin).
    unpin_waiters_.fetch_add(1);
    if (FindVictim() == lru_.end()) unpinned_cv_.wait(lock);
    unpin_waiters_.fetch_sub(1);
  }
  const FrameList::iterator frame =
      TakeFrame(block_id, lru_.end(), internal::PoolFrame::kReady);  // cold
  std::copy(present.begin(), present.end(), frame->data.begin());
  Pin(&*frame);
  return PageGuard(this, &*frame, /*for_write=*/false);
}

BufferPool::FrameList::iterator BufferPool::TakeFrame(
    uint64_t block_id, FrameList::iterator pos,
    internal::PoolFrame::State state) {
  FrameList::iterator frame;
  if (free_frames_.empty()) {
    frame = lru_.emplace(pos);
    frame->data.resize(manager_->block_size());
  } else {
    frame = free_frames_.begin();
    lru_.splice(pos, free_frames_, frame);
  }
  frame->block_id = block_id;
  frame->dirty = false;
  frame->state.store(state, std::memory_order_relaxed);
  frames_[block_id] = frame;
  return frame;
}

BufferPool::FrameList::iterator BufferPool::FindVictim() {
  for (auto it = std::prev(lru_.end());; --it) {
    // seq_cst, so at least acquire: pairs with a clean release's decrement.
    // Pins rise only under the mutex, which the caller holds, so a frame
    // seen unpinned stays so.
    if (it->pins.load() == 0) return it;
    if (it == lru_.begin()) break;
  }
  return lru_.end();
}

Status BufferPool::Evict(FrameList::iterator victim) {
  SS_RETURN_IF_ERROR(WriteBack(*victim));
  frames_.erase(victim->block_id);
  ++evictions_;
  free_frames_.splice(free_frames_.begin(), lru_, victim);
  return Status::OK();
}

Status BufferPool::Trim() {
  while (frames_.size() > capacity_) {
    const auto victim = FindVictim();
    if (victim == lru_.end()) break;  // all pinned; a later call trims
    SS_RETURN_IF_ERROR(Evict(victim));
  }
  return Status::OK();
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
  SS_RETURN_IF_ERROR(Trim());
  // Distinct not-yet-cached ids, first-to-last, capped at the number of
  // frames the pool can actually hold alongside the pinned ones. Failed
  // frames a waiter still pins count too, so pins may exceed capacity.
  const uint64_t pinned = pinned_frames_.load();
  const uint64_t room = pinned < capacity_ ? capacity_ - pinned : 0;
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
      const auto victim = FindVictim();
      if (victim == lru_.end()) break;  // everything pinned; stop warming
      SS_RETURN_IF_ERROR(Evict(victim));
    }
    const FrameList::iterator frame =
        TakeFrame(missing[i], lru_.begin(), internal::PoolFrame::kReady);
    std::copy(src.begin(), src.end(), frame->data.begin());
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
    // reading the frame (or loading it), and a dirty frame holds newer data
    // than the disk image the caller wants to re-read.
    const FrameList::iterator frame = it->second;
    if (frame->pins.load() != 0 || frame->dirty) {
      continue;
    }
    frames_.erase(it);
    free_frames_.splice(free_frames_.begin(), lru_, frame);
    ++dropped;
  }
  return dropped;
}

Status BufferPool::Discard() {
  const auto lock = Lock();
  if (const uint64_t pinned = pinned_frames_.load(); pinned != 0) {
    return Status::ResourceExhausted(
        std::to_string(pinned) +
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
  if (const uint64_t pinned = pinned_frames_.load(); pinned != 0) {
    return Status::ResourceExhausted(
        std::to_string(pinned) +
        " buffer-pool frame(s) still pinned; release all PageGuards before "
        "Clear");
  }
  SS_RETURN_IF_ERROR(FlushLocked());
  lru_.clear();
  frames_.clear();
  return Status::OK();
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  {
    const auto lock = Lock();
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.write_backs = write_backs_;
    s.flush_failures = flush_failures_;
    s.prefetched = prefetched_;
    s.pinned_frames = pinned_frames_.load();
    s.cached_blocks = frames_.size();
    s.capacity = capacity_;
    s.io = io_;
  }
  // The admission mutex is never taken while holding mu_.
  const std::lock_guard<std::mutex> admission_lock(admission_mu_);
  s.admitted = admitted_;
  s.admission_rejections = admission_rejections_;
  s.admission_timeouts = admission_timeouts_;
  return s;
}

}  // namespace shiftsplit
