#include "shiftsplit/storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>

namespace shiftsplit {

namespace {

// The subject of a ResourceExhausted from a shard whose frames are all
// pinned.
std::string AllFramesPinned(uint64_t shard_capacity, uint64_t shards) {
  return "all " + std::to_string(shard_capacity) +
         (shards == 1 ? " buffer-pool frames"
                      : " frames of the block's buffer-pool shard") +
         " are pinned";
}

}  // namespace

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
    : manager_(manager),
      capacity_(capacity_blocks),
      shards_(std::make_unique<Shard[]>(1)) {
  assert(manager_ != nullptr);
  assert(capacity_ > 0);
  shards_[0].capacity = capacity_;
}

BufferPool::~BufferPool() {
  // Guards hold raw frame pointers; one outliving the pool is a caller bug.
  assert(pinned_frames() == 0 && "PageGuard outlived its BufferPool");
  // Best effort; callers that care about durability call Flush explicitly.
  const uint64_t dropped = FlushBestEffortLocked();
  if (dropped != 0) {
    std::fprintf(stderr,
                 "shiftsplit: BufferPool dropped %llu dirty frame(s) whose "
                 "write-back failed during destruction\n",
                 static_cast<unsigned long long>(dropped));
  }
}

std::unique_lock<std::mutex> BufferPool::Lock(Shard& shard) const {
  if (!thread_safe_) return std::unique_lock<std::mutex>();
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: time the wait, and count it under the mutex it waited for.
    const auto start = std::chrono::steady_clock::now();
    lock.lock();
    ++shard.lock_waits;
    shard.lock_wait_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  return lock;
}

std::vector<std::unique_lock<std::mutex>> BufferPool::LockAll() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (uint64_t i = 0; i < num_shards_; ++i) locks.push_back(Lock(shards_[i]));
  return locks;
}

void BufferPool::set_thread_safe(bool on) {
  thread_safe_ = on;
  const uint64_t count =
      on && capacity_ / kShards >= kMinShardFrames ? kShards : 1;
  if (count != num_shards_) Repartition(count);
}

void BufferPool::Repartition(uint64_t count) {
  std::unique_ptr<Shard[]> old =
      std::exchange(shards_, std::make_unique<Shard[]>(count));
  const uint64_t old_count = std::exchange(num_shards_, count);
  for (uint64_t i = 0; i < count; ++i) {
    shards_[i].capacity = capacity_ / count + (i < capacity_ % count ? 1 : 0);
  }
  // The counters keep their totals, in the first shard.
  Shard& first = shards_[0];
  for (uint64_t i = 0; i < old_count; ++i) {
    const Shard& from = old[i];
    // No read is in flight, so no failed frame lingers outside `frames`.
    assert(from.frames.size() == from.lru.size());
    first.hits += from.hits;
    first.misses += from.misses;
    first.evictions += from.evictions;
    first.write_backs += from.write_backs;
    first.flush_failures += from.flush_failures;
    first.journaled_write_backs += from.journaled_write_backs;
    first.prefetched += from.prefetched;
    first.lock_waits += from.lock_waits;
    first.lock_wait_ns += from.lock_wait_ns;
    first.io += from.io;
  }
  // Each frame moves to the shard its id hashes to now, the old shards
  // handing over their most recent frames in turn: within each new shard,
  // the frames of one old shard keep their recency order.
  for (bool moved = true; moved;) {
    moved = false;
    for (uint64_t i = 0; i < old_count; ++i) {
      FrameList& from = old[i].lru;
      if (from.empty()) continue;
      const FrameList::iterator frame = from.begin();
      Shard& to = ShardOf(frame->block_id);
      to.lru.splice(to.lru.end(), from, frame);
      to.frames.emplace(frame->block_id, frame);
      if (frame->pins.load() != 0) to.pinned_frames.fetch_add(1);
      moved = true;
    }
  }
  // Spare nodes are dealt out in turn.
  uint64_t next = 0;
  for (uint64_t i = 0; i < old_count; ++i) {
    FrameList& from = old[i].free_frames;
    while (!from.empty()) {
      FrameList& to = shards_[next++ % count].free_frames;
      to.splice(to.end(), from, from.begin());
    }
  }
}

void BufferPool::Pin(Shard& shard, internal::PoolFrame* frame) {
  if (frame->pins.fetch_add(1, std::memory_order_relaxed) == 0) {
    shard.pinned_frames.fetch_add(1, std::memory_order_relaxed);
  }
}

bool BufferPool::DropPin(Shard& shard, internal::PoolFrame* frame) {
  // seq_cst, so at least release: every read of the frame through this pin
  // happens before an evictor that loads the count as 0 recycles it. It is
  // also one half of the announce/re-check pattern of PinForInstall.
  const uint32_t pins = frame->pins.fetch_sub(1);
  assert(pins > 0);
  if (pins != 1) return false;
  // Release too: Discard and Clear free every frame once this count is 0.
  shard.pinned_frames.fetch_sub(1, std::memory_order_release);
  return true;
}

void BufferPool::Unpin(internal::PoolFrame* frame, bool dirty) {
  // A pinned frame keeps its block id, so this is the shard holding it.
  Shard& shard = ShardOf(frame->block_id);
  if (dirty) {
    const auto lock = Lock(shard);
    frame->dirty = true;
    if (DropPin(shard, frame) && shard.unpin_waiters.load() != 0) {
      shard.unpinned_cv.notify_all();
    }
    return;
  }
  // A clean release takes no lock. A waiting PinForInstall announces itself
  // before re-checking the pins (both seq_cst, like this unpin and this
  // load), so it either sees this unpin or is seen here and woken.
  if (!DropPin(shard, frame) || !thread_safe_ ||
      shard.unpin_waiters.load() == 0) {
    return;
  }
  const auto lock = Lock(shard);
  shard.unpinned_cv.notify_all();
}

void BufferPool::UnpinClean(internal::PoolFrame* frame) {
  Shard& shard = ShardOf(frame->block_id);
  const auto lock = Lock(shard);
  frame->dirty = false;
  if (DropPin(shard, frame) && shard.unpin_waiters.load() != 0) {
    shard.unpinned_cv.notify_all();
  }
}

Result<bool> BufferPool::AwaitLoad(Shard& shard,
                                   std::unique_lock<std::mutex>& lock,
                                   FrameList::iterator frame,
                                   OperationContext* ctx) {
  using State = internal::PoolFrame::State;
  if (frame->state.load() == State::kReady) return true;
  // Announce, then re-check (both seq_cst): the loader publishes, then
  // looks for waiters, so one of the two sees the other.
  shard.load_waiters.fetch_add(1);
  bool expired = false;
  while (frame->state.load() == State::kLoading && !expired) {
    if (ctx != nullptr && ctx->has_deadline()) {
      expired = shard.loaded_cv.wait_until(lock, ctx->deadline()) ==
                std::cv_status::timeout;
    } else {
      shard.loaded_cv.wait(lock);
    }
  }
  shard.load_waiters.fetch_sub(1);
  switch (frame->state.load()) {
    case State::kReady:
      return true;
    case State::kLoading: {
      const uint64_t block_id = frame->block_id;
      DropPin(shard, &*frame);  // never the last: the loader holds its own
      return Status::DeadlineExceeded(
          "deadline passed while waiting for another caller's read of block " +
          std::to_string(block_id));
    }
    case State::kFailed:
      break;
  }
  DropFailed(shard, frame);
  return false;
}

void BufferPool::DropFailed(Shard& shard, FrameList::iterator frame) {
  if (DropPin(shard, &*frame)) {
    shard.free_frames.splice(shard.free_frames.begin(), shard.lru, frame);
  }
}

Result<PageGuard> BufferPool::GetBlock(uint64_t block_id, bool for_write,
                                       OperationContext* ctx) {
  // The gate sits before the lock: a caller past its deadline never queues
  // on a shard mutex, so a wedged query unwinds within one block read.
  if (ctx != nullptr) SS_RETURN_IF_ERROR(ctx->Check());
  Shard& shard = ShardOf(block_id);
  auto lock = Lock(shard);
  // Make the room earlier misses left to be made. A failed victim
  // write-back fails only a miss, the call that needs the room.
  const Status trimmed = Trim(shard);
  for (;;) {
    const auto it = shard.frames.find(block_id);
    if (it == shard.frames.end()) break;
    const FrameList::iterator frame = it->second;
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, frame);  // move to MRU
    Pin(shard, &*frame);
    // Another caller's read of the block may be in flight: wait for it.
    SS_ASSIGN_OR_RETURN(const bool loaded,
                        AwaitLoad(shard, lock, frame, ctx));
    if (loaded) return PageGuard(this, &*frame, for_write);
    --shard.hits;  // that read failed; this call becomes a miss
  }
  ++shard.misses;
  SS_RETURN_IF_ERROR(trimmed);
  // Fail a full-of-pins shard before any I/O.
  if (shard.frames.size() >= shard.capacity &&
      FindVictim(shard) == shard.lru.end()) {
    return Status::ResourceExhausted(
        AllFramesPinned(shard.capacity, num_shards_) +
        "; release a PageGuard or enlarge the pool");
  }
  // Insert the frame pinned and loading, then read with the mutex released:
  // other blocks' lookups proceed, and a miss on this block waits for this
  // read instead of issuing its own.
  const FrameList::iterator frame = TakeFrame(
      shard, block_id, shard.lru.begin(), internal::PoolFrame::kLoading);
  Pin(shard, &*frame);
  if (lock.owns_lock()) lock.unlock();
  Status status = manager_->ReadBlockRetry(block_id, frame->data, ctx);
  if (status.ok()) {
    ++shard.io.block_reads;
    frame->state.store(internal::PoolFrame::kReady);
    if (thread_safe_) {
      // Published without the mutex; it is taken only to wake a waiter.
      if (shard.load_waiters.load() != 0) {
        const auto wake = Lock(shard);
        shard.loaded_cv.notify_all();
      }
      return PageGuard(this, &*frame, for_write);
    }
    // No later caller makes a single-threaded pool's room: evict now, after
    // the read. A failed write-back leaves the victim resident and dirty and
    // discards the just-read frame below.
    status = Trim(shard);
    if (status.ok()) return PageGuard(this, &*frame, for_write);
  }
  // Drop the frame. Nothing was evicted, and no dirty bit or recency
  // position changed: the cache is as it was before this miss.
  lock = Lock(shard);
  frame->state.store(internal::PoolFrame::kFailed);
  shard.frames.erase(block_id);
  DropFailed(shard, frame);
  shard.loaded_cv.notify_all();    // waiters retry as misses
  shard.unpinned_cv.notify_all();  // the dropped frame made room
  return status;
}

bool BufferPool::CopyIfResident(uint64_t block_id, std::span<double> out) {
  Shard& shard = ShardOf(block_id);
  const auto lock = Lock(shard);
  const auto it = shard.frames.find(block_id);
  if (it == shard.frames.end()) return false;
  const internal::PoolFrame& frame = *it->second;
  if (frame.state.load() != internal::PoolFrame::kReady) return false;
  assert(out.size() == frame.data.size());
  std::copy(frame.data.begin(), frame.data.end(), out.begin());
  return true;
}

Result<PageGuard> BufferPool::PinForInstall(uint64_t block_id,
                                            std::span<const double> present) {
  Shard& shard = ShardOf(block_id);
  auto lock = Lock(shard);
  for (;;) {
    SS_RETURN_IF_ERROR(Trim(shard));
    const auto it = shard.frames.find(block_id);
    if (it != shard.frames.end()) {
      const FrameList::iterator frame = it->second;
      Pin(shard, &*frame);
      SS_ASSIGN_OR_RETURN(const bool loaded,
                          AwaitLoad(shard, lock, frame, nullptr));
      if (loaded) return PageGuard(this, &*frame, /*for_write=*/false);
      continue;  // that read failed: the block is absent again
    }
    if (shard.frames.size() < shard.capacity) break;
    const auto victim = FindVictim(shard);
    if (victim != shard.lru.end()) {
      SS_RETURN_IF_ERROR(Evict(shard, victim));
      break;
    }
    // Every frame of the shard is pinned. The installer holds none of those
    // pins, and in thread-safe mode each belongs to an operation that
    // releases it shortly, so wait for one; a single-threaded caller would
    // wait for itself.
    if (!thread_safe_) {
      return Status::ResourceExhausted(
          AllFramesPinned(shard.capacity, num_shards_) +
          "; cannot install block " + std::to_string(block_id));
    }
    // Announce, then re-check (see Unpin).
    shard.unpin_waiters.fetch_add(1);
    if (FindVictim(shard) == shard.lru.end()) shard.unpinned_cv.wait(lock);
    shard.unpin_waiters.fetch_sub(1);
  }
  const FrameList::iterator frame = TakeFrame(
      shard, block_id, shard.lru.end(), internal::PoolFrame::kReady);  // cold
  std::copy(present.begin(), present.end(), frame->data.begin());
  Pin(shard, &*frame);
  return PageGuard(this, &*frame, /*for_write=*/false);
}

BufferPool::FrameList::iterator BufferPool::TakeFrame(
    Shard& shard, uint64_t block_id, FrameList::iterator pos,
    internal::PoolFrame::State state) {
  FrameList::iterator frame;
  if (shard.free_frames.empty()) {
    frame = shard.lru.emplace(pos);
    frame->data.resize(manager_->block_size());
  } else {
    frame = shard.free_frames.begin();
    shard.lru.splice(pos, shard.free_frames, frame);
  }
  frame->block_id = block_id;
  frame->dirty = false;
  frame->state.store(state, std::memory_order_relaxed);
  shard.frames[block_id] = frame;
  return frame;
}

BufferPool::FrameList::iterator BufferPool::FindVictim(Shard& shard) {
  FrameList& lru = shard.lru;
  for (auto it = std::prev(lru.end());; --it) {
    // seq_cst, so at least acquire: pairs with a clean release's decrement.
    // Pins rise only under the shard's mutex, which the caller holds, so a
    // frame seen unpinned stays so.
    if (it->pins.load() == 0) return it;
    if (it == lru.begin()) break;
  }
  return lru.end();
}

Status BufferPool::Evict(Shard& shard, FrameList::iterator victim) {
  SS_RETURN_IF_ERROR(WriteBack(shard, *victim));
  shard.frames.erase(victim->block_id);
  ++shard.evictions;
  shard.free_frames.splice(shard.free_frames.begin(), shard.lru, victim);
  return Status::OK();
}

Status BufferPool::Trim(Shard& shard) {
  while (shard.frames.size() > shard.capacity) {
    const auto victim = FindVictim(shard);
    if (victim == shard.lru.end()) break;  // all pinned; a later call trims
    SS_RETURN_IF_ERROR(Evict(shard, victim));
  }
  return Status::OK();
}

Status BufferPool::WriteBack(Shard& shard, internal::PoolFrame& frame) {
  if (!frame.dirty) return Status::OK();
  SS_RETURN_IF_ERROR(manager_->WriteBlock(frame.block_id, frame.data));
  ++shard.io.block_writes;
  ++shard.write_backs;
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
  const auto locks = LockAll();
  // Distinct not-yet-cached ids, first-to-last, each capped at the number
  // of frames its shard can actually hold alongside the pinned ones. Failed
  // frames a waiter still pins count too, so pins may exceed capacity.
  std::vector<uint64_t> room(num_shards_);
  uint64_t total_room = 0;
  for (uint64_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    SS_RETURN_IF_ERROR(Trim(shard));
    const uint64_t pinned = shard.pinned_frames.load();
    room[i] = pinned < shard.capacity ? shard.capacity - pinned : 0;
    total_room += room[i];
  }
  std::vector<uint64_t> missing;
  missing.reserve(std::min<uint64_t>(block_ids.size(), total_room));
  for (uint64_t id : block_ids) {
    if (missing.size() >= total_room) break;
    const uint64_t index = ShardIndex(id);
    if (room[index] == 0 || shards_[index].frames.contains(id)) continue;
    if (std::find(missing.begin(), missing.end(), id) != missing.end()) {
      continue;
    }
    missing.push_back(id);
    --room[index];
  }
  if (missing.empty()) return Status::OK();
  // One vectored read for the whole missing set; a failure here leaves the
  // cache untouched.
  std::vector<double> data(missing.size() * manager_->block_size());
  SS_RETURN_IF_ERROR(manager_->ReadBlocksRetry(missing, data, ctx));
  for (uint64_t id : missing) {
    Shard& shard = ShardOf(id);
    ++shard.io.block_reads;
    ++shard.prefetched;
  }
  for (size_t i = 0; i < missing.size(); ++i) {
    Shard& shard = ShardOf(missing[i]);
    const std::span<const double> src(
        data.data() + i * manager_->block_size(), manager_->block_size());
    if (shard.frames.size() >= shard.capacity) {
      const auto victim = FindVictim(shard);
      if (victim == shard.lru.end()) continue;  // shard all pinned; skip
      SS_RETURN_IF_ERROR(Evict(shard, victim));
    }
    const FrameList::iterator frame = TakeFrame(
        shard, missing[i], shard.lru.begin(), internal::PoolFrame::kReady);
    std::copy(src.begin(), src.end(), frame->data.begin());
  }
  return Status::OK();
}

Status BufferPool::Flush() {
  const auto locks = LockAll();
  return FlushLocked();
}

Status BufferPool::FlushAtomic(Journal* journal) {
  const auto locks = LockAll();
  if (journal == nullptr) return FlushLocked();
  // Snapshot the dirty set of every shard, ordered by block id so the
  // commit record (and the in-place write order) is deterministic.
  std::vector<internal::PoolFrame*> dirty;
  for (uint64_t i = 0; i < num_shards_; ++i) {
    for (internal::PoolFrame& frame : shards_[i].lru) {
      if (frame.dirty) dirty.push_back(&frame);
    }
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
    Shard& shard = ShardOf(frame->block_id);
    SS_RETURN_IF_ERROR(WriteBack(shard, *frame));
    ++shard.journaled_write_backs;
  }
  // 3. Device sync, then retire the intent; the commit is complete.
  return journal->Complete(*manager_);
}

uint64_t BufferPool::InvalidateBlocks(std::span<const uint64_t> block_ids) {
  const auto locks = LockAll();
  uint64_t dropped = 0;
  for (uint64_t id : block_ids) {
    Shard& shard = ShardOf(id);
    const auto it = shard.frames.find(id);
    if (it == shard.frames.end()) continue;
    // Pinned or dirty frames are left alone: a pin means a caller is still
    // reading the frame (or loading it), and a dirty frame holds newer data
    // than the disk image the caller wants to re-read.
    const FrameList::iterator frame = it->second;
    if (frame->pins.load() != 0 || frame->dirty) {
      continue;
    }
    shard.frames.erase(it);
    shard.free_frames.splice(shard.free_frames.begin(), shard.lru, frame);
    ++dropped;
  }
  return dropped;
}

Status BufferPool::CheckNothingPinned(const char* op) const {
  if (const uint64_t pinned = pinned_frames(); pinned != 0) {
    return Status::ResourceExhausted(
        std::to_string(pinned) +
        " buffer-pool frame(s) still pinned; release all PageGuards before " +
        op);
  }
  return Status::OK();
}

Status BufferPool::Discard() {
  const auto locks = LockAll();
  SS_RETURN_IF_ERROR(CheckNothingPinned("Discard"));
  for (uint64_t i = 0; i < num_shards_; ++i) {
    shards_[i].lru.clear();
    shards_[i].frames.clear();
  }
  return Status::OK();
}

Status BufferPool::FlushLocked() {
  for (uint64_t i = 0; i < num_shards_; ++i) {
    for (internal::PoolFrame& frame : shards_[i].lru) {
      SS_RETURN_IF_ERROR(WriteBack(shards_[i], frame));
    }
  }
  return Status::OK();
}

uint64_t BufferPool::FlushBestEffort() {
  const auto locks = LockAll();
  return FlushBestEffortLocked();
}

uint64_t BufferPool::FlushBestEffortLocked() {
  uint64_t failures = 0;
  for (uint64_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    for (internal::PoolFrame& frame : shard.lru) {
      if (!WriteBack(shard, frame).ok()) {
        ++failures;
        ++shard.flush_failures;
      }
    }
  }
  return failures;
}

Status BufferPool::Clear() {
  const auto locks = LockAll();
  SS_RETURN_IF_ERROR(CheckNothingPinned("Clear"));
  SS_RETURN_IF_ERROR(FlushLocked());
  for (uint64_t i = 0; i < num_shards_; ++i) {
    shards_[i].lru.clear();
    shards_[i].frames.clear();
  }
  return Status::OK();
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.capacity = capacity_;
  uint64_t lock_wait_ns = 0;
  for (uint64_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    const auto lock = Lock(shards_[i]);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
    s.write_backs += shard.write_backs;
    s.flush_failures += shard.flush_failures;
    s.prefetched += shard.prefetched;
    s.pinned_frames += shard.pinned_frames.load();
    s.cached_blocks += shard.frames.size();
    s.lock_waits += shard.lock_waits;
    lock_wait_ns += shard.lock_wait_ns;
    s.io += shard.io;
  }
  s.lock_wait_us = lock_wait_ns / 1000;
  // The admission mutex is never taken while holding a shard mutex.
  const std::lock_guard<std::mutex> admission_lock(admission_mu_);
  s.admitted = admitted_;
  s.admission_rejections = admission_rejections_;
  s.admission_timeouts = admission_timeouts_;
  return s;
}

uint64_t BufferPool::SumShards(uint64_t Shard::*field) const {
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_shards_; ++i) {
    const auto lock = Lock(shards_[i]);
    total += shards_[i].*field;
  }
  return total;
}

uint64_t BufferPool::hits() const { return SumShards(&Shard::hits); }

uint64_t BufferPool::misses() const { return SumShards(&Shard::misses); }

uint64_t BufferPool::flush_failures() const {
  return SumShards(&Shard::flush_failures);
}

uint64_t BufferPool::journaled_write_backs() const {
  return SumShards(&Shard::journaled_write_backs);
}

uint64_t BufferPool::cached_blocks() const {
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_shards_; ++i) {
    const auto lock = Lock(shards_[i]);
    total += shards_[i].frames.size();
  }
  return total;
}

uint64_t BufferPool::pinned_frames() const {
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_shards_; ++i) {
    total += shards_[i].pinned_frames.load();
  }
  return total;
}

}  // namespace shiftsplit
