// Pinning, write-back LRU buffer pool over a BlockManager. The pool capacity
// (in blocks) is the memory budget the paper's algorithms operate under; a
// hit costs no block I/O, a miss reads the block and may evict (writing back
// a dirty frame).

#ifndef SHIFTSPLIT_STORAGE_BUFFER_POOL_H_
#define SHIFTSPLIT_STORAGE_BUFFER_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shiftsplit/storage/block_manager.h"
#include "shiftsplit/storage/io_stats.h"
#include "shiftsplit/storage/journal.h"
#include "shiftsplit/util/operation_context.h"

namespace shiftsplit {

class BufferPool;

namespace internal {
// One cached block. Frames live in a std::list, so their addresses are
// stable for the lifetime of the frame — PageGuard relies on this.
struct PoolFrame {
  uint64_t block_id = 0;
  bool dirty = false;
  uint32_t pins = 0;
  std::vector<double> data;
};
}  // namespace internal

/// \brief RAII pin on a buffer-pool frame.
///
/// While a PageGuard is alive its frame is pinned: the pool will not evict
/// it, so the span returned by span() stays valid no matter how many other
/// blocks are fetched in the meantime. The destructor (or Release()) unpins
/// the frame and, for guards obtained with `for_write` (or after MarkDirty()),
/// carries the dirty bit onto the frame so the block is written back on
/// eviction or Flush.
///
/// Guards are move-only and must not outlive their pool.
class PageGuard {
 public:
  /// Constructs an empty guard (valid() == false).
  PageGuard() = default;

  PageGuard(PageGuard&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        frame_(std::exchange(other.frame_, nullptr)),
        dirty_(std::exchange(other.dirty_, false)) {}

  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = std::exchange(other.pool_, nullptr);
      frame_ = std::exchange(other.frame_, nullptr);
      dirty_ = std::exchange(other.dirty_, false);
    }
    return *this;
  }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  ~PageGuard() { Release(); }

  /// \brief True when the guard pins a frame.
  bool valid() const { return frame_ != nullptr; }
  explicit operator bool() const { return valid(); }

  /// \brief Block id of the pinned frame. Guard must be valid.
  uint64_t block_id() const { return frame_->block_id; }

  /// \brief The frame's coefficients; stays valid while the guard is alive.
  std::span<double> span() const { return std::span<double>(frame_->data); }

  double& operator[](uint64_t slot) const { return frame_->data[slot]; }

  /// \brief Marks the frame for write-back when the guard is released.
  /// Writes through a guard that is neither `for_write` nor marked dirty are
  /// not written back and may be lost on eviction.
  void MarkDirty() { dirty_ = true; }

  /// \brief Unpins the frame early (applying the dirty bit); the guard
  /// becomes empty. Safe to call on an empty guard.
  void Release();

  /// \brief Unpins the frame and marks it clean: the caller has written
  /// the frame's image to the device itself. The guard becomes empty.
  void ReleaseClean();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, internal::PoolFrame* frame, bool dirty)
      : pool_(pool), frame_(frame), dirty_(dirty) {}

  BufferPool* pool_ = nullptr;
  internal::PoolFrame* frame_ = nullptr;
  bool dirty_ = false;  // applied to the frame on Release
};

/// \brief RAII admission slot granted by BufferPool::AdmitOperation.
///
/// One ticket is one logical operation (a query, a reconstruct) allowed to
/// drive the pool concurrently; destroying (or Release()-ing) the ticket
/// frees the slot for the next queued waiter. Tickets from a pool with
/// admission control disabled are valid no-ops.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;

  AdmissionTicket(AdmissionTicket&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)) {}
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = std::exchange(other.pool_, nullptr);
    }
    return *this;
  }

  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  ~AdmissionTicket() { Release(); }

  /// \brief Frees the admission slot early; safe to call repeatedly.
  void Release();

 private:
  friend class BufferPool;
  explicit AdmissionTicket(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_ = nullptr;  // non-null while a slot is held
};

/// \brief Single-threaded pinning LRU block cache with write-back.
///
/// Contract:
///  - GetBlock returns a PageGuard pinning the frame; pinned frames are
///    never eviction victims, so any number of concurrently held guards stay
///    valid (bounded by the pool capacity — when every frame is pinned a
///    miss fails with ResourceExhausted instead of invalidating anything).
///  - Write-back is lazy: dirty frames are written on eviction, Flush, or
///    pool destruction (best effort; see flush_failures()).
///  - Failure atomicity on the miss path: the incoming block is read before
///    the victim frame is touched. A failed ReadBlock leaves cache contents,
///    dirty bits and recency order bit-for-bit unchanged; a failed victim
///    write-back leaves the victim resident and still dirty.
///
/// Threading: the pool is thread-compatible by default (zero locking
/// overhead, single-threaded callers only). set_thread_safe(true) switches
/// every public operation — including guard release — behind an internal
/// mutex, making the frame table, recency order and all counters safe to
/// drive from multiple threads. Writes through a pinned span are NOT covered
/// by the pool mutex: concurrent writers must touch disjoint blocks or
/// serialize externally (the parallel chunked transform serializes commits).
class BufferPool {
 public:
  /// \brief Counters describing pool behaviour since construction.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;       ///< frames dropped to make room
    uint64_t write_backs = 0;     ///< dirty frames written (eviction + flush)
    uint64_t flush_failures = 0;  ///< dirty frames dropped unwritten
    uint64_t prefetched = 0;      ///< frames loaded by Prefetch
    uint64_t pinned_frames = 0;   ///< frames currently pinned
    uint64_t cached_blocks = 0;   ///< frames currently resident
    uint64_t capacity = 0;
    uint64_t admitted = 0;             ///< operations granted an admission slot
    uint64_t admission_rejections = 0; ///< fast rejections (queue full)
    uint64_t admission_timeouts = 0;   ///< waiters that timed out in the queue
    IoStats io;                   ///< block I/O issued by this pool

    /// Fraction of GetBlock calls served without block I/O (1.0 when idle).
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 1.0 : static_cast<double>(hits) / total;
    }
  };

  /// \param manager         backing device (not owned; must outlive the pool)
  /// \param capacity_blocks positive frame budget
  BufferPool(BlockManager* manager, uint64_t capacity_blocks);

  /// Writes back dirty frames best-effort (failures are counted and logged,
  /// never thrown). All guards must have been released before destruction.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Pins and returns the frame caching `block_id`, reading it on a
  /// miss. With `for_write` the frame is marked dirty when the guard is
  /// released and written back on eviction or Flush.
  ///
  /// With a non-null `ctx` the miss-path read honours the context's
  /// deadline, cancellation and retry budget (ReadBlockRetry); the
  /// deadline/cancellation gate fires before the lock is taken, so a wedged
  /// caller returns within one block read of its deadline.
  ///
  /// Errors: ResourceExhausted when the pool is full of pinned frames;
  /// DeadlineExceeded/Cancelled from `ctx`; any Status from the backing
  /// manager's ReadBlock/WriteBlock.
  Result<PageGuard> GetBlock(uint64_t block_id, bool for_write,
                             OperationContext* ctx = nullptr);

  /// \brief Warms the cache with `block_ids` in one vectored read
  /// (BlockManager::ReadBlocks). Already-cached and duplicate ids are
  /// skipped; the remaining ids are loaded first-to-last until the pool has
  /// no more unpinned room, evicting LRU victims (write-backs included) as
  /// needed. Purely a cache warm-up: a prefetched frame carries no pin and
  /// may be evicted again before use, in which case the later GetBlock
  /// simply re-reads it — correctness never depends on a prefetch.
  ///
  /// Errors: a failed batch read leaves the cache unchanged; a failed victim
  /// write-back stops the insertion, leaving earlier ids warmed. With a
  /// non-null `ctx` the batch read retries transient failures under the
  /// context's budget and the deadline gate fires on entry.
  Status Prefetch(std::span<const uint64_t> block_ids,
                  OperationContext* ctx = nullptr);

  /// \brief Copies `block_id`'s frame into `out` (block_size doubles) if
  /// the block is resident; returns whether it was. Touches neither recency
  /// order nor counters.
  bool CopyIfResident(uint64_t block_id, std::span<double> out);

  /// \brief Pins `block_id`'s frame for a caller that overwrites the frame
  /// and writes the block in place itself (the serving drain's install). An
  /// absent block becomes resident from `present`, its current image, at
  /// the cold end of the LRU with no device read; the victim is chosen and
  /// written back as on a GetBlock miss. Release with
  /// PageGuard::ReleaseClean once the device holds the frame's image.
  ///
  /// When every frame is pinned, a thread-safe pool waits for one to be
  /// released (the installer must hold no pin of its own); a
  /// single-threaded one fails.
  ///
  /// Errors: ResourceExhausted when every frame is pinned (single-threaded
  /// pools only); a failed victim write-back.
  Result<PageGuard> PinForInstall(uint64_t block_id,
                                  std::span<const double> present);

  /// \brief Caps the number of operations concurrently driving the pool.
  ///
  /// When `max_concurrent` > 0, AdmitOperation grants at most that many
  /// outstanding tickets; excess callers wait FIFO in a queue bounded by
  /// `max_queue_depth`. A caller finding the queue full is rejected
  /// immediately with Unavailable (fast failure instead of pin-exhaustion
  /// livelock); a queued caller that waits longer than `queue_timeout_us`
  /// (or its context deadline, whichever is sooner) is removed and rejected
  /// the same way. `max_concurrent` = 0 disables admission control (the
  /// default). Requires thread-safe mode when used concurrently; reconfigure
  /// only while no operation is in flight.
  void SetAdmissionControl(uint64_t max_concurrent, uint64_t max_queue_depth,
                           uint64_t queue_timeout_us);

  /// \brief Acquires an admission slot for one logical operation, waiting in
  /// the bounded FIFO queue if the pool is at its concurrency cap. Returns
  /// Unavailable on queue overflow or queue timeout, DeadlineExceeded /
  /// Cancelled when the context ends the wait instead. With admission
  /// control disabled this is a cheap no-op returning a valid ticket.
  Result<AdmissionTicket> AdmitOperation(OperationContext* ctx = nullptr);

  /// \brief Toggles the internal mutex (see class comment). Must be called
  /// while no operation is in flight on another thread.
  void set_thread_safe(bool on) { thread_safe_ = on; }
  bool thread_safe() const { return thread_safe_; }

  /// \brief Writes back all dirty frames (keeps them cached and clean).
  /// Stops at the first failing write, leaving that frame dirty.
  Status Flush();

  /// \brief Atomic multi-block commit of all dirty frames through `journal`:
  /// the dirty block set (ids + images + checksums) is first appended to
  /// the journal and fsynced, then the blocks are written in place and the
  /// device synced, then the journal is truncated. A crash anywhere in
  /// between is repaired by Journal::Recover on reopen — the whole batch
  /// lands or none of it does. With a null journal this degrades to Flush().
  ///
  /// The all-or-nothing guarantee covers the frames dirty at call time;
  /// dirty frames evicted *between* commits are written back unjournaled
  /// (tracked by journaled_write_backs() vs write_backs) — size the pool to
  /// hold each commit's dirty working set (no-steal), as the tests and
  /// benches do. The serving drain does not come here: it journals each
  /// batch before any block changes and installs the blocks itself
  /// (TiledStore::JournalStaged / InstallStaged), so a serving pool never
  /// holds a dirty frame and no-steal holds by construction.
  Status FlushAtomic(Journal* journal);

  /// \brief Drops the clean, unpinned frames among `block_ids` so their
  /// next GetBlock re-reads the disk — for blocks whose on-disk image was
  /// repaired behind the cache (a scrub may otherwise leave stale degraded
  /// zero-fills resident). Pinned or dirty frames are skipped: a pin means
  /// a caller still reads the frame, and a dirty frame is newer than disk.
  /// Returns the number of frames dropped.
  uint64_t InvalidateBlocks(std::span<const uint64_t> block_ids);

  /// \brief Drops every frame without writing dirty ones back — for
  /// abandoning a store after a failed commit (the journal will repair it
  /// on reopen). Fails with ResourceExhausted while any frame is pinned.
  Status Discard();

  /// \brief Writes back all dirty frames, continuing past failures. Failed
  /// frames stay dirty; each failure increments flush_failures(). Returns
  /// the number of failures (0 = fully flushed).
  uint64_t FlushBestEffort();

  /// \brief Drops every frame, writing dirty ones back first. Fails with
  /// ResourceExhausted (dropping nothing) while any frame is pinned.
  Status Clear();

  /// \brief Full counter snapshot (see Stats).
  Stats stats() const;

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// \brief Dirty frames that could not be written back by best-effort
  /// flushes (FlushBestEffort and the destructor).
  uint64_t flush_failures() const { return flush_failures_; }
  /// \brief Write-backs performed inside FlushAtomic commits; the
  /// difference to Stats::write_backs is eviction traffic outside any
  /// commit (zero when the pool never steals dirty frames between commits).
  uint64_t journaled_write_backs() const { return journaled_write_backs_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t cached_blocks() const { return frames_.size(); }
  uint64_t pinned_frames() const { return pinned_frames_; }

  BlockManager* manager() { return manager_; }

 private:
  friend class PageGuard;
  friend class AdmissionTicket;
  using FrameList = std::list<internal::PoolFrame>;

  // One queued admission waiter; lives on the waiter's stack.
  struct AdmissionWaiter {
    std::condition_variable cv;
    bool granted = false;
  };

  // AdmissionTicket::Release calls this: frees a slot, grants the next
  // queued waiter(s).
  void ReleaseAdmission();

  // Locked when thread-safe mode is on; an empty (no-op) lock otherwise.
  std::unique_lock<std::mutex> Lock() const {
    return thread_safe_ ? std::unique_lock<std::mutex>(mu_)
                        : std::unique_lock<std::mutex>();
  }

  // Pins `frame` (recording the 0->1 transition) and wraps it in a guard.
  PageGuard Pin(internal::PoolFrame* frame, bool for_write);
  // PageGuard::Release calls this: applies `dirty`, drops one pin.
  void Unpin(internal::PoolFrame* frame, bool dirty);
  // PageGuard::ReleaseClean calls this: clears the dirty bit, drops one pin.
  void UnpinClean(internal::PoolFrame* frame);

  // Least-recently-used unpinned frame, or lru_.end() if all are pinned.
  FrameList::iterator FindVictim();

  // Writes `frame` back if dirty (counting the write-back); on success the
  // frame is clean.
  Status WriteBack(internal::PoolFrame& frame);

  // A block-sized buffer: recycled from a previous eviction when available,
  // freshly allocated otherwise. Contents are unspecified.
  std::vector<double> TakeBuffer();

  // Unlocked bodies of the public entry points (caller holds Lock()).
  Status FlushLocked();
  uint64_t FlushBestEffortLocked();

  BlockManager* manager_;
  uint64_t capacity_;
  bool thread_safe_ = false;
  mutable std::mutex mu_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t write_backs_ = 0;
  uint64_t flush_failures_ = 0;
  uint64_t journaled_write_backs_ = 0;
  uint64_t prefetched_ = 0;
  uint64_t pinned_frames_ = 0;
  // PinForInstall callers waiting for a frame's last pin to drop.
  uint64_t unpin_waiters_ = 0;
  std::condition_variable unpinned_cv_;
  IoStats io_;  // block reads/writes issued by this pool
  // Admission control (separate mutex, acquired strictly before mu_ and
  // never while holding it — tickets are taken before pool operations).
  mutable std::mutex admission_mu_;
  uint64_t admission_max_ = 0;  // 0 = admission control off
  uint64_t admission_queue_cap_ = 0;
  uint64_t admission_timeout_us_ = 0;
  uint64_t admission_active_ = 0;
  uint64_t admitted_ = 0;
  uint64_t admission_rejections_ = 0;
  uint64_t admission_timeouts_ = 0;
  std::list<AdmissionWaiter*> admission_queue_;  // FIFO, front is next
  // MRU at front. unordered_map points into the list (stable iterators).
  FrameList lru_;
  std::unordered_map<uint64_t, FrameList::iterator> frames_;
  // Block-sized buffers recycled across evictions so the steady-state miss
  // path performs no heap allocation.
  std::vector<std::vector<double>> free_buffers_;
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_STORAGE_BUFFER_POOL_H_
