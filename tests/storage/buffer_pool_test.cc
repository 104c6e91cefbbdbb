#include "shiftsplit/storage/buffer_pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "shiftsplit/storage/journal.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/util/random.h"
#include "storage/fault_injection_block_manager.h"
#include "testing.h"

namespace shiftsplit {
namespace {

constexpr uint64_t kBlockSize = 4;

// Scratch directory for journal-backed tests.
class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("shiftsplit_pool_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(BufferPoolTest, HitAvoidsBlockIo) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(3, false));
  EXPECT_EQ(page.block_id(), 3u);
  EXPECT_EQ(manager.stats().block_reads, 1u);
  ASSERT_OK_AND_ASSIGN(page, pool.GetBlock(3, false));
  EXPECT_EQ(manager.stats().block_reads, 1u);  // served from cache
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 0.5);
}

TEST(BufferPoolTest, DirtyFrameWrittenBackOnEviction) {
  MemoryBlockManager manager(kBlockSize, 8);
  {
    BufferPool pool(&manager, 1);
    {
      ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
      page[2] = 7.5;
    }
    // Capacity 1: touching another block evicts block 0 (dirty -> write).
    ASSERT_OK(pool.GetBlock(1, false).status());
    EXPECT_EQ(manager.stats().block_writes, 1u);
    EXPECT_EQ(pool.stats().evictions, 1u);
    EXPECT_EQ(pool.stats().write_backs, 1u);
  }
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[2], 7.5);
}

TEST(BufferPoolTest, CleanEvictionDoesNotWrite) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 1);
  ASSERT_OK(pool.GetBlock(0, false).status());
  ASSERT_OK(pool.GetBlock(1, false).status());
  EXPECT_EQ(manager.stats().block_writes, 0u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  ASSERT_OK(pool.GetBlock(0, false).status());
  ASSERT_OK(pool.GetBlock(1, false).status());
  // Touch 0 so 1 becomes LRU.
  ASSERT_OK(pool.GetBlock(0, false).status());
  ASSERT_OK(pool.GetBlock(2, false).status());  // evicts 1
  manager.stats().Reset();
  ASSERT_OK(pool.GetBlock(0, false).status());  // still cached
  EXPECT_EQ(manager.stats().block_reads, 0u);
  ASSERT_OK(pool.GetBlock(1, false).status());  // was evicted -> re-read
  EXPECT_EQ(manager.stats().block_reads, 1u);
}

TEST(BufferPoolTest, FlushWritesDirtyOnceAndKeepsCache) {
  MemoryBlockManager manager(kBlockSize, 4);
  BufferPool pool(&manager, 4);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 1.0;
  }
  ASSERT_OK(pool.GetBlock(1, false).status());
  ASSERT_OK(pool.Flush());
  EXPECT_EQ(manager.stats().block_writes, 1u);  // only the dirty frame
  ASSERT_OK(pool.Flush());
  EXPECT_EQ(manager.stats().block_writes, 1u);  // now clean: no rewrite
  manager.stats().Reset();
  ASSERT_OK(pool.GetBlock(0, false).status());
  EXPECT_EQ(manager.stats().block_reads, 0u);  // still cached after flush
}

TEST(BufferPoolTest, ClearDropsCache) {
  MemoryBlockManager manager(kBlockSize, 4);
  BufferPool pool(&manager, 4);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[1] = 2.0;
  }
  ASSERT_OK(pool.Clear());
  EXPECT_EQ(pool.cached_blocks(), 0u);
  EXPECT_EQ(manager.stats().block_writes, 1u);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[1], 2.0);
}

TEST(BufferPoolTest, ClearRefusesWhilePinned) {
  MemoryBlockManager manager(kBlockSize, 4);
  BufferPool pool(&manager, 4);
  ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
  page[1] = 2.0;
  const Status status = pool.Clear();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.cached_blocks(), 1u);  // nothing was dropped
  page.Release();
  ASSERT_OK(pool.Clear());
}

TEST(BufferPoolTest, DestructorFlushes) {
  MemoryBlockManager manager(kBlockSize, 4);
  {
    BufferPool pool(&manager, 2);
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(3, true));
    page[3] = -4.0;
    page.Release();  // guards must not outlive the pool
  }
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(3, buf));
  EXPECT_DOUBLE_EQ(buf[3], -4.0);
}

TEST(BufferPoolTest, ErrorsPropagateFromManager) {
  MemoryBlockManager manager(kBlockSize, 2);
  BufferPool pool(&manager, 2);
  EXPECT_FALSE(pool.GetBlock(5, false).ok());  // beyond device
}

TEST(BufferPoolTest, CapacityBoundIsRespected) {
  MemoryBlockManager manager(kBlockSize, 16);
  BufferPool pool(&manager, 3);
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_OK(pool.GetBlock(i, false).status());
    EXPECT_LE(pool.cached_blocks(), 3u);
  }
}

// Regression for the headline bug: before pinning, the second GetBlock could
// evict the first frame at small capacities and the first span dangled. Both
// guards must stay valid simultaneously (ASan verifies the memory safety).
TEST(BufferPoolTest, TwoGuardsAtCapacityTwoStayValid) {
  MemoryBlockManager manager(kBlockSize, 8);
  std::vector<double> buf(kBlockSize, 1.25);
  ASSERT_OK(manager.WriteBlock(0, buf));
  buf.assign(kBlockSize, -3.5);
  ASSERT_OK(manager.WriteBlock(1, buf));

  BufferPool pool(&manager, 2);
  ASSERT_OK_AND_ASSIGN(auto a, pool.GetBlock(0, true));
  ASSERT_OK_AND_ASSIGN(auto b, pool.GetBlock(1, true));
  EXPECT_EQ(pool.pinned_frames(), 2u);
  // Interleaved writes through both guards: neither span may dangle.
  for (uint64_t i = 0; i < kBlockSize; ++i) {
    a[i] += 1.0;
    b[i] += 1.0;
  }
  EXPECT_DOUBLE_EQ(a.span()[0], 2.25);
  EXPECT_DOUBLE_EQ(b.span()[0], -2.5);
  a.Release();
  b.Release();
  ASSERT_OK(pool.Flush());
  ASSERT_OK(manager.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[0], 2.25);
  ASSERT_OK(manager.ReadBlock(1, buf));
  EXPECT_DOUBLE_EQ(buf[0], -2.5);
}

TEST(BufferPoolTest, PinnedFrameIsNeverTheVictim) {
  MemoryBlockManager manager(kBlockSize, 16);
  std::vector<double> buf(kBlockSize, 9.0);
  ASSERT_OK(manager.WriteBlock(0, buf));

  BufferPool pool(&manager, 2);
  ASSERT_OK_AND_ASSIGN(auto pinned, pool.GetBlock(0, false));
  // Stream many blocks through the single unpinned frame; block 0 is LRU
  // from the second fetch on, yet must never be chosen as victim.
  for (uint64_t i = 1; i < 12; ++i) {
    ASSERT_OK(pool.GetBlock(i, false).status());
    ASSERT_DOUBLE_EQ(pinned[0], 9.0);  // span still backed by live memory
  }
  manager.stats().Reset();
  ASSERT_OK(pool.GetBlock(0, false).status());
  EXPECT_EQ(manager.stats().block_reads, 0u);  // 0 was resident all along
}

TEST(BufferPoolTest, AllFramesPinnedGivesResourceExhausted) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  ASSERT_OK_AND_ASSIGN(auto a, pool.GetBlock(0, false));
  ASSERT_OK_AND_ASSIGN(auto b, pool.GetBlock(1, false));
  auto third = pool.GetBlock(2, false);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // The failure must not have read anything or disturbed the cache.
  EXPECT_EQ(manager.stats().block_reads, 2u);
  EXPECT_EQ(pool.cached_blocks(), 2u);
  // Releasing one pin makes room again.
  a.Release();
  ASSERT_OK(pool.GetBlock(2, false).status());
}

TEST(BufferPoolTest, RepinningSameBlockDoesNotExhaustThePool) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 1);
  ASSERT_OK_AND_ASSIGN(auto a, pool.GetBlock(0, false));
  ASSERT_OK_AND_ASSIGN(auto b, pool.GetBlock(0, true));  // hit: same frame
  EXPECT_EQ(pool.pinned_frames(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
  a.Release();
  EXPECT_EQ(pool.pinned_frames(), 1u);  // b still pins the frame
  b.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, MoveTransfersThePin) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  ASSERT_OK_AND_ASSIGN(auto a, pool.GetBlock(0, false));
  EXPECT_EQ(pool.pinned_frames(), 1u);
  PageGuard moved = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): tested on purpose
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(pool.pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

// Eviction-order contract: on a miss the new block is read *before* the
// victim is touched, so a failed read leaves cache contents, dirty bits and
// recency order bit-for-bit unchanged.
TEST(BufferPoolTest, FailedMissReadLeavesCacheUnchanged) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 2);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 42.0;
  }
  ASSERT_OK(pool.GetBlock(1, false).status());

  manager.FailNthRead(1);
  const auto result = pool.GetBlock(2, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);

  // No eviction happened: both blocks are still resident (no re-reads)...
  EXPECT_EQ(pool.cached_blocks(), 2u);
  const uint64_t reads_before = manager.reads_seen();
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, false));
    EXPECT_DOUBLE_EQ(page[0], 42.0);  // ...with contents intact...
  }
  ASSERT_OK(pool.GetBlock(1, false).status());
  EXPECT_EQ(manager.reads_seen(), reads_before);
  // ...and block 0 is still dirty: Flush writes exactly it.
  ASSERT_OK(pool.Flush());
  EXPECT_EQ(inner.stats().block_writes, 1u);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(inner.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[0], 42.0);
}

TEST(BufferPoolTest, FailedVictimWriteBackKeepsVictimResidentAndDirty) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 1);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[3] = 5.0;
  }
  manager.FailNthWrite(1);
  const auto result = pool.GetBlock(1, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  // The victim survived with its dirty payload; once the device heals the
  // eviction completes and nothing was lost.
  EXPECT_EQ(pool.cached_blocks(), 1u);
  ASSERT_OK(pool.GetBlock(1, false).status());
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(inner.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[3], 5.0);
}

TEST(BufferPoolTest, FlushBestEffortCountsFailures) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 4);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(i, true));
    page[0] = static_cast<double>(i) + 0.5;
  }
  manager.FailNthWrite(2);
  EXPECT_EQ(pool.FlushBestEffort(), 1u);  // kept going past the failure
  EXPECT_EQ(pool.flush_failures(), 1u);
  EXPECT_EQ(inner.stats().block_writes, 2u);
  // The failed frame stayed dirty; a healthy flush completes the job.
  ASSERT_OK(pool.Flush());
  EXPECT_EQ(inner.stats().block_writes, 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    std::vector<double> buf(kBlockSize);
    ASSERT_OK(inner.ReadBlock(i, buf));
    EXPECT_DOUBLE_EQ(buf[0], static_cast<double>(i) + 0.5);
  }
}

TEST(BufferPoolTest, PrefetchWarmsTheCache) {
  MemoryBlockManager manager(kBlockSize, 16);
  BufferPool pool(&manager, 8);
  const std::vector<uint64_t> ids{3, 4, 5, 9, 3};  // dup must count once
  ASSERT_OK(pool.Prefetch(ids));
  EXPECT_EQ(pool.cached_blocks(), 4u);
  EXPECT_EQ(pool.stats().prefetched, 4u);
  EXPECT_EQ(manager.stats().block_reads, 4u);
  // Every prefetched block is now a hit; no further device reads.
  manager.stats().Reset();
  for (const uint64_t id : {3, 4, 5, 9}) {
    ASSERT_OK(pool.GetBlock(id, false).status());
  }
  EXPECT_EQ(pool.hits(), 4u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(manager.stats().block_reads, 0u);
  // A second prefetch of resident blocks is a no-op.
  ASSERT_OK(pool.Prefetch(ids));
  EXPECT_EQ(pool.stats().prefetched, 4u);
  EXPECT_EQ(manager.stats().block_reads, 0u);
}

TEST(BufferPoolTest, PrefetchIsCappedByCapacityMinusPins) {
  MemoryBlockManager manager(kBlockSize, 16);
  BufferPool pool(&manager, 3);
  ASSERT_OK_AND_ASSIGN(auto pinned, pool.GetBlock(0, false));
  // Room for 2 unpinned frames: only the first two missing ids are warmed.
  const std::vector<uint64_t> ids{1, 2, 3, 4};
  ASSERT_OK(pool.Prefetch(ids));
  EXPECT_EQ(pool.stats().prefetched, 2u);
  EXPECT_EQ(pool.cached_blocks(), 3u);
  manager.stats().Reset();
  ASSERT_OK(pool.GetBlock(1, false).status());
  ASSERT_OK(pool.GetBlock(2, false).status());
  EXPECT_EQ(manager.stats().block_reads, 0u);
  ASSERT_DOUBLE_EQ(pinned[0], 0.0);  // the pin stayed valid throughout
}

TEST(BufferPoolTest, PrefetchEvictsWithWriteBack) {
  MemoryBlockManager manager(kBlockSize, 16);
  BufferPool pool(&manager, 2);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[1] = 6.5;
  }
  // Warming two new blocks at capacity 2 evicts the dirty frame.
  ASSERT_OK(pool.Prefetch(std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(pool.stats().write_backs, 1u);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[1], 6.5);
}

TEST(BufferPoolTest, FailedPrefetchReadLeavesCacheUnchanged) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 4);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 42.0;
  }
  manager.FailNthRead(1);
  const Status status = pool.Prefetch(std::vector<uint64_t>{1, 2});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(pool.cached_blocks(), 1u);
  EXPECT_EQ(pool.stats().prefetched, 0u);
  // The resident dirty frame kept its payload.
  ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, false));
  EXPECT_DOUBLE_EQ(page[0], 42.0);
}

TEST(BufferPoolTest, ThreadSafeModeTogglesAndBehavesIdentically) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  EXPECT_FALSE(pool.thread_safe());
  pool.set_thread_safe(true);
  EXPECT_TRUE(pool.thread_safe());
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 3.0;
  }
  ASSERT_OK(pool.Prefetch(std::vector<uint64_t>{1, 2}));
  ASSERT_OK(pool.Flush());
  pool.set_thread_safe(false);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[0], 3.0);
}

TEST(BufferPoolTest, StatsAggregateAcrossOperations) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 1.0;
  }
  ASSERT_OK(pool.GetBlock(1, false).status());
  ASSERT_OK(pool.GetBlock(0, false).status());  // hit
  ASSERT_OK(pool.GetBlock(2, false).status());  // evicts 1 (clean)
  ASSERT_OK(pool.Flush());                      // writes 0
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.write_backs, 1u);
  EXPECT_EQ(stats.flush_failures, 0u);
  EXPECT_EQ(stats.pinned_frames, 0u);
  EXPECT_EQ(stats.cached_blocks, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.io.block_reads, 3u);
  EXPECT_EQ(stats.io.block_writes, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.25);
}

TEST(BufferPoolTest, PrefetchVictimWriteBackFailureStopsInsertion) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 2);
  // Two resident dirty frames: inserting prefetched blocks needs evictions.
  for (const uint64_t id : {0, 1}) {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(id, true));
    page[0] = static_cast<double>(id) + 0.5;
  }
  manager.FailNthWrite(1);  // the first victim write-back fails
  const Status status = pool.Prefetch(std::vector<uint64_t>{4, 5});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // Insertion stopped before replacing anything: both dirty originals stay
  // resident with their payloads, and the counters record exactly the batch
  // read plus the failed write attempt.
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.cached_blocks, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.write_backs, 0u);
  EXPECT_EQ(stats.io.block_reads, 4u);  // 2 misses + the 2-block batch
  EXPECT_EQ(stats.io.block_writes, 0u);
  EXPECT_EQ(inner.stats().block_writes, 0u);  // device untouched
  for (const uint64_t id : {0, 1}) {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(id, false));
    EXPECT_DOUBLE_EQ(page[0], static_cast<double>(id) + 0.5);
  }
  // The frames are still dirty: a later flush lands both.
  ASSERT_OK(pool.Flush());
  EXPECT_EQ(inner.stats().block_writes, 2u);
}

TEST(BufferPoolTest, PrefetchPartialFailureAfterOneInsertion) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 2);
  for (const uint64_t id : {0, 1}) {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(id, true));
    page[0] = static_cast<double>(id) + 0.5;
  }
  manager.FailNthWrite(2);  // second victim write-back fails
  const Status status = pool.Prefetch(std::vector<uint64_t>{4, 5});
  ASSERT_FALSE(status.ok());
  // Exactly one replacement happened: block 0 (the LRU victim) was written
  // back and replaced by block 4; block 1 is still resident and dirty.
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.write_backs, 1u);
  EXPECT_EQ(stats.cached_blocks, 2u);
  EXPECT_EQ(inner.stats().block_writes, 1u);
  ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(1, false));
  EXPECT_DOUBLE_EQ(page[0], 1.5);
}

TEST(BufferPoolTest, FlushAtomicCommitsThroughTheJournal) {
  TempDir dir;
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 4);
  Journal journal(dir.File("store.journal"));
  for (const uint64_t id : {2, 5}) {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(id, true));
    page[1] = static_cast<double>(id) * 10.0;
  }
  ASSERT_OK(pool.FlushAtomic(&journal));
  EXPECT_EQ(journal.commits(), 1u);
  // Commit complete: journal retired, blocks in place, write-backs counted
  // as journaled.
  EXPECT_FALSE(std::filesystem::exists(journal.path()));
  EXPECT_EQ(pool.journaled_write_backs(), 2u);
  EXPECT_EQ(pool.stats().write_backs, 2u);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(2, buf));
  EXPECT_DOUBLE_EQ(buf[1], 20.0);
  ASSERT_OK(manager.ReadBlock(5, buf));
  EXPECT_DOUBLE_EQ(buf[1], 50.0);
  // Nothing dirty: the next commit is a no-op, not an empty record.
  ASSERT_OK(pool.FlushAtomic(&journal));
  EXPECT_EQ(journal.commits(), 1u);
}

TEST(BufferPoolTest, FlushAtomicWithNullJournalDegradesToFlush) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 1.25;
  }
  ASSERT_OK(pool.FlushAtomic(nullptr));
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[0], 1.25);
  EXPECT_EQ(pool.journaled_write_backs(), 0u);
}

TEST(BufferPoolTest, FlushAtomicJournalFailureLeavesDeviceUntouched) {
  TempDir dir;
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 4);
  Journal journal(dir.File("store.journal"));
  journal.set_hook([](const char* op) -> Status {
    if (std::string_view(op) == "fsync") {
      return Status::IOError("simulated power cut");
    }
    return Status::OK();
  });
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(3, true));
    page[0] = 9.0;
  }
  ASSERT_FALSE(pool.FlushAtomic(&journal).ok());
  // The intent never became durable, so no block was written in place and
  // the frame stays dirty for a retry.
  EXPECT_EQ(manager.stats().block_writes, 0u);
  EXPECT_EQ(pool.journaled_write_backs(), 0u);
  journal.set_hook(nullptr);
  ASSERT_OK(pool.FlushAtomic(&journal));
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(3, buf));
  EXPECT_DOUBLE_EQ(buf[0], 9.0);
}

TEST(BufferPoolTest, DiscardDropsDirtyFramesWithoutWriteBack) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 4);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 123.0;
  }
  ASSERT_OK(pool.Discard());
  EXPECT_EQ(pool.cached_blocks(), 0u);
  EXPECT_EQ(manager.stats().block_writes, 0u);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager.ReadBlock(0, buf));
  EXPECT_DOUBLE_EQ(buf[0], 0.0);  // the write never reached the device
}

TEST(BufferPoolTest, ExpiredContextFailsGetBlockBeforeIo) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  OperationContext ctx(std::chrono::nanoseconds(0));
  auto r = pool.GetBlock(0, false, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(manager.stats().block_reads, 0u);  // gate fires before the read
  OperationContext cancelled;
  cancelled.RequestCancel();
  EXPECT_EQ(pool.Prefetch(std::vector<uint64_t>{1}, &cancelled).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(manager.stats().block_reads, 0u);
}

TEST(BufferPoolTest, ContextRetriesTransientMissReadFailures) {
  MemoryBlockManager manager(kBlockSize, 8);
  testing::FaultInjectionBlockManager faults(&manager);
  BufferPool pool(&faults, 2);
  faults.FailNthRead(1);  // the first read fails once, then passes

  OperationContext ctx;
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_backoff_us = 1;
  policy.max_backoff_us = 1;
  policy.jitter = 0.0;
  ctx.set_retry_policy(policy);
  ASSERT_OK(pool.GetBlock(5, false, &ctx).status());
  EXPECT_EQ(ctx.retries_used(), 1u);
  EXPECT_EQ(faults.reads_seen(), 2u);

  // Without a context the same failure is fatal (single attempt).
  faults.FailNthRead(1);
  auto r = pool.GetBlock(6, false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(BufferPoolTest, ContextRetryBudgetExhaustionSurfacesTheError) {
  MemoryBlockManager manager(kBlockSize, 8);
  testing::FaultInjectionBlockManager faults(&manager);
  BufferPool pool(&faults, 2);
  faults.FailAfter(0);  // every read fails: the device died

  OperationContext ctx;
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_backoff_us = 1;
  policy.max_backoff_us = 1;
  policy.jitter = 0.0;
  ctx.set_retry_policy(policy);
  auto r = pool.GetBlock(0, false, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(ctx.retries_used(), 2u);
  EXPECT_EQ(faults.reads_seen(), 3u);  // first attempt + two retries
}

TEST(BufferPoolTest, AdmissionDisabledGrantsNoOpTickets) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  ASSERT_OK_AND_ASSIGN(auto ticket, pool.AdmitOperation());
  ticket.Release();
  EXPECT_EQ(pool.stats().admitted, 0u);  // disabled: nothing counted
}

TEST(BufferPoolTest, AdmissionCapRejectsWhenQueueIsFull) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  // Cap of 1 with no queue: the second concurrent operation is rejected
  // immediately instead of waiting.
  pool.SetAdmissionControl(1, 0, 1'000);
  ASSERT_OK_AND_ASSIGN(auto first, pool.AdmitOperation());
  auto second = pool.AdmitOperation();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  first.Release();
  // The slot is free again.
  ASSERT_OK_AND_ASSIGN(auto third, pool.AdmitOperation());
  third.Release();
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.admission_rejections, 1u);
}

TEST(BufferPoolTest, AdmissionQueueTimesOutWithUnavailable) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  pool.set_thread_safe(true);
  pool.SetAdmissionControl(1, 1, 5'000);  // 5 ms queue timeout
  ASSERT_OK_AND_ASSIGN(auto held, pool.AdmitOperation());
  const auto t0 = std::chrono::steady_clock::now();
  auto waited = pool.AdmitOperation();  // queues, then times out
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed, std::chrono::milliseconds(4));
  EXPECT_EQ(pool.stats().admission_timeouts, 1u);
  held.Release();
}

TEST(BufferPoolTest, AdmissionQueueGrantsFifoToWaiters) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  pool.set_thread_safe(true);
  pool.SetAdmissionControl(1, 2, 2'000'000);
  auto held = pool.AdmitOperation();
  ASSERT_TRUE(held.ok());

  std::atomic<int> granted{0};
  auto waiter = [&] {
    auto t = pool.AdmitOperation();
    if (t.ok()) {
      ++granted;
      t->Release();
    }
  };
  std::thread a(waiter);
  std::thread b(waiter);
  // Give both waiters time to queue, then free the slot; each waiter
  // hands the slot to the next on release.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  held->Release();
  a.join();
  b.join();
  EXPECT_EQ(granted.load(), 2);
  EXPECT_EQ(pool.stats().admitted, 3u);
}

TEST(BufferPoolTest, AdmissionWaiterHonoursContextDeadline) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 2);
  pool.set_thread_safe(true);
  pool.SetAdmissionControl(1, 1, 10'000'000);  // 10 s queue timeout
  ASSERT_OK_AND_ASSIGN(auto held, pool.AdmitOperation());
  OperationContext ctx(std::chrono::milliseconds(5));
  auto waited = pool.AdmitOperation(&ctx);  // deadline fires first
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
  held.Release();
}

TEST(BufferPoolTest, DiscardFailsWhilePinned) {
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, 4);
  ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, false));
  const Status status = pool.Discard();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  page.Release();
  ASSERT_OK(pool.Discard());
}


// ---- In-flight frames (thread-safe pools) --------------------------------

// Writes `value` into every slot of `block` on the device.
void FillBlock(BlockManager* manager, uint64_t block, double value) {
  const std::vector<double> image(kBlockSize, value);
  ASSERT_OK(manager->WriteBlock(block, image));
}

// Spins until `manager` has seen more than `reads` reads.
void AwaitReadStart(const testing::FaultInjectionBlockManager& manager,
                    uint64_t reads) {
  while (manager.reads_seen() == reads) std::this_thread::yield();
}

// A miss reads the device outside the pool mutex: a hit on another block
// does not wait for it, and a second miss on the same block waits for that
// read instead of issuing its own.
TEST(BufferPoolTest, HitDoesNotWaitForAnotherThreadsMissRead) {
  MemoryBlockManager inner(kBlockSize, 8);
  FillBlock(&inner, 2, 7.0);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 4);
  pool.set_thread_safe(true);
  ASSERT_OK(pool.GetBlock(1, false).status());
  manager.SetReadLatency(1, 300'000);  // every read stalls 300 ms
  const uint64_t reads_before = manager.reads_seen();

  auto read_block_2 = [&pool](double* seen) {
    auto page = pool.GetBlock(2, false);
    *seen = page.ok() ? (*page)[0] : -1.0;
  };
  double seen_a = 0.0;
  double seen_b = 0.0;
  std::thread a(read_block_2, &seen_a);
  AwaitReadStart(manager, reads_before);  // A's read is in flight

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_OK(pool.GetBlock(1, false).status());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));

  std::thread b(read_block_2, &seen_b);
  a.join();
  b.join();
  EXPECT_EQ(manager.reads_seen(), reads_before + 1);  // B issued no read
  EXPECT_DOUBLE_EQ(seen_a, 7.0);
  EXPECT_DOUBLE_EQ(seen_b, 7.0);
  EXPECT_EQ(pool.hits() + pool.misses(), 4u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

// A failed in-flight read leaves no trace: its frame is dropped, no victim
// was evicted, and a caller that waited for it retries with its own read.
TEST(BufferPoolTest, FailedInFlightReadIsRetriedByItsWaiter) {
  MemoryBlockManager inner(kBlockSize, 8);
  FillBlock(&inner, 2, 9.0);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 4);
  pool.set_thread_safe(true);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 42.0;
  }
  ASSERT_OK(pool.GetBlock(1, false).status());
  const uint64_t cached_before = pool.cached_blocks();

  manager.SetReadLatency(1, 300'000);
  manager.FailNthRead(1);  // A's read stalls, then fails
  const uint64_t reads_before = manager.reads_seen();
  Status a_status;
  std::thread a([&] { a_status = pool.GetBlock(2, false).status(); });
  AwaitReadStart(manager, reads_before);

  double seen = 0.0;
  std::chrono::steady_clock::duration waited{};
  std::thread waiter([&] {
    const auto t0 = std::chrono::steady_clock::now();
    auto page = pool.GetBlock(2, false);
    waited = std::chrono::steady_clock::now() - t0;
    seen = page.ok() ? (*page)[0] : -1.0;
  });
  a.join();
  waiter.join();
  manager.SetReadLatency(0, 0);

  EXPECT_EQ(a_status.code(), StatusCode::kIOError);
  EXPECT_DOUBLE_EQ(seen, 9.0);
  EXPECT_EQ(manager.reads_seen(), reads_before + 2);  // A's, then its own
  // The waiter sat out the rest of A's read before its own 300 ms read.
  EXPECT_GE(waited, std::chrono::milliseconds(400));
  // Blocks 0 and 1 are resident as before (no re-read), plus the waiter's.
  EXPECT_EQ(pool.cached_blocks(), cached_before + 1);
  const uint64_t reads_after = manager.reads_seen();
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, false));
    EXPECT_DOUBLE_EQ(page[0], 42.0);
  }
  ASSERT_OK(pool.GetBlock(1, false).status());
  EXPECT_EQ(manager.reads_seen(), reads_after);
  // Block 0 is still dirty: Flush writes exactly it.
  ASSERT_OK(pool.Flush());
  EXPECT_EQ(inner.stats().block_writes, 2u);  // FillBlock, then the flush
  EXPECT_EQ(pool.hits() + pool.misses(), 6u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

// The drain's two pool calls beside a query's in-flight read of the same
// block: staging sees the block as absent, and the install takes the frame
// that read loads, so the block keeps one frame and the pool then serves
// the installed image.
TEST(BufferPoolTest, PinForInstallSharesTheFrameOfAnInFlightRead) {
  MemoryBlockManager inner(kBlockSize, 8);
  FillBlock(&inner, 3, 5.0);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 4);
  pool.set_thread_safe(true);
  manager.SetReadLatency(1, 200'000);
  const uint64_t reads_before = manager.reads_seen();

  const double* loaded = nullptr;
  std::thread a([&] {
    auto page = pool.GetBlock(3, false);
    if (page.ok()) loaded = page->span().data();
  });
  AwaitReadStart(manager, reads_before);
  // The drain's staging copy treats the loading frame as absent.
  std::vector<double> copy(kBlockSize);
  EXPECT_FALSE(pool.CopyIfResident(3, copy));
  const std::vector<double> present(kBlockSize, 5.0);
  ASSERT_OK_AND_ASSIGN(PageGuard frame, pool.PinForInstall(3, present));
  a.join();
  manager.SetReadLatency(0, 0);

  EXPECT_EQ(frame.span().data(), loaded);
  EXPECT_EQ(pool.cached_blocks(), 1u);
  EXPECT_DOUBLE_EQ(frame[0], 5.0);
  const std::vector<double> image(kBlockSize, 8.0);
  std::copy(image.begin(), image.end(), frame.span().begin());
  ASSERT_OK(manager.WriteBlock(3, image));
  frame.ReleaseClean();

  ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(3, false));
  EXPECT_DOUBLE_EQ(page[0], 8.0);
  EXPECT_EQ(manager.reads_seen(), reads_before + 1);
}

// A caller waiting for another caller's read gives up at its deadline;
// the read completes for its own caller and leaves the block resident.
TEST(BufferPoolTest, WaitForAnInFlightReadHonoursTheDeadline) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 4);
  pool.set_thread_safe(true);
  manager.SetReadLatency(1, 300'000);
  const uint64_t reads_before = manager.reads_seen();

  Status a_status;
  std::thread a([&] { a_status = pool.GetBlock(2, false).status(); });
  AwaitReadStart(manager, reads_before);
  OperationContext ctx(std::chrono::milliseconds(20));
  const auto waited = pool.GetBlock(2, false, &ctx);
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
  a.join();
  manager.SetReadLatency(0, 0);

  ASSERT_OK(a_status);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  ASSERT_OK(pool.GetBlock(2, false).status());
  EXPECT_EQ(manager.reads_seen(), reads_before + 1);
}

// Stress for tsan: readers pin and release random blocks of an 8-frame
// pool while an installer cycles PinForInstall/ReleaseClean. Every pin
// sees its own block's payload, and the pool's counts come out exact.
TEST(BufferPoolTest, ConcurrentPinsReleasesAndInstallsStayExact) {
  constexpr uint64_t kBlocks = 64;
  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 2000;
  MemoryBlockManager inner(kBlockSize, kBlocks);
  for (uint64_t block = 0; block < kBlocks; ++block) {
    FillBlock(&inner, block, static_cast<double>(block));
  }
  testing::FaultInjectionBlockManager manager(&inner);
  manager.SetReadLatency(7, 50);  // widen some in-flight windows
  BufferPool pool(&manager, 8);
  pool.set_thread_safe(true);

  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bad{0};
  auto holds = [](const PageGuard& page, uint64_t block) {
    for (const double v : page.span()) {
      if (v != static_cast<double>(block)) return false;
    }
    return true;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(1000 + r);
      for (int op = 0; op < kOpsPerReader; ++op) {
        const uint64_t block = rng.NextBounded(kBlocks);
        auto page = pool.GetBlock(block, false);
        calls.fetch_add(1);
        if (!page.ok() || !holds(*page, block)) bad.fetch_add(1);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread installer([&] {
    Xoshiro256 rng(7);
    while (!stop.load()) {
      const uint64_t block = rng.NextBounded(kBlocks);
      const std::vector<double> present(kBlockSize,
                                        static_cast<double>(block));
      auto frame = pool.PinForInstall(block, present);
      if (!frame.ok() || !holds(*frame, block)) {
        bad.fetch_add(1);
        continue;
      }
      frame->ReleaseClean();
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  installer.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(pool.hits() + pool.misses(), calls.load());
  // Two GetBlocks of one block: the second is a hit that first trims.
  ASSERT_OK(pool.GetBlock(0, false).status());
  ASSERT_OK(pool.GetBlock(0, false).status());
  EXPECT_LE(pool.cached_blocks(), pool.capacity());
}

constexpr uint64_t kShardedCapacity =
    BufferPool::kShards * BufferPool::kMinShardFrames;

// The stress above on a pool large enough to shard: four readers over four
// times its capacity, so every shard misses and evicts, beside an
// installer that also invalidates blocks. Every pin sees its own block's
// payload, and the counts summed over the shards come out exact.
TEST(BufferPoolTest, ShardedPoolStaysExactUnderConcurrentPins) {
  constexpr uint64_t kBlocks = 4 * kShardedCapacity;
  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 20000;
  MemoryBlockManager inner(kBlockSize, kBlocks);
  for (uint64_t block = 0; block < kBlocks; ++block) {
    FillBlock(&inner, block, static_cast<double>(block));
  }
  testing::FaultInjectionBlockManager manager(&inner);
  manager.SetReadLatency(97, 50);  // widen some in-flight windows
  BufferPool pool(&manager, kShardedCapacity);
  pool.set_thread_safe(true);
  ASSERT_EQ(pool.num_shards(), BufferPool::kShards);

  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bad{0};
  auto holds = [](const PageGuard& page, uint64_t block) {
    for (const double v : page.span()) {
      if (v != static_cast<double>(block)) return false;
    }
    return true;
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(2000 + r);
      for (int op = 0; op < kOpsPerReader; ++op) {
        const uint64_t block = rng.NextBounded(kBlocks);
        auto page = pool.GetBlock(block, false);
        calls.fetch_add(1);
        if (!page.ok() || !holds(*page, block)) bad.fetch_add(1);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread installer([&] {
    Xoshiro256 rng(9);
    for (uint64_t round = 0; !stop.load(); ++round) {
      const uint64_t block = rng.NextBounded(kBlocks);
      if (round % 8 == 0) {
        const std::vector<uint64_t> ids{block, block + 1, block / 2};
        pool.InvalidateBlocks(ids);
        continue;
      }
      const std::vector<double> present(kBlockSize,
                                        static_cast<double>(block));
      auto frame = pool.PinForInstall(block, present);
      if (!frame.ok() || !holds(*frame, block)) {
        bad.fetch_add(1);
        continue;
      }
      frame->ReleaseClean();
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  installer.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(pool.hits() + pool.misses(), calls.load());
  EXPECT_GT(pool.stats().evictions, 0u);
  // Prefetch first trims every shard back to its capacity.
  ASSERT_OK(pool.Prefetch(std::span<const uint64_t>()));
  EXPECT_LE(pool.cached_blocks(), pool.capacity());
}

// FlushAtomic on a sharded pool commits the dirty frames of every shard in
// one journal record: when an in-place write fails after the record, the
// record's replay on reopen gives every block its new image.
TEST(BufferPoolTest, ShardedFlushAtomicCommitsEveryShardInOneRecord) {
  TempDir dir;
  // 64 consecutive ids: the block-id hash spreads them over the shards.
  constexpr uint64_t kDirty = 64;
  MemoryBlockManager inner(kBlockSize, kDirty);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, kShardedCapacity);
  pool.set_thread_safe(true);
  ASSERT_EQ(pool.num_shards(), BufferPool::kShards);
  for (uint64_t id = 0; id < kDirty; ++id) {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(id, true));
    page[0] = 100.0 + static_cast<double>(id);
  }
  Journal journal(dir.File("store.journal"));
  manager.FailNthWrite(kDirty / 2);  // the first 31 in-place writes land
  ASSERT_FALSE(pool.FlushAtomic(&journal).ok());
  EXPECT_EQ(journal.commits(), 1u);
  EXPECT_EQ(pool.journaled_write_backs(), kDirty / 2 - 1);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(inner.ReadBlock(kDirty - 1, buf));
  EXPECT_DOUBLE_EQ(buf[0], 0.0);  // not yet written in place

  Journal reopened(dir.File("store.journal"));
  ASSERT_OK_AND_ASSIGN(const Journal::RecoveryResult result,
                       reopened.Recover(&inner));
  EXPECT_TRUE(result.replayed);
  EXPECT_EQ(result.blocks, kDirty);
  for (uint64_t id = 0; id < kDirty; ++id) {
    ASSERT_OK(inner.ReadBlock(id, buf));
    EXPECT_DOUBLE_EQ(buf[0], 100.0 + static_cast<double>(id)) << id;
  }
}

// A shard-mutex acquisition that finds the mutex held is counted with its
// wait; uncontended ones are not. FlushAtomic holds every shard's mutex
// while its journal hook stalls, so a GetBlock beside it waits.
TEST(BufferPoolTest, ContendedShardLockIsCountedWithItsWait) {
  TempDir dir;
  MemoryBlockManager manager(kBlockSize, 8);
  BufferPool pool(&manager, kShardedCapacity);
  pool.set_thread_safe(true);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 1.0;
  }
  ASSERT_OK(pool.GetBlock(1, false).status());
  EXPECT_EQ(pool.stats().lock_waits, 0u);  // one thread never waits

  Journal journal(dir.File("store.journal"));
  std::atomic<bool> in_commit{false};
  journal.set_hook([&](const char* op) -> Status {
    if (std::string_view(op) == "fsync" && !in_commit.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return Status::OK();
  });
  std::thread committer([&] { EXPECT_OK(pool.FlushAtomic(&journal)); });
  while (!in_commit.load()) std::this_thread::yield();
  ASSERT_OK(pool.GetBlock(1, false).status());
  committer.join();
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.lock_waits, 1u);
  EXPECT_GT(stats.lock_wait_us, 0u);
}

}  // namespace
}  // namespace shiftsplit
