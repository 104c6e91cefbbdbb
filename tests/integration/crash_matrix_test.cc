// Crash-point matrix for the durability layer: a three-commit workload
// (ingest, range update, batched apply) is killed at every durability
// operation k — block writes, device syncs and each journal step share one
// simulated power domain — and the store is reopened and recovered. The
// acceptance criterion is byte-exactness: after recovery, blocks.bin must
// equal the pre- or post-commit reference image of whichever commit was in
// flight, never a mix. The file also carries the cube-level durability
// tests: scrub/flip-byte detection, read-only degradation and Close()
// error propagation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "shiftsplit/core/appender.h"
#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/updater.h"
#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/data/dataset.h"
#include "shiftsplit/storage/file_block_manager.h"
#include "shiftsplit/storage/journal.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/tile/tiled_store.h"
#include "storage/fault_injection_block_manager.h"
#include "testing.h"

namespace shiftsplit {
namespace {

constexpr uint32_t kB = 1;
constexpr uint64_t kBlockSize = 4;  // 2^(kB * d) with d = 2
constexpr uint64_t kPoolBlocks = 64;  // holds every block: no-steal
constexpr uint64_t kEpoch = 7;
const std::vector<uint32_t> kLogDims = {3, 3};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

Tensor MakeData() {
  TensorShape shape(std::vector<uint64_t>{8, 8});
  std::vector<double> cells(shape.num_elements());
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<double>((i * 37 + 11) % 101) / 7.0;
  }
  return Tensor(shape, std::move(cells));
}

Tensor MakeDeltas() {
  TensorShape shape(std::vector<uint64_t>{2, 2});
  return Tensor(shape, {1.5, -2.25, 0.75, 4.0});
}

// The three-commit workload. Invokes `after_phase(p)` after commit p
// completes (p = 1..3); returns the number of completed commits, leaving
// the first failure in `*failure`.
uint64_t RunWorkload(TiledStore* store, Status* failure,
                     const std::function<void(int)>& after_phase = {}) {
  *failure = Status::OK();
  TensorDataset dataset(MakeData());
  TransformOptions options;  // defaults: batched, kAverage, scaling slots
  const auto ingest =
      TransformDatasetStandard(&dataset, /*log_chunk=*/2, store, options);
  if (!ingest.ok()) {
    *failure = ingest.status();
    return 0;
  }
  if (after_phase) after_phase(1);

  const Tensor deltas = MakeDeltas();
  const std::vector<uint64_t> origin = {2, 2};
  Status status = UpdateRangeStandard(store, kLogDims, deltas, origin,
                                      Normalization::kAverage);
  if (!status.ok()) {
    *failure = status;
    return 1;
  }
  if (after_phase) after_phase(2);

  const SlotUpdate ops[] = {
      {0, 0.25, /*overwrite=*/false},
      {1, -1.0, /*overwrite=*/true},
      {3, 2.5, /*overwrite=*/false},
  };
  status = store->ApplyToBlock(2, ops);
  if (status.ok()) status = store->Flush();
  if (!status.ok()) {
    *failure = status;
    return 2;
  }
  if (after_phase) after_phase(3);
  return 3;
}

class CrashMatrixTest : public ::testing::TestWithParam<bool> {
 protected:
  CrashMatrixTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("shiftsplit_crash_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~CrashMatrixTest() override { std::filesystem::remove_all(dir_); }

  static FileBlockManager::Options DeviceOptions() {
    FileBlockManager::Options options;
    options.checksums = true;
    options.epoch = kEpoch;
    return options;
  }

  // Opens a journaled store over `manager` (which may be the fault
  // decorator or the raw device).
  static Result<std::unique_ptr<TiledStore>> OpenStore(
      BlockManager* manager, const std::string& journal_path) {
    return TiledStore::Open(std::make_unique<StandardTiling>(kLogDims, kB),
                            manager, kPoolBlocks,
                            std::make_unique<Journal>(journal_path));
  }

  std::string Subdir(const std::string& name) {
    const std::string path = (dir_ / name).string();
    std::filesystem::create_directories(path);
    return path;
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST_P(CrashMatrixTest, EveryCrashPointRecoversToACommitBoundary) {
  const bool drop_unsynced = GetParam();

  // Reference run: capture the blocks.bin byte image at every commit
  // boundary (image[c] = state with exactly c commits applied).
  const std::string ref_dir = Subdir("reference");
  const std::string ref_blocks = ref_dir + "/blocks.bin";
  std::vector<std::string> images;
  {
    ASSERT_OK_AND_ASSIGN(const auto device,
                         FileBlockManager::Open(ref_blocks, kBlockSize,
                                                DeviceOptions()));
    ASSERT_OK_AND_ASSIGN(const auto store,
                         OpenStore(device.get(),
                                   ref_dir + "/store.journal"));
    images.push_back(ReadFileBytes(ref_blocks));  // 0 commits: fresh store
    Status failure;
    const uint64_t commits =
        RunWorkload(store.get(), &failure, [&](int) {
          images.push_back(ReadFileBytes(ref_blocks));
        });
    ASSERT_OK(failure);
    ASSERT_EQ(commits, 3u);
    ASSERT_OK(store->Close());
  }
  ASSERT_EQ(images.size(), 4u);
  for (size_t i = 1; i < images.size(); ++i) {
    ASSERT_NE(images[i - 1], images[i]) << "commit " << i << " is a no-op";
  }

  // Dry run on a dead-man budget to learn the total op count T.
  uint64_t total_ops = 0;
  {
    const std::string probe = Subdir("probe");
    ASSERT_OK_AND_ASSIGN(const auto device,
                         FileBlockManager::Open(probe + "/blocks.bin",
                                                kBlockSize,
                                                DeviceOptions()));
    testing::FaultInjectionBlockManager fault(device.get());
    fault.CrashAfterNthOp(1u << 30, drop_unsynced);
    auto journal = std::make_unique<Journal>(probe + "/store.journal");
    journal->set_hook(
        [&fault](const char*) { return fault.ConsumeCrashOp(); });
    ASSERT_OK_AND_ASSIGN(
        const auto store,
        TiledStore::Open(std::make_unique<StandardTiling>(kLogDims, kB),
                         &fault, kPoolBlocks, std::move(journal)));
    Status failure;
    ASSERT_EQ(RunWorkload(store.get(), &failure), 3u);
    // Count only the workload's ops: Close() consumes more (its own sync),
    // so sampling after it would put crash points past the workload.
    total_ops = fault.crash_ops_seen();
    ASSERT_OK(store->Close());
  }
  ASSERT_GT(total_ops, 10u);
  ASSERT_LT(total_ops, 500u) << "matrix would be too slow";

  // The matrix: power-cut at every op index k, recover, compare bytes.
  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k) +
                 (drop_unsynced ? " (dropping unsynced writes)" : ""));
    const std::string run_dir = Subdir("k" + std::to_string(k));
    const std::string blocks = run_dir + "/blocks.bin";
    const std::string journal_path = run_dir + "/store.journal";

    uint64_t completed = 0;
    {
      ASSERT_OK_AND_ASSIGN(const auto device,
                           FileBlockManager::Open(blocks, kBlockSize,
                                                  DeviceOptions()));
      testing::FaultInjectionBlockManager fault(device.get());
      fault.CrashAfterNthOp(k, drop_unsynced);
      auto journal = std::make_unique<Journal>(journal_path);
      journal->set_hook(
          [&fault](const char*) { return fault.ConsumeCrashOp(); });
      ASSERT_OK_AND_ASSIGN(
          const auto store,
          TiledStore::Open(std::make_unique<StandardTiling>(kLogDims, kB),
                           &fault, kPoolBlocks, std::move(journal)));
      Status failure;
      completed = RunWorkload(store.get(), &failure);
      ASSERT_TRUE(fault.crashed()) << "op " << k << " never reached";
      ASSERT_FALSE(failure.ok());
      ASSERT_LT(completed, 3u);
      // The process dies: dirty frames are dropped, never written back.
      ASSERT_OK(store->pool().Discard());
    }

    // Reopen on the pristine device: recovery must land on a commit
    // boundary of the in-flight commit.
    {
      ASSERT_OK_AND_ASSIGN(const auto device,
                           FileBlockManager::Open(blocks, kBlockSize,
                                                  DeviceOptions()));
      ASSERT_OK_AND_ASSIGN(const auto store,
                           OpenStore(device.get(), journal_path));
      EXPECT_FALSE(store->read_only());
      ASSERT_OK(store->Close());
      // Recovery ran: the store scrubs clean (no torn block made it to
      // disk) and the journal is retired.
      ASSERT_OK_AND_ASSIGN(const std::vector<uint64_t> corrupt,
                           device->Scrub());
      EXPECT_TRUE(corrupt.empty());
    }
    EXPECT_FALSE(std::filesystem::exists(journal_path));

    const std::string recovered = ReadFileBytes(blocks);
    const bool pre = recovered == images[completed];
    const bool post = recovered == images[completed + 1];
    EXPECT_TRUE(pre || post)
        << "recovered state is neither the pre- nor the post-commit image "
        << "of commit " << (completed + 1);
  }

  // A crash horizon past the whole run (workload + close): everything
  // completes and the bytes match the reference image exactly.
  {
    const std::string run_dir = Subdir("beyond");
    const std::string blocks = run_dir + "/blocks.bin";
    ASSERT_OK_AND_ASSIGN(const auto device,
                         FileBlockManager::Open(blocks, kBlockSize,
                                                DeviceOptions()));
    testing::FaultInjectionBlockManager fault(device.get());
    fault.CrashAfterNthOp(total_ops + 100, drop_unsynced);
    auto journal = std::make_unique<Journal>(run_dir + "/store.journal");
    journal->set_hook(
        [&fault](const char*) { return fault.ConsumeCrashOp(); });
    ASSERT_OK_AND_ASSIGN(
        const auto store,
        TiledStore::Open(std::make_unique<StandardTiling>(kLogDims, kB),
                         &fault, kPoolBlocks, std::move(journal)));
    Status failure;
    ASSERT_EQ(RunWorkload(store.get(), &failure), 3u);
    ASSERT_OK(store->Close());
    EXPECT_FALSE(fault.crashed());
    EXPECT_EQ(ReadFileBytes(blocks), images[3]);
  }
}

// ---------------------------------------------------------------------------
// The same matrix over an Appender workload (append → update → append):
// Appender opens its store through the journal itself (journal_path), so
// this exercises the production wiring end to end. The crash domain here is
// the device only (writes + syncs) — the journal is internal to the
// appender — which makes every in-flight commit recover to its *post*
// image once its journal record hit the disk, and to its *pre* image
// otherwise; either way a commit boundary, asserted bytewise.

// Owns the real device so it can be handed to Appender's factory.
class OwningFaultManager : public testing::FaultInjectionBlockManager {
 public:
  explicit OwningFaultManager(std::unique_ptr<BlockManager> inner)
      : FaultInjectionBlockManager(inner.get()), inner_(std::move(inner)) {}

 private:
  std::unique_ptr<BlockManager> inner_;
};

Tensor MakeSlab(int which) {
  TensorShape shape(std::vector<uint64_t>{8, 4});  // full dim 0, h = 4
  std::vector<double> cells(shape.num_elements());
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<double>((i * 13 + 100 * which + 5) % 83) / 3.0;
  }
  return Tensor(shape, std::move(cells));
}

// Append slab 1 (rows 0-3), update inside it, append slab 2 (rows 4-7).
// Both appends fit the initial 8x8 domain: no expansion, fixed layout.
uint64_t RunAppendWorkload(Appender* appender, Status* failure,
                           const std::function<void(int)>& after_phase = {}) {
  *failure = Status::OK();
  Status status = appender->Append(MakeSlab(1));
  if (!status.ok()) {
    *failure = status;
    return 0;
  }
  if (after_phase) after_phase(1);

  const Tensor deltas = MakeDeltas();
  const std::vector<uint64_t> origin = {2, 1};
  status = UpdateRangeStandard(appender->store(), kLogDims, deltas, origin,
                               Normalization::kAverage,
                               /*maintain_scaling_slots=*/false);
  if (!status.ok()) {
    *failure = status;
    return 1;
  }
  if (after_phase) after_phase(2);

  status = appender->Append(MakeSlab(2));
  if (!status.ok()) {
    *failure = status;
    return 2;
  }
  if (after_phase) after_phase(3);
  return 3;
}

TEST_P(CrashMatrixTest, AppenderWorkloadRecoversToACommitBoundary) {
  const bool drop_unsynced = GetParam();

  // Builds an appender whose device is the (fault-wrapped) block file in
  // `dir`; `*fault_out` receives the decorator for arming.
  const auto make_appender = [&](const std::string& dir,
                                 testing::FaultInjectionBlockManager**
                                     fault_out) {
    Appender::Options options;
    options.b = kB;
    options.pool_blocks = kPoolBlocks;
    options.journal_path = dir + "/store.journal";
    options.factory = [dir, fault_out](uint64_t block_size)
        -> std::unique_ptr<BlockManager> {
      auto device = FileBlockManager::Open(dir + "/blocks.bin", block_size,
                                           DeviceOptions());
      if (!device.ok()) return nullptr;
      auto owned =
          std::make_unique<OwningFaultManager>(std::move(device).value());
      if (fault_out != nullptr) *fault_out = owned.get();
      return owned;
    };
    return Appender::Create({3, 3}, /*append_dim=*/1, std::move(options));
  };

  // Reference images at every commit boundary.
  const std::string ref_dir = Subdir("areference");
  std::vector<std::string> images;
  {
    ASSERT_OK_AND_ASSIGN(const auto appender,
                         make_appender(ref_dir, nullptr));
    images.push_back(ReadFileBytes(ref_dir + "/blocks.bin"));
    Status failure;
    const uint64_t commits =
        RunAppendWorkload(appender.get(), &failure, [&](int) {
          images.push_back(ReadFileBytes(ref_dir + "/blocks.bin"));
        });
    ASSERT_OK(failure);
    ASSERT_EQ(commits, 3u);
  }
  ASSERT_EQ(images.size(), 4u);

  // Dry run for the op count.
  uint64_t total_ops = 0;
  {
    const std::string probe = Subdir("aprobe");
    testing::FaultInjectionBlockManager* fault = nullptr;
    ASSERT_OK_AND_ASSIGN(const auto appender, make_appender(probe, &fault));
    ASSERT_NE(fault, nullptr);
    fault->CrashAfterNthOp(1u << 30, drop_unsynced);
    Status failure;
    ASSERT_EQ(RunAppendWorkload(appender.get(), &failure), 3u);
    total_ops = fault->crash_ops_seen();
  }
  ASSERT_GT(total_ops, 10u);
  ASSERT_LT(total_ops, 500u) << "matrix would be too slow";

  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at device op " + std::to_string(k) +
                 (drop_unsynced ? " (dropping unsynced writes)" : ""));
    std::string run_name = "a";
    run_name += std::to_string(k);
    const std::string run_dir = Subdir(run_name);
    uint64_t completed = 0;
    {
      testing::FaultInjectionBlockManager* fault = nullptr;
      ASSERT_OK_AND_ASSIGN(const auto appender,
                           make_appender(run_dir, &fault));
      ASSERT_NE(fault, nullptr);
      fault->CrashAfterNthOp(k, drop_unsynced);
      Status failure;
      completed = RunAppendWorkload(appender.get(), &failure);
      ASSERT_TRUE(fault->crashed()) << "op " << k << " never reached";
      ASSERT_FALSE(failure.ok());
      ASSERT_LT(completed, 3u);
      ASSERT_OK(appender->store()->pool().Discard());
    }

    ASSERT_OK_AND_ASSIGN(const auto device,
                         FileBlockManager::Open(run_dir + "/blocks.bin",
                                                kBlockSize,
                                                DeviceOptions()));
    ASSERT_OK_AND_ASSIGN(
        const auto store,
        OpenStore(device.get(), run_dir + "/store.journal"));
    EXPECT_FALSE(store->read_only());
    ASSERT_OK(store->Close());
    EXPECT_FALSE(std::filesystem::exists(run_dir + "/store.journal"));

    const std::string recovered = ReadFileBytes(run_dir + "/blocks.bin");
    EXPECT_TRUE(recovered == images[completed] ||
                recovered == images[completed + 1])
        << "recovered state is neither the pre- nor the post-commit image "
        << "of commit " << (completed + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(PageCacheModes, CrashMatrixTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DropUnsyncedWrites"
                                             : "WriteThrough";
                         });

// ---------------------------------------------------------------------------
// Recovery failure degrades to a read-only open instead of erroring out.

class DurabilityTest : public ::testing::Test {
 protected:
  DurabilityTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("shiftsplit_durability_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~DurabilityTest() override { std::filesystem::remove_all(dir_); }
  std::string File(const std::string& name) const {
    return (dir_ / name).string();
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST_F(DurabilityTest, FailedReplayOpensReadOnlyThenHealsOnRetry) {
  const std::string journal_path = File("store.journal");
  // A valid pending commit for block 0.
  std::vector<double> image(kBlockSize);
  for (uint64_t i = 0; i < kBlockSize; ++i) {
    image[i] = static_cast<double>(i) + 0.125;
  }
  {
    Journal journal(journal_path);
    const JournalEntry entries[] = {{0, std::span<const double>(image)}};
    ASSERT_OK(journal.AppendCommit(entries, kBlockSize));
  }

  // Device that rejects the replay write: the open succeeds but degrades.
  MemoryBlockManager inner(kBlockSize, 4);
  testing::FaultInjectionBlockManager fault(&inner);
  fault.FailNthWrite(1);
  ASSERT_OK_AND_ASSIGN(
      const auto store,
      TiledStore::Open(std::make_unique<StandardTiling>(std::vector<uint32_t>{2, 2}, kB),
                       &fault, 4, std::make_unique<Journal>(journal_path)));
  EXPECT_TRUE(store->read_only());
  EXPECT_TRUE(store->durability_stats().read_only);
  const std::vector<uint64_t> address = {0, 0};
  EXPECT_FALSE(store->Set(address, 1.0).ok());
  EXPECT_FALSE(store->ApplyToBlock(0, {}).ok());
  EXPECT_FALSE(store->PinBlock(0, /*for_write=*/true).ok());
  ASSERT_OK(store->Close());  // trivially: nothing can be dirty
  // The journal survived the failed replay for the next attempt.
  EXPECT_TRUE(std::filesystem::exists(journal_path));

  // A healthy reopen replays it.
  ASSERT_OK_AND_ASSIGN(
      const auto healed,
      TiledStore::Open(std::make_unique<StandardTiling>(std::vector<uint32_t>{2, 2}, kB),
                       &inner, 4, std::make_unique<Journal>(journal_path)));
  EXPECT_FALSE(healed->read_only());
  EXPECT_FALSE(std::filesystem::exists(journal_path));
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(inner.ReadBlock(0, buf));
  testing::ExpectNear(image, buf);
}

TEST_F(DurabilityTest, ClosePropagatesTheFlushFailure) {
  MemoryBlockManager inner(kBlockSize, 8);
  testing::FaultInjectionBlockManager fault(&inner);
  ASSERT_OK_AND_ASSIGN(
      const auto store,
      TiledStore::Create(std::make_unique<StandardTiling>(std::vector<uint32_t>{2, 2}, kB),
                         &fault, 4));
  const std::vector<uint64_t> address = {1, 1};
  ASSERT_OK(store->Set(address, 3.5));
  fault.FailNthWrite(1);
  const Status status = store->Close();
  ASSERT_FALSE(status.ok());  // the destructor would have swallowed this
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The frame stayed dirty; a retry completes the close.
  ASSERT_OK(store->Close());
  EXPECT_GT(inner.stats().block_writes, 0u);
}

TEST_F(DurabilityTest, ScrubCorruptionFlipsTheStoreReadOnly) {
  const std::string blocks = File("blocks.bin");
  FileBlockManager::Options options;
  options.checksums = true;
  options.epoch = kEpoch;
  {
    ASSERT_OK_AND_ASSIGN(const auto device,
                         FileBlockManager::Open(blocks, kBlockSize,
                                                options));
    ASSERT_OK_AND_ASSIGN(
        const auto store,
        TiledStore::Open(std::make_unique<StandardTiling>(std::vector<uint32_t>{2, 2}, kB),
                         device.get(), 4,
                         std::make_unique<Journal>(File("store.journal"))));
    const std::vector<uint64_t> address = {0, 1};
    ASSERT_OK(store->Set(address, 2.5));
    ASSERT_OK(store->Close());
  }
  // Flip a payload byte of block 0.
  {
    std::fstream f(blocks, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(5);
    const char x = 0x5A;
    f.write(&x, 1);
  }
  ASSERT_OK_AND_ASSIGN(const auto device,
                       FileBlockManager::Open(blocks, kBlockSize, options));
  ASSERT_OK_AND_ASSIGN(
      const auto store,
      TiledStore::Open(std::make_unique<StandardTiling>(std::vector<uint32_t>{2, 2}, kB),
                       device.get(), 4,
                       std::make_unique<Journal>(File("store.journal"))));
  EXPECT_FALSE(store->read_only());
  ASSERT_OK_AND_ASSIGN(const std::vector<uint64_t> corrupt, store->Scrub());
  ASSERT_EQ(corrupt, std::vector<uint64_t>({0}));
  EXPECT_TRUE(store->read_only());
  const DurabilityStats stats = store->durability_stats();
  EXPECT_TRUE(stats.read_only);
  EXPECT_EQ(stats.quarantined_blocks, 1u);
  // Degraded reads: the quarantined block reads as zeros instead of
  // failing, so the rest of the store is salvageable.
  const std::vector<uint64_t> address = {0, 1};
  ASSERT_OK_AND_ASSIGN(const double value, store->Get(address));
  EXPECT_DOUBLE_EQ(value, 0.0);
  EXPECT_GT(store->durability_stats().zero_filled_reads, 0u);
  EXPECT_FALSE(store->Set(address, 1.0).ok());
}

// ---------------------------------------------------------------------------
// WaveletCube-level durability: v2 on-disk cubes round-trip through crash
// recovery and detect corruption end to end.

TEST_F(DurabilityTest, V2CubeSurvivesReopenWithPendingJournal) {
  const std::string cube_dir = File("cube");
  WaveletCube::Options options;
  options.b = kB;
  {
    ASSERT_OK_AND_ASSIGN(
        const auto cube,
        WaveletCube::CreateOnDisk(cube_dir, {3, 3}, options));
    EXPECT_EQ(cube->manifest().format_version, 2u);
    EXPECT_NE(cube->manifest().store_epoch, 0u);
    TensorDataset dataset(MakeData());
    ASSERT_OK(cube->Ingest(&dataset, /*log_chunk=*/2));
    ASSERT_OK(cube->Close());
  }
  // Plant a pending commit (as a crash between journal fsync and the
  // in-place writes would): zero out block 0 via the journal.
  ASSERT_OK_AND_ASSIGN(const StoreManifest manifest,
                       StoreManifest::Load(cube_dir + "/store.manifest"));
  const std::vector<double> zeros(kBlockSize, 0.0);
  {
    Journal journal(cube_dir + "/store.journal");
    const JournalEntry entries[] = {{0, std::span<const double>(zeros)}};
    ASSERT_OK(journal.AppendCommit(entries, kBlockSize));
  }
  ASSERT_OK_AND_ASSIGN(const auto cube, WaveletCube::OpenOnDisk(cube_dir));
  EXPECT_FALSE(std::filesystem::exists(cube_dir + "/store.journal"));
  const DurabilityStats stats = cube->durability_stats();
  EXPECT_EQ(stats.journal_replays, 1u);
  EXPECT_FALSE(stats.read_only);
  // The replayed (zeroed) block still verifies: recovery rewrote it with a
  // valid footer under the manifest epoch.
  ASSERT_OK_AND_ASSIGN(const std::vector<uint64_t> corrupt, cube->Scrub());
  EXPECT_TRUE(corrupt.empty());
  (void)manifest;
}

TEST_F(DurabilityTest, V2CubeDetectsFlippedByteEndToEnd) {
  const std::string cube_dir = File("cube");
  WaveletCube::Options options;
  options.b = kB;
  {
    ASSERT_OK_AND_ASSIGN(
        const auto cube,
        WaveletCube::CreateOnDisk(cube_dir, {3, 3}, options));
    TensorDataset dataset(MakeData());
    ASSERT_OK(cube->Ingest(&dataset, /*log_chunk=*/2));
    ASSERT_OK(cube->Close());
  }
  {
    std::fstream f(cube_dir + "/blocks.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(9);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x02);
    f.seekp(9);
    f.write(&byte, 1);
  }
  ASSERT_OK_AND_ASSIGN(const auto cube, WaveletCube::OpenOnDisk(cube_dir));
  ASSERT_OK_AND_ASSIGN(const std::vector<uint64_t> corrupt, cube->Scrub());
  ASSERT_EQ(corrupt, std::vector<uint64_t>({0}));
  EXPECT_TRUE(cube->durability_stats().read_only);
  // Writes are rejected; the rest of the cube still answers queries.
  EXPECT_FALSE(cube->Update(MakeDeltas(), std::vector<uint64_t>{2, 2}).ok());
}

TEST_F(DurabilityTest, LegacyV1CubeStillOpensWithoutChecksums) {
  const std::string cube_dir = File("cube_v1");
  WaveletCube::Options options;
  options.b = kB;
  options.format_version = 1;
  {
    ASSERT_OK_AND_ASSIGN(
        const auto cube,
        WaveletCube::CreateOnDisk(cube_dir, {3, 3}, options));
    EXPECT_EQ(cube->manifest().format_version, 1u);
    TensorDataset dataset(MakeData());
    ASSERT_OK(cube->Ingest(&dataset, /*log_chunk=*/2));
    ASSERT_OK(cube->Close());
  }
  ASSERT_OK_AND_ASSIGN(const auto cube, WaveletCube::OpenOnDisk(cube_dir));
  ASSERT_OK_AND_ASSIGN(const std::vector<uint64_t> corrupt, cube->Scrub());
  EXPECT_TRUE(corrupt.empty());  // nothing to verify: trivially clean
  const std::vector<uint64_t> point = {3, 4};
  ASSERT_OK_AND_ASSIGN(const double value, cube->PointQuery(point));
  EXPECT_NE(value, 0.0);
}

}  // namespace
}  // namespace shiftsplit
