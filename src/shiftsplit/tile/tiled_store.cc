#include "shiftsplit/tile/tiled_store.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "shiftsplit/kernels/kernels.h"

namespace shiftsplit {

TiledStore::TiledStore(std::unique_ptr<TileLayout> layout,
                       BlockManager* manager, uint64_t pool_blocks)
    : layout_(std::move(layout)), manager_(manager),
      pool_(manager, pool_blocks) {}

Status TiledStore::Validate(const TileLayout* layout, BlockManager* manager,
                            uint64_t pool_blocks) {
  if (layout == nullptr || manager == nullptr) {
    return Status::InvalidArgument("layout and manager are required");
  }
  if (manager->block_size() != layout->block_capacity()) {
    return Status::InvalidArgument(
        "block manager block size must equal the layout block capacity");
  }
  if (pool_blocks == 0) {
    return Status::InvalidArgument("buffer pool needs at least one frame");
  }
  if (manager->num_blocks() < layout->num_blocks()) {
    SS_RETURN_IF_ERROR(manager->Resize(layout->num_blocks()));
  }
  return Status::OK();
}

Result<std::unique_ptr<TiledStore>> TiledStore::Create(
    std::unique_ptr<TileLayout> layout, BlockManager* manager,
    uint64_t pool_blocks) {
  SS_RETURN_IF_ERROR(Validate(layout.get(), manager, pool_blocks));
  return std::unique_ptr<TiledStore>(
      new TiledStore(std::move(layout), manager, pool_blocks));
}

Result<std::unique_ptr<TiledStore>> TiledStore::Open(
    std::unique_ptr<TileLayout> layout, BlockManager* manager,
    uint64_t pool_blocks, std::unique_ptr<Journal> journal) {
  SS_RETURN_IF_ERROR(Validate(layout.get(), manager, pool_blocks));
  if (journal == nullptr) {
    return Status::InvalidArgument("Open requires a journal (use Create)");
  }
  auto store = std::unique_ptr<TiledStore>(
      new TiledStore(std::move(layout), manager, pool_blocks));
  const Result<Journal::RecoveryResult> recovered =
      journal->Recover(manager);
  if (!recovered.ok()) {
    // The journal itself could be read but the device refused the replay
    // (or the journal is unreadable): salvage mode. Reads still work, with
    // quarantined blocks as zeros; every write fails.
    store->read_only_ = true;
    store->recovery_failed_ = true;
    manager->set_degraded_reads(true);
  }
  store->journal_ = std::move(journal);
  return store;
}

Result<double> TiledStore::Get(std::span<const uint64_t> address,
                               OperationContext* ctx) {
  SS_ASSIGN_OR_RETURN(const BlockSlot at, layout_->Locate(address));
  return GetAt(at, ctx);
}

Status TiledStore::Set(std::span<const uint64_t> address, double value) {
  SS_ASSIGN_OR_RETURN(const BlockSlot at, layout_->Locate(address));
  return SetAt(at, value);
}

Status TiledStore::Add(std::span<const uint64_t> address, double delta) {
  SS_ASSIGN_OR_RETURN(const BlockSlot at, layout_->Locate(address));
  return AddAt(at, delta);
}

Status TiledStore::FailIfReadOnly() const {
  if (!read_only_) return Status::OK();
  return Status::IOError(
      "store is read-only (failed recovery or scrub corruption); writes are "
      "rejected");
}

Result<double> TiledStore::GetAt(BlockSlot at, OperationContext* ctx) {
  SS_ASSIGN_OR_RETURN(const PageGuard page, PinForRead(at.block, 1, ctx));
  return page[at.slot];
}

Result<PageGuard> TiledStore::PinForRead(uint64_t block, uint64_t coeffs,
                                         OperationContext* ctx) {
  SS_ASSIGN_OR_RETURN(PageGuard page,
                      pool_.GetBlock(block, /*for_write=*/false, ctx));
  manager_->stats().coeff_reads += coeffs;
  return page;
}

Status TiledStore::SetAt(BlockSlot at, double value) {
  SS_RETURN_IF_ERROR(FailIfReadOnly());
  SS_ASSIGN_OR_RETURN(const PageGuard page,
                      pool_.GetBlock(at.block, /*for_write=*/true));
  ++manager_->stats().coeff_writes;
  const double old = page[at.slot];
  page[at.slot] = value;
  UpdateEnergy(at.block, value * value - old * old);
  return Status::OK();
}

Status TiledStore::AddAt(BlockSlot at, double delta) {
  SS_RETURN_IF_ERROR(FailIfReadOnly());
  SS_ASSIGN_OR_RETURN(const PageGuard page,
                      pool_.GetBlock(at.block, /*for_write=*/true));
  ++manager_->stats().coeff_writes;
  const double old = page[at.slot];
  const double updated = old + delta;
  page[at.slot] = updated;
  UpdateEnergy(at.block, updated * updated - old * old);
  return Status::OK();
}

Result<PageGuard> TiledStore::PinBlock(uint64_t block, bool for_write,
                                       OperationContext* ctx) {
  if (for_write) {
    SS_RETURN_IF_ERROR(FailIfReadOnly());
    // Span writes through the guard bypass the per-coefficient accounting:
    // the block's tracked energy is no longer trustworthy.
    UpdateEnergy(block, std::numeric_limits<double>::infinity());
  }
  return pool_.GetBlock(block, for_write, ctx);
}

namespace {

// The kernel fold reads SlotUpdate::value straight out of the ops array as
// a strided (AoS) double stream.
static_assert(sizeof(SlotUpdate) == 3 * sizeof(double),
              "SlotUpdate must stay 3 doubles wide for the strided folds");
static_assert(offsetof(SlotUpdate, value) == sizeof(uint64_t),
              "SlotUpdate::value must sit at the second double lane");
constexpr size_t kSlotUpdateStride = sizeof(SlotUpdate) / sizeof(double);

// Shortest consecutive-slot run worth a kernel call: below this the
// per-call overhead beats the lane win.
constexpr size_t kMinFoldRun = 4;

}  // namespace

Status TiledStore::ApplyToBlock(uint64_t block,
                                std::span<const SlotUpdate> ops) {
  SS_RETURN_IF_ERROR(FailIfReadOnly());
  SS_ASSIGN_OR_RETURN(const PageGuard page,
                      pool_.GetBlock(block, /*for_write=*/true));
  UpdateEnergy(block, ApplyOps(page.span(), ops));
  return Status::OK();
}

Status TiledStore::ApplyToStaged(StagedBlock& staged,
                                 std::span<const SlotUpdate> ops) {
  SS_RETURN_IF_ERROR(FailIfReadOnly());
  staged.energy_delta += ApplyOps(staged.image, ops);
  return Status::OK();
}

double TiledStore::ApplyOps(std::span<double> slots,
                            std::span<const SlotUpdate> ops) {
  if (!energy_tracking_.load(std::memory_order_relaxed)) {
    // Hot path (no per-op energy accounting): batch maximal runs of ops
    // whose slots ascend by exactly one and share the op kind through the
    // strided fold/copy kernels. Every slot still receives exactly the
    // operations of the scalar loop in the same per-slot order — runs
    // never reorder ops, and a repeated slot terminates the run (equal,
    // not +1) — so the stored bits are identical to the scalar path.
    const kernels::KernelOps& kernel = kernels::Active();
    const size_t n = ops.size();
    size_t i = 0;
    while (i < n) {
      size_t j = i + 1;
      while (j < n && ops[j].overwrite == ops[i].overwrite &&
             ops[j].slot == ops[j - 1].slot + 1) {
        ++j;
      }
      const size_t run = j - i;
      if (run >= kMinFoldRun) {
        if (ops[i].overwrite) {
          kernel.fold_copy_strided(slots.data() + ops[i].slot, &ops[i].value,
                                   kSlotUpdateStride, run);
        } else {
          kernel.fold_add_strided(slots.data() + ops[i].slot, &ops[i].value,
                                  kSlotUpdateStride, run);
        }
      } else {
        for (size_t t = i; t < j; ++t) {
          const SlotUpdate& op = ops[t];
          slots[op.slot] = op.overwrite ? op.value : slots[op.slot] + op.value;
        }
      }
      i = j;
    }
    manager_->stats().coeff_writes += ops.size();
    return 0.0;
  }
  // Energy-tracked path: the energy delta is a sequence-ordered serial sum
  // (new² − old² per op, accumulated in op order), so it stays scalar —
  // reassociating it would change the tracked energy bits.
  double energy_delta = 0.0;
  for (const SlotUpdate& op : ops) {
    const double old = slots[op.slot];
    const double updated = op.overwrite ? op.value : old + op.value;
    slots[op.slot] = updated;
    energy_delta += updated * updated - old * old;
  }
  manager_->stats().coeff_writes += ops.size();
  return energy_delta;
}

Status TiledStore::Prefetch(std::span<const uint64_t> blocks,
                            OperationContext* ctx) {
  return pool_.Prefetch(blocks, ctx);
}

Result<std::vector<TiledStore::StagedBlock>> TiledStore::StageBlocks(
    std::span<const uint64_t> blocks) {
  const uint64_t block_size = manager_->block_size();
  std::vector<StagedBlock> staged(blocks.size());
  std::vector<uint64_t> absent_ids;
  std::vector<size_t> absent;
  for (size_t i = 0; i < blocks.size(); ++i) {
    staged[i].block = blocks[i];
    staged[i].present.resize(block_size);
    // One section of the block's pool-shard mutex per block, so a query
    // waits for at most one frame copy.
    if (!pool_.CopyIfResident(blocks[i], staged[i].present)) {
      absent_ids.push_back(blocks[i]);
      absent.push_back(i);
    }
  }
  if (!absent.empty()) {
    std::vector<double> read(absent.size() * block_size);
    SS_RETURN_IF_ERROR(manager_->ReadBlocks(absent_ids, read));
    for (size_t k = 0; k < absent.size(); ++k) {
      std::copy_n(read.begin() + k * block_size, block_size,
                  staged[absent[k]].present.begin());
    }
  }
  for (StagedBlock& block : staged) block.image = block.present;
  return staged;
}

Status TiledStore::JournalStaged(std::span<const StagedBlock> staged) {
  SS_RETURN_IF_ERROR(FailIfReadOnly());
  if (journal_ == nullptr) return Status::OK();
  std::vector<BlockWrite> writes;
  writes.reserve(staged.size());
  for (const StagedBlock& block : staged) {
    writes.push_back({block.block, block.image});
  }
  return journal_->AppendWithParity(*manager_, writes);
}

Status TiledStore::InstallStaged(std::span<const StagedBlock> staged,
                                 const InstallFn& install) {
  for (const StagedBlock& block : staged) {
    SS_ASSIGN_OR_RETURN(PageGuard frame,
                        pool_.PinForInstall(block.block, block.present));
    install(block.block, [&] {
      std::copy(block.image.begin(), block.image.end(), frame.span().begin());
      UpdateEnergy(block.block, block.energy_delta);
    });
    Status written = install_write_hook_ ? install_write_hook_(block.block)
                                         : Status::OK();
    if (written.ok()) written = manager_->WriteBlock(block.block, block.image);
    // Clean even after a failed write: the journal record, not the pool,
    // then holds the batch. A dirty frame would reach the device through a
    // later flush, whose own commit record replaces this one.
    frame.ReleaseClean();
    SS_RETURN_IF_ERROR(written);
  }
  if (journal_ == nullptr) return Status::OK();
  return journal_->Complete(*manager_);
}

Status TiledStore::EnableEnergyTracking() {
  std::vector<double> energy(layout_->num_blocks(), 0.0);
  for (uint64_t block = 0; block < layout_->num_blocks(); ++block) {
    auto page = pool_.GetBlock(block, /*for_write=*/false);
    if (!page.ok()) {
      // Best-effort scan: an unreadable (corrupt, quarantined, failing)
      // block stays at the untracked +infinity ceiling so degradable
      // queries can still skip it with an honest bound.
      energy[block] = std::numeric_limits<double>::infinity();
      continue;
    }
    double sum = 0.0;
    for (const double v : page.value().span()) sum += v * v;
    energy[block] = sum;
  }
  {
    const std::lock_guard<std::mutex> lock(energy_mu_);
    block_energy_ = std::move(energy);
  }
  energy_tracking_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

double TiledStore::BlockEnergyCeiling(uint64_t block) const {
  if (!energy_tracking()) return std::numeric_limits<double>::infinity();
  double energy;
  {
    const std::lock_guard<std::mutex> lock(energy_mu_);
    energy = block < block_energy_.size()
                 ? block_energy_[block]
                 : std::numeric_limits<double>::infinity();
  }
  // Maintained deltas can drift a hair below zero in floating point.
  return std::sqrt(std::max(energy, 0.0));
}

double TiledStore::TotalEnergyCeiling() const {
  if (!energy_tracking()) return std::numeric_limits<double>::infinity();
  double total = 0.0;
  {
    const std::lock_guard<std::mutex> lock(energy_mu_);
    for (const double energy : block_energy_) total += energy;
  }
  // An invalidated (+inf) block entry propagates: the bound stays honest.
  return std::sqrt(std::max(total, 0.0));
}

void TiledStore::UpdateEnergy(uint64_t block, double delta) {
  if (!energy_tracking()) return;
  const std::lock_guard<std::mutex> lock(energy_mu_);
  if (block < block_energy_.size()) block_energy_[block] += delta;
}

Status TiledStore::Flush() {
  if (read_only_) return Status::OK();  // nothing can be dirty
  return journal_ ? pool_.FlushAtomic(journal_.get()) : pool_.Flush();
}

Status TiledStore::Close() {
  SS_RETURN_IF_ERROR(Flush());
  if (read_only_) return Status::OK();
  return manager_->Sync();
}

Result<std::vector<uint64_t>> TiledStore::Scrub() {
  // Scrub verifies the on-disk image; flush first so it covers this
  // store's own pending writes too.
  SS_RETURN_IF_ERROR(Flush());
  SS_ASSIGN_OR_RETURN(std::vector<uint64_t> corrupt, manager_->Scrub());
  if (!corrupt.empty()) {
    read_only_ = true;
    manager_->set_degraded_reads(true);
  }
  return corrupt;
}

Result<ScrubReport> TiledStore::ScrubRepair() {
  SS_RETURN_IF_ERROR(Flush());
  SS_ASSIGN_OR_RETURN(ScrubReport report, manager_->ScrubRepair());
  if (!report.repaired.empty()) {
    std::vector<uint64_t> data_ids;
    for (const uint64_t id : report.repaired) {
      if (id < kParityIdBase) data_ids.push_back(id);
    }
    // Cached copies of repaired blocks may be degraded zero-fills; drop
    // them so the next access reads the rebuilt payload.
    pool_.InvalidateBlocks(data_ids);
    if (energy_tracking()) {
      for (const uint64_t block : data_ids) {
        auto page = pool_.GetBlock(block, /*for_write=*/false);
        double energy = std::numeric_limits<double>::infinity();
        if (page.ok()) {
          double sum = 0.0;
          for (const double v : page.value().span()) sum += v * v;
          energy = sum;
        }
        const std::lock_guard<std::mutex> lock(energy_mu_);
        if (block < block_energy_.size()) block_energy_[block] = energy;
      }
    }
  }
  if (!report.unrepairable.empty()) {
    read_only_ = true;
    manager_->set_degraded_reads(true);
  } else if (!recovery_failed_) {
    // Every block (and every parity stride) verified or was rebuilt: any
    // earlier detect-only quarantine is healed, so re-admit writes.
    read_only_ = false;
    manager_->set_degraded_reads(false);
  }
  return report;
}

DurabilityStats TiledStore::durability_stats() const {
  DurabilityStats stats = manager_->durability_stats();
  if (journal_) {
    stats.journal_commits += journal_->commits();
    stats.journal_replays += journal_->replays();
    stats.journal_rollbacks += journal_->rollbacks();
    const BufferPool::Stats pool = pool_.stats();
    stats.unjournaled_write_backs +=
        pool.write_backs - pool_.journaled_write_backs();
  }
  stats.read_only = stats.read_only || read_only_;
  return stats;
}

}  // namespace shiftsplit
