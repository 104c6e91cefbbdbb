#include "shiftsplit/service/delta_buffer.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "shiftsplit/kernels/kernels.h"

namespace shiftsplit {

std::vector<DeltaBuffer::SeqContribution>::const_iterator
DeltaBuffer::UpperBound(const std::vector<SeqContribution>& pending,
                        uint64_t bound) {
  return std::upper_bound(
      pending.begin(), pending.end(), bound,
      [](uint64_t seq, const SeqContribution& c) { return seq < c.seq; });
}

DeltaBuffer::Snapshot::Snapshot(DeltaBuffer* buffer) : buffer_(buffer) {
  std::lock_guard<std::mutex> lock(buffer_->mu_);
  seq_ = buffer_->last_seq_;
  it_ = buffer_->snapshots_.insert(seq_);
}

DeltaBuffer::Snapshot::~Snapshot() {
  std::lock_guard<std::mutex> lock(buffer_->mu_);
  buffer_->snapshots_.erase(it_);
}

void DeltaBuffer::OverlayView::FoldBlock(uint64_t block,
                                         std::span<const double> stored,
                                         std::span<const uint64_t> slots,
                                         std::span<double> merged) const {
  // The chain fold reads SeqContribution::value straight out of the vector
  // as a strided (AoS) double stream.
  static_assert(sizeof(SeqContribution) == 2 * sizeof(double),
                "SeqContribution must stay 2 doubles wide for the chain fold");
  static_assert(offsetof(SeqContribution, value) == sizeof(uint64_t),
                "SeqContribution::value must sit at the second lane");
  constexpr size_t kStride = sizeof(SeqContribution) / sizeof(double);
  std::lock_guard<std::mutex> lock(buffer_->mu_);
  buffer_->overlay_probes_ += slots.size();
  const auto block_it = buffer_->slots_.find(block);
  for (size_t i = 0; i < slots.size(); ++i) {
    merged[i] = stored.empty() ? 0.0 : stored[slots[i]];
    if (block_it == buffer_->slots_.end()) continue;
    const auto slot_it = block_it->second.find(slots[i]);
    if (slot_it == block_it->second.end()) continue;
    // Fold the pending contributions with seq <= snapshot in sequence order
    // — the exact += chain the drain will later run against the stored
    // value. The entries are seq-sorted, so the in-snapshot ones are a
    // prefix. fold_chain_strided is scalar in every dispatch tier by
    // design: a serial dependent sum cannot be vectorized without
    // reassociating it.
    const std::vector<SeqContribution>& pending = slot_it->second;
    const size_t count =
        static_cast<size_t>(UpperBound(pending, snap_) - pending.begin());
    if (count == 0) continue;
    ++buffer_->overlay_hits_;
    merged[i] = kernels::Active().fold_chain_strided(
        merged[i], &pending[0].value, kStride, count);
  }
}

void DeltaBuffer::InsertPlanLocked(std::span<const ChunkBlockOps> plan,
                                   uint64_t seq) {
  for (const ChunkBlockOps& block_ops : plan) {
    auto& slot_map = slots_[block_ops.block];
    for (const SlotUpdate& op : block_ops.ops) {
      // kUpdate-mode plans are accumulate-only; each (block, slot) appears
      // at most once per plan, so this seq is new to the slot. Sequence
      // numbers arrive ascending (Restore runs in log order before any
      // Add), so appending keeps the vector sorted; the insert branch only
      // defends against an out-of-order restore.
      auto& pending = slot_map[op.slot];
      if (pending.empty() || pending.back().seq < seq) {
        pending.push_back(SeqContribution{seq, op.value});
      } else {
        pending.insert(UpperBound(pending, seq),
                       SeqContribution{seq, op.value});
      }
      ++slot_entries_;
    }
  }
}

Status DeltaBuffer::Add(std::span<const uint64_t> coords, double value,
                        std::span<const ChunkBlockOps> plan,
                        OperationContext* ctx, uint64_t* out_seq) {
  std::vector<uint64_t> cell(coords.begin(), coords.end());
  std::unique_lock<std::mutex> lock(mu_);
  // Backpressure: a delta to an already-pending cell coalesces (no new cell
  // entry), so only genuinely new cells wait on a full buffer.
  const auto full = [this, &cell]() {
    return cells_.size() >= config_.max_pending_deltas &&
           cells_.find(cell) == cells_.end();
  };
  if (full()) {
    ++stall_waits_;
    const auto wait_start = std::chrono::steady_clock::now();
    if (ctx != nullptr && ctx->has_deadline()) {
      cv_.wait_until(lock, ctx->deadline(), [&] { return !full(); });
    } else {
      cv_.wait(lock, [&] { return !full(); });
    }
    stall_us_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
    if (full()) {
      ++rejected_unavailable_;
      return Status::Unavailable(
          "delta buffer full: maintenance is not keeping up");
    }
  }

  const uint64_t seq = ++last_seq_;
  InsertPlanLocked(plan, seq);
  const auto cell_it = cells_.find(cell);
  if (cell_it != cells_.end()) {
    cell_it->second.last_seq = seq;
    ++coalesced_deltas_;
  } else {
    cells_.emplace(std::move(cell), CellEntry{seq});
  }
  arrivals_.emplace_back(seq, std::chrono::steady_clock::now());
  ++acked_deltas_;
  if (log_ != nullptr) {
    // Under mu_, so log file order equals sequence order. Durability (Sync)
    // is the caller's step, outside the buffer lock.
    DeltaRecord record;
    record.seq = seq;
    record.value = value;
    record.coords.assign(coords.begin(), coords.end());
    log_->Append(record);
  }
  if (out_seq != nullptr) *out_seq = seq;
  return Status::OK();
}

void DeltaBuffer::Restore(std::span<const uint64_t> coords, uint64_t seq,
                          std::span<const ChunkBlockOps> plan) {
  std::vector<uint64_t> cell(coords.begin(), coords.end());
  std::lock_guard<std::mutex> lock(mu_);
  if (seq > last_seq_) last_seq_ = seq;
  InsertPlanLocked(plan, seq);
  const auto cell_it = cells_.find(cell);
  if (cell_it != cells_.end()) {
    cell_it->second.last_seq = seq;
    ++coalesced_deltas_;
  } else {
    cells_.emplace(std::move(cell), CellEntry{seq});
  }
  arrivals_.emplace_back(seq, std::chrono::steady_clock::now());
}

void DeltaBuffer::InitWatermarks(uint64_t applied_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  applied_seq_ = applied_seq;
  if (last_seq_ < applied_seq) last_seq_ = applied_seq;
}

std::optional<DeltaBuffer::DrainBatch> DeltaBuffer::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_upto_ != 0) return std::nullopt;  // caller serializes drains
  uint64_t upto = last_seq_;
  if (!snapshots_.empty()) {
    upto = std::min(upto, *snapshots_.begin());
  }
  if (upto <= applied_seq_) return std::nullopt;

  DrainBatch batch;
  batch.upto = upto;
  batch.block_ids.reserve(slots_.size());
  for (const auto& [block, slot_map] : slots_) {
    (void)slot_map;
    batch.block_ids.push_back(block);
  }
  std::sort(batch.block_ids.begin(), batch.block_ids.end());
  for (const uint64_t block : batch.block_ids) {
    const auto& slot_map = slots_.at(block);
    DrainBlock out;
    out.block = block;
    std::vector<uint64_t> slot_ids;
    slot_ids.reserve(slot_map.size());
    for (const auto& [slot, contributions] : slot_map) {
      (void)contributions;
      slot_ids.push_back(slot);
    }
    std::sort(slot_ids.begin(), slot_ids.end());
    for (const uint64_t slot : slot_ids) {
      // Individual contributions in sequence order, NOT pre-summed: the
      // store must run the same += chain the overlay advertised.
      for (const SeqContribution& c : slot_map.at(slot)) {
        if (c.seq > upto) break;
        out.ops.push_back(SlotUpdate{slot, c.value, /*overwrite=*/false});
      }
    }
    if (!out.ops.empty()) batch.blocks.push_back(std::move(out));
  }
  // Re-derive the id list from blocks that actually had drainable ops.
  batch.block_ids.clear();
  for (const DrainBlock& block : batch.blocks) {
    batch.block_ids.push_back(block.block);
  }
  if (batch.blocks.empty()) return std::nullopt;
  draining_upto_ = upto;
  return batch;
}

void DeltaBuffer::EraseBlockPrefix(uint64_t block, uint64_t upto) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto block_it = slots_.find(block);
  if (block_it == slots_.end()) return;
  auto& slot_map = block_it->second;
  for (auto slot_it = slot_map.begin(); slot_it != slot_map.end();) {
    auto& contributions = slot_it->second;
    const auto end = UpperBound(contributions, upto);
    slot_entries_ -= static_cast<uint64_t>(
        std::distance(contributions.cbegin(), end));
    contributions.erase(contributions.cbegin(), end);
    slot_it = contributions.empty() ? slot_map.erase(slot_it) : ++slot_it;
  }
  if (slot_map.empty()) slots_.erase(block_it);
}

void DeltaBuffer::FinishDrain(uint64_t upto) {
  std::lock_guard<std::mutex> lock(mu_);
  applied_seq_ = upto;
  for (auto it = cells_.begin(); it != cells_.end();) {
    it = it->second.last_seq <= upto ? cells_.erase(it) : ++it;
  }
  uint64_t applied = 0;
  while (!arrivals_.empty() && arrivals_.front().first <= upto) {
    arrivals_.pop_front();
    ++applied;
  }
  applied_deltas_ += applied;
  ++apply_batches_;
  draining_upto_ = 0;
  cv_.notify_all();
}

void DeltaBuffer::AbortDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_upto_ = 0;
  cv_.notify_all();
}

Status DeltaBuffer::TruncateLogIfIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_ == nullptr) return Status::OK();
  if (applied_seq_ != last_seq_ || draining_upto_ != 0) return Status::OK();
  return log_->Truncate();
}

uint64_t DeltaBuffer::pending_deltas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

uint64_t DeltaBuffer::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

uint64_t DeltaBuffer::applied_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_seq_;
}

uint64_t DeltaBuffer::pending_slot_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slot_entries_;
}

bool DeltaBuffer::OldestPendingOlderThan(
    std::chrono::microseconds age) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (arrivals_.empty()) return false;
  return std::chrono::steady_clock::now() - arrivals_.front().second >= age;
}

void DeltaBuffer::StatsInto(ServingStats* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->acked_deltas = acked_deltas_;
  out->coalesced_deltas = coalesced_deltas_;
  out->pending_deltas = cells_.size();
  out->pending_slots = slot_entries_;
  out->rejected_unavailable = rejected_unavailable_;
  out->stall_waits = stall_waits_;
  out->stall_us = stall_us_;
  out->apply_batches = apply_batches_;
  out->applied_deltas = applied_deltas_;
  out->overlay_probes = overlay_probes_;
  out->overlay_hits = overlay_hits_;
  out->last_seq = last_seq_;
  out->applied_seq = applied_seq_;
}

}  // namespace shiftsplit
