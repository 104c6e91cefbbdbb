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
  seq_ = buffer_->published_seq_;
  it_ = buffer_->snapshots_.insert(seq_);
}

DeltaBuffer::Snapshot::~Snapshot() {
  std::lock_guard<std::mutex> lock(buffer_->mu_);
  buffer_->snapshots_.erase(it_);
}

DeltaBuffer::OverlayView::~OverlayView() {
  if (probes_ != 0) {
    buffer_->overlay_probes_.fetch_add(probes_, std::memory_order_relaxed);
  }
  if (hits_ != 0) {
    buffer_->overlay_hits_.fetch_add(hits_, std::memory_order_relaxed);
  }
}

void DeltaBuffer::OverlayView::FoldBlock(uint64_t block,
                                         std::span<const double> stored,
                                         std::span<const uint64_t> slots,
                                         std::span<double> merged) const {
  Fold(block, stored, slots, merged, nullptr);
}

void DeltaBuffer::OverlayView::FoldSkippedBlock(
    uint64_t block, std::span<const uint64_t> slots, std::span<double> merged,
    const std::function<void()>& paired) const {
  Fold(block, {}, slots, merged, &paired);
}

void DeltaBuffer::OverlayView::Fold(
    uint64_t block, std::span<const double> stored,
    std::span<const uint64_t> slots, std::span<double> merged,
    const std::function<void()>* paired) const {
  // The chain fold reads SeqContribution::value straight out of the vector
  // as a strided (AoS) double stream.
  static_assert(sizeof(SeqContribution) == 2 * sizeof(double),
                "SeqContribution must stay 2 doubles wide for the chain fold");
  static_assert(offsetof(SeqContribution, value) == sizeof(uint64_t),
                "SeqContribution::value must sit at the second lane");
  constexpr size_t kStride = sizeof(SeqContribution) / sizeof(double);
  probes_ += slots.size();
  // The stored slots (or, for a skipped block, what `paired` reads) are
  // read inside the stripe section too: the drain swaps a block's frame
  // and moves its energy, and erases its contributions, in one section of
  // this stripe (InstallBlock).
  Stripe& stripe = buffer_->StripeOf(block);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (paired != nullptr) (*paired)();
  const auto block_it = stripe.blocks.find(block);
  for (size_t i = 0; i < slots.size(); ++i) {
    merged[i] = stored.empty() ? 0.0 : stored[slots[i]];
    if (block_it == stripe.blocks.end()) continue;
    const auto slot_it = block_it->second.find(slots[i]);
    if (slot_it == block_it->second.end()) continue;
    // Fold the pending contributions with seq <= snapshot in sequence
    // order — the exact += chain the drain will later run against the
    // stored value. The entries are seq-sorted, so the in-snapshot ones
    // are a prefix. fold_chain_strided is scalar in every dispatch tier by
    // design: a serial dependent sum cannot be vectorized without
    // reassociating it.
    const std::vector<SeqContribution>& pending = slot_it->second;
    const size_t count =
        static_cast<size_t>(UpperBound(pending, snap_) - pending.begin());
    if (count == 0) continue;
    ++hits_;
    merged[i] = kernels::Active().fold_chain_strided(
        merged[i], &pending[0].value, kStride, count);
  }
}

void DeltaBuffer::InsertPlan(std::span<const ChunkBlockOps> plan,
                             uint64_t seq) {
  for (const ChunkBlockOps& block_ops : plan) {
    Stripe& stripe = StripeOf(block_ops.block);
    std::lock_guard<std::mutex> lock(stripe.mu);
    SlotMap& slot_map = stripe.blocks[block_ops.block];
    for (const SlotUpdate& op : block_ops.ops) {
      // kUpdate-mode plans are accumulate-only; each (block, slot) appears
      // at most once per plan, so this seq is new to the slot. Concurrent
      // writers insert in any order, so a later seq may already be there:
      // the insert branch keeps the vector seq-sorted.
      std::vector<SeqContribution>& pending = slot_map[op.slot];
      if (pending.empty() || pending.back().seq < seq) {
        pending.push_back(SeqContribution{seq, op.value});
      } else {
        pending.insert(UpperBound(pending, seq),
                       SeqContribution{seq, op.value});
      }
    }
    slot_entries_.fetch_add(block_ops.ops.size(), std::memory_order_relaxed);
  }
}

void DeltaBuffer::NoteArrivalLocked(std::vector<uint64_t> cell,
                                    uint64_t seq) {
  const auto cell_it = cells_.find(cell);
  if (cell_it != cells_.end()) {
    cell_it->second.last_seq = seq;
    ++coalesced_deltas_;
  } else {
    cells_.emplace(std::move(cell), CellEntry{seq});
  }
  arrivals_.emplace_back(seq, std::chrono::steady_clock::now());
}

void DeltaBuffer::Publish(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  in_flight_.erase(seq);
  published_seq_ = in_flight_.empty() ? last_seq_ : *in_flight_.begin() - 1;
  publish_cv_.notify_all();
  // Read-your-writes: return only once `seq` is visible, i.e. every older
  // write is inserted too. Those writers are past taking their seq and hold
  // no lock this one waits on, so they publish within their insert.
  publish_cv_.wait(lock, [&] { return published_seq_ >= seq; });
}

Status DeltaBuffer::Add(std::span<const uint64_t> coords, double value,
                        std::span<const ChunkBlockOps> plan,
                        OperationContext* ctx, uint64_t* out_seq) {
  std::vector<uint64_t> cell(coords.begin(), coords.end());
  uint64_t seq = 0;
  AddHook hook;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Backpressure: a delta to an already-pending cell coalesces (no new
    // cell entry), so only genuinely new cells wait on a full buffer.
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

    seq = ++last_seq_;
    in_flight_.insert(seq);
    ++acked_deltas_;
    if (log_ != nullptr) {
      // Under mu_, so log file order equals sequence order. Durability
      // (Sync) is the caller's step, outside the buffer.
      DeltaRecord record;
      record.seq = seq;
      record.value = value;
      record.coords = cell;
      log_->Append(record);
    }
    NoteArrivalLocked(std::move(cell), seq);
    hook = add_hook_;
  }
  if (hook) hook(seq);
  InsertPlan(plan, seq);
  Publish(seq);
  if (out_seq != nullptr) *out_seq = seq;
  return Status::OK();
}

void DeltaBuffer::Restore(std::span<const uint64_t> coords, uint64_t seq,
                          std::span<const ChunkBlockOps> plan) {
  InsertPlan(plan, seq);
  std::lock_guard<std::mutex> lock(mu_);
  // Restore runs alone, before any Add: everything restored is published.
  last_seq_ = std::max(last_seq_, seq);
  published_seq_ = last_seq_;
  NoteArrivalLocked(std::vector<uint64_t>(coords.begin(), coords.end()), seq);
}

void DeltaBuffer::InitWatermarks(uint64_t applied_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  applied_seq_ = applied_seq;
  last_seq_ = std::max(last_seq_, applied_seq);
  published_seq_ = last_seq_;
}

std::optional<DeltaBuffer::DrainBatch> DeltaBuffer::BeginDrain() {
  uint64_t upto = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_upto_ != 0) return std::nullopt;  // caller serializes drains
    upto = published_seq_;
    if (!snapshots_.empty()) {
      upto = std::min(upto, *snapshots_.begin());
    }
    if (upto <= applied_seq_) return std::nullopt;
    draining_upto_ = upto;
  }

  // Every seq <= upto is fully inserted and no drain erases beside us, so
  // the stripes can be collected one at a time; writers keep inserting
  // later seqs, which the `c.seq > upto` cut skips.
  DrainBatch batch;
  batch.upto = upto;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [block, slot_map] : stripe.blocks) {
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
  }
  if (batch.blocks.empty()) {
    AbortDrain();
    return std::nullopt;
  }
  std::sort(batch.blocks.begin(), batch.blocks.end(),
            [](const DrainBlock& a, const DrainBlock& b) {
              return a.block < b.block;
            });
  return batch;
}

void DeltaBuffer::InstallBlock(uint64_t block, uint64_t upto,
                               const std::function<void()>& swap) {
  Stripe& stripe = StripeOf(block);
  std::lock_guard<std::mutex> lock(stripe.mu);
  swap();
  const auto block_it = stripe.blocks.find(block);
  if (block_it == stripe.blocks.end()) return;
  SlotMap& slot_map = block_it->second;
  uint64_t erased = 0;
  for (auto slot_it = slot_map.begin(); slot_it != slot_map.end();) {
    auto& contributions = slot_it->second;
    const auto end = UpperBound(contributions, upto);
    erased += static_cast<uint64_t>(std::distance(contributions.cbegin(), end));
    contributions.erase(contributions.cbegin(), end);
    slot_it = contributions.empty() ? slot_map.erase(slot_it) : ++slot_it;
  }
  if (slot_map.empty()) stripe.blocks.erase(block_it);
  slot_entries_.fetch_sub(erased, std::memory_order_relaxed);
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

bool DeltaBuffer::AwaitInFlightWrites(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight_.empty()) return false;
  const uint64_t target = last_seq_;
  return publish_cv_.wait_for(lock, timeout,
                              [&] { return published_seq_ >= target; });
}

void DeltaBuffer::set_add_hook_for_test(AddHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  add_hook_ = std::move(hook);
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

bool DeltaBuffer::OldestPendingOlderThan(
    std::chrono::microseconds age) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (arrivals_.empty()) return false;
  return std::chrono::steady_clock::now() - arrivals_.front().second >= age;
}

void DeltaBuffer::StatsInto(ServingStats* out) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    out->acked_deltas = acked_deltas_;
    out->coalesced_deltas = coalesced_deltas_;
    out->pending_deltas = cells_.size();
    out->rejected_unavailable = rejected_unavailable_;
    out->stall_waits = stall_waits_;
    out->stall_us = stall_us_;
    out->apply_batches = apply_batches_;
    out->applied_deltas = applied_deltas_;
    out->last_seq = last_seq_;
    out->applied_seq = applied_seq_;
  }
  out->pending_slots = slot_entries_.load(std::memory_order_relaxed);
  out->overlay_probes = overlay_probes_.load(std::memory_order_relaxed);
  out->overlay_hits = overlay_hits_.load(std::memory_order_relaxed);
}

}  // namespace shiftsplit
