#include "shiftsplit/storage/file_block_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "shiftsplit/util/crc32c.h"

namespace shiftsplit {

namespace {

std::string Errno(const std::string& prefix) {
  return prefix + ": " + std::strerror(errno);
}

// True iff blocks * stride_bytes overflows uint64_t or exceeds what ::pread /
// ::pwrite / ::ftruncate can address through a (signed) off_t byte offset.
bool ByteSizeOverflows(uint64_t blocks, uint64_t stride_bytes) {
  if (stride_bytes != 0 &&
      blocks > std::numeric_limits<uint64_t>::max() / stride_bytes) {
    return true;
  }
  const uint64_t bytes = blocks * stride_bytes;
  return bytes > static_cast<uint64_t>(std::numeric_limits<off_t>::max());
}

// Per-block integrity footer (checksummed format only). An all-zero footer
// marks a never-written block, whose payload must also be all zero.
constexpr uint32_t kFooterMagic = 0x53534246u;  // "FBSS"
constexpr uint64_t kFooterBytes = 16;

struct BlockFooter {
  uint32_t magic = 0;
  uint32_t crc = 0;
  uint64_t epoch = 0;
};
static_assert(sizeof(BlockFooter) == kFooterBytes,
              "footer must be exactly 16 bytes");

bool AllZero(const char* data, uint64_t bytes) {
  for (uint64_t i = 0; i < bytes; ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}

// Verifies a payload against its footer and `epoch`: a structurally valid
// footer whose CRC matches the payload, or the all-zero never-written
// pattern.
bool FooterValid(const char* payload, uint64_t payload_bytes,
                 const BlockFooter& footer, uint64_t epoch) {
  if (footer.magic == 0 && footer.crc == 0 && footer.epoch == 0) {
    return AllZero(payload, payload_bytes);
  }
  return footer.magic == kFooterMagic &&
         footer.crc == Crc32c(payload, payload_bytes) && footer.epoch == epoch;
}

// FooterValid for one stride image (payload followed by its footer).
bool StrideValid(const char* raw, uint64_t payload_bytes, uint64_t epoch) {
  BlockFooter footer;
  std::memcpy(&footer, raw + payload_bytes, kFooterBytes);
  return FooterValid(raw, payload_bytes, footer, epoch);
}

void XorBytes(char* acc, const char* src, uint64_t bytes) {
  for (uint64_t i = 0; i < bytes; ++i) acc[i] ^= src[i];
}

// Blocks per scratch chunk on the checksummed vectored-read path: bounds the
// staging buffer while keeping runs down to few syscalls.
constexpr uint64_t kReadRunChunk = 64;

}  // namespace

FileBlockManager::FileBlockManager(std::string path, int fd, int parity_fd,
                                   uint64_t block_size, uint64_t num_blocks,
                                   const Options& options)
    : path_(std::move(path)),
      fd_(fd),
      parity_fd_(parity_fd),
      block_size_(block_size),
      num_blocks_(num_blocks),
      checksums_(options.checksums),
      epoch_(options.epoch),
      degraded_reads_(options.degraded_reads),
      parity_group_(options.parity_group),
      retry_(RetryPolicy{options.retry_attempts, options.retry_backoff_us,
                         std::max<uint32_t>(options.retry_backoff_us,
                                            100'000u),
                         0.5}),
      jitter_state_(0x5353424du ^ block_size) {}  // "SSBM" ^ geometry

void FileBlockManager::BackoffRetry(uint32_t attempt) {
  io_retries_.fetch_add(1, std::memory_order_relaxed);
  uint64_t delay_us = 0;
  {
    std::lock_guard<std::mutex> lock(retry_mu_);
    delay_us = BackoffDelayUs(retry_, attempt, &jitter_state_);
  }
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
}

uint64_t FileBlockManager::stride() const {
  return block_size_ * sizeof(double) + (checksums_ ? kFooterBytes : 0);
}

uint64_t FileBlockManager::NumParityBlocks() const {
  if (parity_group_ == 0) return 0;
  return (num_blocks_ + parity_group_ - 1) / parity_group_;
}

Result<std::unique_ptr<FileBlockManager>> FileBlockManager::Open(
    const std::string& path, uint64_t block_size, const Options& options) {
  if (block_size == 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  if (block_size >
      (std::numeric_limits<uint64_t>::max() - kFooterBytes) /
          sizeof(double)) {
    return Status::InvalidArgument("block byte size overflows uint64_t");
  }
  if (options.parity_group > 0 && !options.checksums) {
    return Status::InvalidArgument("parity groups require checksums");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(Errno("open " + path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(Errno("fstat " + path));
  }
  const uint64_t stride_bytes =
      block_size * sizeof(double) + (options.checksums ? kFooterBytes : 0);
  if (static_cast<uint64_t>(st.st_size) % stride_bytes != 0) {
    ::close(fd);
    return Status::InvalidArgument(
        "existing file size is not a multiple of the block stride (was the "
        "store written with a different checksum setting?)");
  }
  const uint64_t num_blocks =
      static_cast<uint64_t>(st.st_size) / stride_bytes;
  int parity_fd = -1;
  if (options.parity_group > 0) {
    const std::string parity_path = path + ".parity";
    parity_fd =
        ::open(parity_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (parity_fd < 0) {
      ::close(fd);
      return Status::IOError(Errno("open " + parity_path));
    }
    struct stat pst;
    if (::fstat(parity_fd, &pst) != 0) {
      ::close(fd);
      ::close(parity_fd);
      return Status::IOError(Errno("fstat " + parity_path));
    }
    if (static_cast<uint64_t>(pst.st_size) % stride_bytes != 0) {
      ::close(fd);
      ::close(parity_fd);
      return Status::InvalidArgument(
          "parity sidecar size is not a multiple of the block stride");
    }
    const uint64_t groups =
        (num_blocks + options.parity_group - 1) / options.parity_group;
    const uint64_t expected = groups * stride_bytes;
    if (static_cast<uint64_t>(pst.st_size) < expected &&
        ::ftruncate(parity_fd, static_cast<off_t>(expected)) != 0) {
      ::close(fd);
      ::close(parity_fd);
      return Status::IOError(Errno("ftruncate " + parity_path));
    }
  }
  return std::unique_ptr<FileBlockManager>(new FileBlockManager(
      path, fd, parity_fd, block_size, num_blocks, options));
}

FileBlockManager::~FileBlockManager() {
  if (fd_ >= 0) ::close(fd_);
  if (parity_fd_ >= 0) ::close(parity_fd_);
}

Status FileBlockManager::Resize(uint64_t num_blocks) {
  if (num_blocks < num_blocks_) {
    return Status::InvalidArgument("block devices only grow");
  }
  if (ByteSizeOverflows(num_blocks, stride())) {
    return Status::InvalidArgument(
        "resize to " + std::to_string(num_blocks) +
        " blocks overflows the addressable byte range");
  }
  const uint64_t bytes = num_blocks * stride();
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    return Status::IOError(Errno("ftruncate " + path_));
  }
  num_blocks_ = num_blocks;
  if (parity_fd_ >= 0) {
    // Zero-extended parity strides are exactly right for the zero-extended
    // data tail (XOR of zeros is zero).
    const uint64_t parity_bytes = NumParityBlocks() * stride();
    if (::ftruncate(parity_fd_, static_cast<off_t>(parity_bytes)) != 0) {
      return Status::IOError(Errno("ftruncate " + path_ + ".parity"));
    }
  }
  return Status::OK();
}

Status FileBlockManager::ReadVecFd(int fd, uint64_t offset,
                                   struct iovec* parts, int count) {
  uint32_t attempt = 0;
  for (;;) {
    while (count > 0 && parts->iov_len == 0) {
      ++parts;
      --count;
    }
    if (count == 0) return Status::OK();
    const ssize_t r = ::preadv(fd, parts, count, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN && attempt < retry_.max_retries) {
        BackoffRetry(attempt++);
        continue;
      }
      return Status::IOError(Errno("pread " + path_));
    }
    if (r == 0) {
      // Sparse tail (ftruncate-extended): remaining bytes read as zero.
      for (int i = 0; i < count; ++i) {
        std::memset(parts[i].iov_base, 0, parts[i].iov_len);
      }
      return Status::OK();
    }
    // A short read: skip what it filled and read on from there.
    offset += static_cast<uint64_t>(r);
    for (uint64_t done = static_cast<uint64_t>(r); done > 0;) {
      const uint64_t take = std::min<uint64_t>(done, parts->iov_len);
      parts->iov_base = static_cast<char*>(parts->iov_base) + take;
      parts->iov_len -= take;
      done -= take;
      if (parts->iov_len == 0) {
        ++parts;
        --count;
      }
    }
  }
}

Status FileBlockManager::ReadRawFd(int fd, uint64_t offset, char* dst,
                                   uint64_t bytes) {
  struct iovec part = {dst, static_cast<size_t>(bytes)};
  return ReadVecFd(fd, offset, &part, 1);
}

Status FileBlockManager::WriteRawFd(int fd, uint64_t offset, const char* src,
                                    uint64_t bytes) {
  uint64_t done = 0;
  uint32_t attempt = 0;
  while (done < bytes) {
    const ssize_t w = ::pwrite(fd, src + done, bytes - done,
                               static_cast<off_t>(offset + done));
    if (w > 0) {
      done += static_cast<uint64_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    // A zero-byte write (disk full / quota edge) or EAGAIN may be
    // transient: back off a bounded number of times before giving up.
    if ((w == 0 || errno == EAGAIN) && attempt < retry_.max_retries) {
      BackoffRetry(attempt++);
      continue;
    }
    if (w == 0) {
      return Status::IOError("pwrite " + path_ + ": wrote 0 bytes after " +
                             std::to_string(retry_.max_retries) + " retries");
    }
    return Status::IOError(Errno("pwrite " + path_));
  }
  return Status::OK();
}

Status FileBlockManager::WritePayloadImage(int fd, uint64_t index,
                                           const char* payload) {
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  std::vector<char> image(stride());
  std::memcpy(image.data(), payload, payload_bytes);
  BlockFooter footer;
  footer.magic = kFooterMagic;
  footer.crc = Crc32c(image.data(), payload_bytes);
  footer.epoch = epoch_;
  std::memcpy(image.data() + payload_bytes, &footer, kFooterBytes);
  return WriteRawFd(fd, index * stride(), image.data(), stride());
}

void FileBlockManager::QuarantineLocked(uint64_t id) {
  quarantined_.insert(id);
  quarantined_count_.store(quarantined_.size(), std::memory_order_relaxed);
}

void FileBlockManager::ClearQuarantineLocked(uint64_t id) {
  if (quarantined_.erase(id) != 0) {
    quarantined_count_.store(quarantined_.size(), std::memory_order_relaxed);
  }
}

void FileBlockManager::ClearQuarantine(uint64_t id) {
  // Only a call on this very block could quarantine it concurrently, which
  // the distinct-blocks contract rules out.
  if (quarantined_count_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ClearQuarantineLocked(id);
}

Status FileBlockManager::ParityPayloadLocked(uint64_t group, char* out) {
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  const auto it = parity_dirty_.find(group);
  if (it != parity_dirty_.end()) {
    std::memcpy(out, it->second.data(), payload_bytes);
    return Status::OK();
  }
  std::vector<char> raw(stride());
  SS_RETURN_IF_ERROR(
      ReadRawFd(parity_fd_, group * stride(), raw.data(), stride()));
  ++durability_.parity_reads;
  if (!StrideValid(raw.data(), payload_bytes, epoch_)) {
    return Status::ChecksumMismatch(
        "parity block for group " + std::to_string(group) +
        " failed checksum verification in " + path_ + ".parity");
  }
  std::memcpy(out, raw.data(), payload_bytes);
  return Status::OK();
}

Status FileBlockManager::ReconstructPayloadLocked(uint64_t id,
                                                  const char* corrupt_raw,
                                                  char* out) {
  if (parity_group_ == 0) {
    return Status::ChecksumMismatch("block " + std::to_string(id) +
                                    " is corrupt and the store has no "
                                    "parity to rebuild it from");
  }
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  const uint64_t group = id / parity_group_;
  if (parity_planned_.contains(group)) {
    // The staged parity is the post-commit image, while the commit's
    // in-place writes may be half done: it matches neither the old nor the
    // new sibling payloads. The block heals once the commit lands.
    return Status::ChecksumMismatch(
        "block " + std::to_string(id) + " is corrupt and parity group " +
        std::to_string(group) + " of " + path_ +
        " is mid-commit; it can be rebuilt once the commit lands");
  }
  std::vector<char> acc(payload_bytes);
  SS_RETURN_IF_ERROR(ParityPayloadLocked(group, acc.data()));
  const uint64_t lo = group * parity_group_;
  const uint64_t hi = std::min(num_blocks_, lo + parity_group_);
  std::vector<char> sibling(stride());
  for (uint64_t member = lo; member < hi; ++member) {
    if (member == id) continue;
    SS_RETURN_IF_ERROR(
        ReadRaw(member * stride(), sibling.data(), stride()));
    if (!StrideValid(sibling.data(), payload_bytes, epoch_)) {
      return Status::ChecksumMismatch(
          "double fault: blocks " + std::to_string(id) + " and " +
          std::to_string(member) + " are both corrupt in parity group " +
          std::to_string(group) + " of " + path_);
    }
    XorBytes(acc.data(), sibling.data(), payload_bytes);
  }
  // When the corrupt stride still carries a structurally intact footer, the
  // payload (not the footer) took the hit — the reconstruction must match
  // the originally stored CRC. A mismatch means the parity chain itself is
  // inconsistent, which is as unrepairable as a double fault. A destroyed
  // footer leaves nothing to cross-check; the candidate is accepted on the
  // strength of the chain's own verified CRCs.
  BlockFooter footer;
  std::memcpy(&footer, corrupt_raw + payload_bytes, kFooterBytes);
  if (footer.magic == kFooterMagic && footer.epoch == epoch_ &&
      footer.crc != Crc32c(acc.data(), payload_bytes)) {
    return Status::ChecksumMismatch(
        "parity reconstruction of block " + std::to_string(id) +
        " does not match its stored checksum in " + path_);
  }
  std::memcpy(out, acc.data(), payload_bytes);
  return Status::OK();
}

Status FileBlockManager::RepairBlockLocked(uint64_t id,
                                           const char* corrupt_raw,
                                           std::span<double> out) {
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  std::vector<char> payload(payload_bytes);
  const Status rebuilt =
      ReconstructPayloadLocked(id, corrupt_raw, payload.data());
  if (!rebuilt.ok()) {
    ++durability_.unrepairable_blocks;
    return rebuilt;
  }
  // Rewrite in place. Parity stays untouched: it already agrees with the
  // reconstructed payload (that is where it came from).
  SS_RETURN_IF_ERROR(WritePayloadImage(fd_, id, payload.data()));
  ClearQuarantineLocked(id);
  ++durability_.repaired_blocks;
  std::memcpy(out.data(), payload.data(), payload_bytes);
  return Status::OK();
}

Status FileBlockManager::VerifyInto(uint64_t id, const char* raw,
                                    std::span<double> out, VerifyMode mode) {
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  if (StrideValid(raw, payload_bytes, epoch_)) {
    ClearQuarantine(id);
    std::memcpy(out.data(), raw, payload_bytes);
    return Status::OK();
  }
  return VerifyFailed(id, raw, out, mode);
}

Status FileBlockManager::VerifyFailed(uint64_t id, const char* raw,
                                      std::span<double> out, VerifyMode mode) {
  // Repairs serialize on mu_, so one rebuild reads a parity group no other
  // repair is rewriting.
  std::lock_guard<std::mutex> lock(mu_);
  ++durability_.checksum_failures;
  if (mode == VerifyMode::kServe && parity_group_ > 0 &&
      RepairBlockLocked(id, raw, out).ok()) {
    return Status::OK();  // healed inline; the caller sees a clean read
  }
  QuarantineLocked(id);
  if (mode == VerifyMode::kServe && degraded_reads_) {
    ++durability_.zero_filled_reads;
    std::fill(out.begin(), out.end(), 0.0);
    return Status::OK();
  }
  return Status::ChecksumMismatch("block " + std::to_string(id) +
                                  " failed checksum verification in " +
                                  path_);
}

Status FileBlockManager::ReadBlock(uint64_t id, std::span<double> out) {
  if (out.size() != block_size_) {
    return Status::InvalidArgument("read buffer size != block size");
  }
  if (id >= kParityIdBase) {
    if (parity_group_ == 0) {
      return Status::OutOfRange("parity block id on a store without parity");
    }
    const uint64_t group = id - kParityIdBase;
    if (group >= NumParityBlocks()) {
      return Status::OutOfRange("parity group beyond device size");
    }
    std::lock_guard<std::mutex> lock(mu_);
    return ParityPayloadLocked(group, reinterpret_cast<char*>(out.data()));
  }
  if (id >= num_blocks_) {
    return Status::OutOfRange("block id beyond device size");
  }
  ++stats_.block_reads;
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  char* payload = reinterpret_cast<char*>(out.data());
  if (!checksums_) return ReadRaw(id * stride(), payload, payload_bytes);
  // The payload lands in `out` and the footer beside it, in one preadv, and
  // is verified in place: a clean read makes no copy.
  BlockFooter footer;
  struct iovec parts[] = {{payload, static_cast<size_t>(payload_bytes)},
                          {&footer, static_cast<size_t>(kFooterBytes)}};
  SS_RETURN_IF_ERROR(ReadVecFd(fd_, id * stride(), parts, 2));
  if (FooterValid(payload, payload_bytes, footer, epoch_)) {
    ClearQuarantine(id);
    return Status::OK();
  }
  // Only the failure path (repair, quarantine) needs the raw stride.
  std::vector<char> raw(stride());
  std::memcpy(raw.data(), payload, payload_bytes);
  std::memcpy(raw.data() + payload_bytes, &footer, kFooterBytes);
  return VerifyFailed(id, raw.data(), out, VerifyMode::kServe);
}

Status FileBlockManager::ReadBlocks(std::span<const uint64_t> ids,
                                    std::span<double> out) {
  const uint64_t block_bytes = block_size_ * sizeof(double);
  if (out.size() != ids.size() * block_size_) {
    return Status::InvalidArgument("read buffer size != ids * block size");
  }
  for (uint64_t id : ids) {
    if (id >= num_blocks_) {
      return Status::OutOfRange("block id beyond device size");
    }
  }
  if (checksums_) {
    // Runs of consecutive ids are read through a bounded staging buffer
    // (footers are interleaved with payloads on disk), then verified and
    // stripped block by block.
    std::vector<char> staging;
    size_t i = 0;
    while (i < ids.size()) {
      size_t j = i + 1;
      while (j < ids.size() && ids[j] == ids[j - 1] + 1 &&
             j - i < kReadRunChunk) {
        ++j;
      }
      const uint64_t run = j - i;
      staging.resize(run * stride());
      SS_RETURN_IF_ERROR(
          ReadRaw(ids[i] * stride(), staging.data(), run * stride()));
      for (uint64_t k = 0; k < run; ++k) {
        SS_RETURN_IF_ERROR(
            VerifyInto(ids[i + k], staging.data() + k * stride(),
                       out.subspan((i + k) * block_size_, block_size_),
                       VerifyMode::kServe));
      }
      stats_.block_reads += run;
      i = j;
    }
    return Status::OK();
  }
  char* base = reinterpret_cast<char*>(out.data());
  size_t i = 0;
  while (i < ids.size()) {
    // Maximal run of consecutive ids: one contiguous read.
    size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[j - 1] + 1) ++j;
    SS_RETURN_IF_ERROR(ReadRaw(ids[i] * block_bytes, base + i * block_bytes,
                               (j - i) * block_bytes));
    stats_.block_reads += j - i;
    i = j;
  }
  return Status::OK();
}

Status FileBlockManager::XorOldNewLocked(uint64_t id, const char* new_payload,
                                         char* group_image) {
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  std::vector<char> old_raw(stride());
  SS_RETURN_IF_ERROR(ReadRaw(id * stride(), old_raw.data(), stride()));
  const char* old_payload = old_raw.data();
  std::vector<char> rebuilt;
  if (!StrideValid(old_raw.data(), payload_bytes, epoch_)) {
    // Folding a corrupt old payload into parity would poison the whole
    // group's reconstruction chain. Rebuild the true old payload from
    // parity first — the overwrite about to happen heals the block; a
    // double fault fails the write instead.
    ++durability_.checksum_failures;
    rebuilt.resize(payload_bytes);
    const Status rec =
        ReconstructPayloadLocked(id, old_raw.data(), rebuilt.data());
    if (!rec.ok()) {
      ++durability_.unrepairable_blocks;
      QuarantineLocked(id);
      return rec;
    }
    ++durability_.repaired_blocks;
    old_payload = rebuilt.data();
  }
  for (uint64_t i = 0; i < payload_bytes; ++i) {
    group_image[i] ^= old_payload[i] ^ new_payload[i];
  }
  return Status::OK();
}

Status FileBlockManager::WriteBlock(uint64_t id, std::span<const double> data) {
  if (data.size() != block_size_) {
    return Status::InvalidArgument("write buffer size != block size");
  }
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  if (id >= kParityIdBase) {
    // Absolute parity image (journal replay, or an explicit rebuild): goes
    // straight to the sidecar and supersedes any staged state.
    if (parity_group_ == 0) {
      return Status::OutOfRange("parity block id on a store without parity");
    }
    const uint64_t group = id - kParityIdBase;
    if (group >= NumParityBlocks()) {
      return Status::OutOfRange("parity group beyond device size");
    }
    std::lock_guard<std::mutex> lock(mu_);
    SS_RETURN_IF_ERROR(WritePayloadImage(
        parity_fd_, group, reinterpret_cast<const char*>(data.data())));
    ++durability_.parity_writes;
    parity_dirty_.erase(group);
    parity_planned_.erase(group);
    return Status::OK();
  }
  if (id >= num_blocks_) {
    return Status::OutOfRange("block id beyond device size");
  }
  ++stats_.block_writes;
  if (!checksums_) {
    return WriteRaw(id * stride(),
                    reinterpret_cast<const char*>(data.data()),
                    payload_bytes);
  }
  if (parity_group_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t group = id / parity_group_;
    if (!parity_replay_ && !parity_planned_.contains(group)) {
      // Incremental maintenance: parity' = parity ⊕ old ⊕ new, staged in
      // memory and persisted by Sync(). Planned groups already carry their
      // absolute post-commit image (PlanParityCommit); replay writes parity
      // absolutely from the journal record.
      auto it = parity_dirty_.find(group);
      if (it == parity_dirty_.end()) {
        std::vector<char> image(payload_bytes);
        SS_RETURN_IF_ERROR(ParityPayloadLocked(group, image.data()));
        it = parity_dirty_.emplace(group, std::move(image)).first;
      }
      SS_RETURN_IF_ERROR(XorOldNewLocked(
          id, reinterpret_cast<const char*>(data.data()), it->second.data()));
    }
  }
  SS_RETURN_IF_ERROR(WritePayloadImage(
      fd_, id, reinterpret_cast<const char*>(data.data())));
  ClearQuarantine(id);  // a rewrite heals a quarantined block
  return Status::OK();
}

Result<std::vector<ParityBlockImage>> FileBlockManager::PlanParityCommit(
    std::span<const BlockWrite> writes) {
  std::vector<ParityBlockImage> plan;
  if (parity_group_ == 0) return plan;
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  std::lock_guard<std::mutex> lock(mu_);
  // Fold every write's old ⊕ new into its group image, starting from the
  // effective (staged-or-on-disk) parity — the device is untouched, so
  // reconstruction of corrupt old payloads still sees a consistent chain.
  std::map<uint64_t, std::vector<char>> images;
  for (const BlockWrite& write : writes) {
    if (write.block_id >= kParityIdBase) continue;
    if (write.block_id >= num_blocks_) {
      return Status::OutOfRange("planned write beyond device size");
    }
    if (write.data.size() != block_size_) {
      return Status::InvalidArgument("planned write size != block size");
    }
    const uint64_t group = write.block_id / parity_group_;
    auto it = images.find(group);
    if (it == images.end()) {
      std::vector<char> image(payload_bytes);
      SS_RETURN_IF_ERROR(ParityPayloadLocked(group, image.data()));
      it = images.emplace(group, std::move(image)).first;
    }
    SS_RETURN_IF_ERROR(
        XorOldNewLocked(write.block_id,
                        reinterpret_cast<const char*>(write.data.data()),
                        it->second.data()));
  }
  // Stage: the images become the pending parity of their groups, the
  // write-backs of exactly this batch skip incremental work, and the next
  // Sync() persists them.
  for (auto& [group, image] : images) {
    ParityBlockImage staged;
    staged.block_id = kParityIdBase + group;
    staged.data.resize(block_size_);
    std::memcpy(staged.data.data(), image.data(), payload_bytes);
    plan.push_back(std::move(staged));
    parity_planned_.insert(group);
    parity_dirty_[group] = std::move(image);
  }
  return plan;
}

Status FileBlockManager::FlushParityDirtyLocked() {
  for (const auto& [group, image] : parity_dirty_) {
    SS_RETURN_IF_ERROR(WritePayloadImage(parity_fd_, group, image.data()));
    ++durability_.parity_writes;
  }
  parity_dirty_.clear();
  parity_planned_.clear();
  return Status::OK();
}

Status FileBlockManager::Sync() {
  if (parity_fd_ >= 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      SS_RETURN_IF_ERROR(FlushParityDirtyLocked());
    }
    if (::fsync(parity_fd_) != 0) {
      return Status::IOError(Errno("fsync " + path_ + ".parity"));
    }
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(Errno("fsync " + path_));
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> FileBlockManager::Scrub() {
  std::vector<uint64_t> corrupt;
  if (!checksums_) return corrupt;
  std::vector<double> payload(block_size_);
  std::vector<char> raw(stride());
  for (uint64_t id = 0; id < num_blocks_; ++id) {
    SS_RETURN_IF_ERROR(ReadRaw(id * stride(), raw.data(), stride()));
    ++stats_.block_reads;
    // Report mode: scrubbing reports, it never masks (degraded zero-fill)
    // and never mutates the store (no inline repair).
    const Status verified =
        VerifyInto(id, raw.data(), payload, VerifyMode::kReport);
    if (!verified.ok()) {
      if (verified.code() != StatusCode::kChecksumMismatch) return verified;
      corrupt.push_back(id);
    }
  }
  return corrupt;
}

Result<ScrubReport> FileBlockManager::ScrubRepair() {
  ScrubReport report;
  if (!checksums_) return report;
  const uint64_t payload_bytes = block_size_ * sizeof(double);
  std::vector<double> payload(block_size_);
  std::vector<char> raw(stride());
  std::vector<char> group_xor(parity_group_ > 0 ? payload_bytes : 0);
  bool group_intact = true;
  bool wrote = false;
  for (uint64_t id = 0; id < num_blocks_; ++id) {
    if (parity_group_ > 0 && id % parity_group_ == 0) {
      std::fill(group_xor.begin(), group_xor.end(), 0);
      group_intact = true;
    }
    SS_RETURN_IF_ERROR(ReadRaw(id * stride(), raw.data(), stride()));
    ++stats_.block_reads;
    const Status verified =
        VerifyInto(id, raw.data(), payload, VerifyMode::kReport);
    std::unique_lock<std::mutex> lock(mu_);
    if (verified.ok()) {
      if (parity_group_ > 0) {
        XorBytes(group_xor.data(),
                 reinterpret_cast<const char*>(payload.data()),
                 payload_bytes);
      }
    } else if (verified.code() != StatusCode::kChecksumMismatch) {
      return verified;
    } else if (parity_group_ > 0 &&
               RepairBlockLocked(id, raw.data(), payload).ok()) {
      report.repaired.push_back(id);
      wrote = true;
      XorBytes(group_xor.data(),
               reinterpret_cast<const char*>(payload.data()), payload_bytes);
    } else {
      if (parity_group_ == 0) ++durability_.unrepairable_blocks;
      report.unrepairable.push_back(id);
      group_intact = false;
    }
    if (parity_group_ > 0 &&
        (id % parity_group_ == parity_group_ - 1 || id == num_blocks_ - 1) &&
        group_intact) {
      // Group boundary with every member verified: restore the parity
      // invariant if the stored parity is corrupt or stale (which is also
      // how a freshly upgraded store builds its sidecar from scratch).
      const uint64_t group = id / parity_group_;
      std::vector<char> effective(payload_bytes);
      const Status stored = ParityPayloadLocked(group, effective.data());
      if (!stored.ok() &&
          stored.code() != StatusCode::kChecksumMismatch) {
        return stored;
      }
      if (!stored.ok() ||
          std::memcmp(effective.data(), group_xor.data(), payload_bytes) !=
              0) {
        SS_RETURN_IF_ERROR(
            WritePayloadImage(parity_fd_, group, group_xor.data()));
        ++durability_.parity_writes;
        parity_dirty_.erase(group);
        parity_planned_.erase(group);
        report.repaired.push_back(kParityIdBase + group);
        wrote = true;
      }
    }
  }
  if (wrote) SS_RETURN_IF_ERROR(Sync());
  return report;
}

void FileBlockManager::BeginParityReplay() {
  std::lock_guard<std::mutex> lock(mu_);
  parity_replay_ = true;
  parity_dirty_.clear();
  parity_planned_.clear();
}

void FileBlockManager::EndParityReplay() {
  std::lock_guard<std::mutex> lock(mu_);
  parity_replay_ = false;
}

DurabilityStats FileBlockManager::durability_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityStats stats = durability_;
  stats.quarantined_blocks = quarantined_.size();
  stats.io_retries = io_retries_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<uint64_t> FileBlockManager::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<uint64_t>(quarantined_.begin(), quarantined_.end());
}

}  // namespace shiftsplit
