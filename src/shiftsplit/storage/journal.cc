#include "shiftsplit/storage/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "shiftsplit/util/crc32c.h"

namespace shiftsplit {

namespace {

std::string Errno(const std::string& prefix) {
  return prefix + ": " + std::strerror(errno);
}

// Maps a failed write/fsync errno to its status: a full disk or exhausted
// quota is kResourceExhausted (transient pressure the caller can back off
// from and retry), everything else a plain kIOError.
Status WriteErrnoStatus(const std::string& prefix) {
  if (errno == ENOSPC || errno == EDQUOT) {
    return Status::ResourceExhausted(Errno(prefix));
  }
  return Status::IOError(Errno(prefix));
}

// Commit record layout (single record per journal file):
//   RecordHeader
//   num_entries x EntryHeader
//   num_entries x block_size doubles (payload images, entry order)
//   RecordTrailer (commit marker: magic + CRC32C of all preceding bytes)
constexpr uint32_t kRecordMagic = 0x314A5353u;   // "SSJ1"
constexpr uint32_t kTrailerMagic = 0x434A5353u;  // "SSJC"

struct RecordHeader {
  uint32_t magic = kRecordMagic;
  uint32_t version = 1;
  uint64_t block_size = 0;
  uint64_t num_entries = 0;
};

struct EntryHeader {
  uint64_t block_id = 0;
  uint32_t crc = 0;  // CRC32C of this entry's payload bytes
  uint32_t pad = 0;
};

struct RecordTrailer {
  uint32_t magic = kTrailerMagic;
  uint32_t crc = 0;  // CRC32C of every byte before the trailer
};

Status WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t w = ::write(fd, data + done, size - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("journal write"));
    }
    if (w == 0) return Status::IOError("journal write: wrote 0 bytes");
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

// fsyncs the directory containing `path` so creation/removal of the file
// itself is durable.
Status SyncParentDirOf(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int dfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::IOError(Errno("open dir " + parent.string()));
  }
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) {
    return Status::IOError(Errno("fsync dir " + parent.string()));
  }
  return Status::OK();
}

}  // namespace

Status Journal::SyncParentDir() { return SyncParentDirOf(path_); }

Status Journal::AppendCommit(std::span<const JournalEntry> entries,
                             uint64_t block_size) {
  if (entries.empty()) {
    return Status::InvalidArgument("empty commit record");
  }
  const uint64_t payload_bytes = block_size * sizeof(double);
  for (const JournalEntry& entry : entries) {
    if (entry.data.size() != block_size) {
      return Status::InvalidArgument(
          "journal entry payload size != block size");
    }
  }
  // Serialize the whole record up front so the file sees at most two writes
  // (the test hook between them exercises genuinely torn records).
  const size_t record_bytes = sizeof(RecordHeader) +
                              entries.size() * sizeof(EntryHeader) +
                              entries.size() * payload_bytes +
                              sizeof(RecordTrailer);
  std::vector<char> record(record_bytes);
  char* out = record.data();
  RecordHeader header;
  header.block_size = block_size;
  header.num_entries = entries.size();
  std::memcpy(out, &header, sizeof(header));
  out += sizeof(header);
  for (const JournalEntry& entry : entries) {
    EntryHeader eh;
    eh.block_id = entry.block_id;
    eh.crc = Crc32c(entry.data.data(), payload_bytes);
    std::memcpy(out, &eh, sizeof(eh));
    out += sizeof(eh);
  }
  for (const JournalEntry& entry : entries) {
    std::memcpy(out, entry.data.data(), payload_bytes);
    out += payload_bytes;
  }
  RecordTrailer trailer;
  trailer.crc = Crc32c(record.data(),
                       record_bytes - sizeof(RecordTrailer));
  std::memcpy(out, &trailer, sizeof(trailer));

  const int fd = ::open(path_.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(Errno("open journal " + path_));
  }
  const size_t head = record_bytes / 2;
  Status status = CallHook("append");
  if (status.ok()) status = WriteAll(fd, record.data(), head);
  if (status.ok()) status = CallHook("append-tail");
  if (status.ok()) {
    status = WriteAll(fd, record.data() + head, record_bytes - head);
  }
  if (status.ok()) status = CallHook("fsync");
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IOError(Errno("fsync journal " + path_));
  }
  ::close(fd);
  SS_RETURN_IF_ERROR(status);
  SS_RETURN_IF_ERROR(SyncParentDir());
  ++commits_;
  return Status::OK();
}

Status Journal::Truncate() {
  SS_RETURN_IF_ERROR(CallHook("truncate"));
  if (::unlink(path_.c_str()) != 0) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError(Errno("unlink journal " + path_));
  }
  return SyncParentDir();
}

Status Journal::AppendWithParity(BlockManager& device,
                                 std::span<const BlockWrite> writes) {
  // Parity-enabled backends return the absolute post-commit parity images
  // of every group the writes touch; journaling them after the data entries
  // keeps parity crash-consistent with its group — replay rewrites data and
  // parity from the same record, so a crash anywhere in between can never
  // leave them disagreeing. The images are already staged on the device:
  // the in-place writes of exactly these blocks skip incremental parity
  // work and Complete's Sync persists the sidecar. Empty on backends
  // without parity.
  SS_ASSIGN_OR_RETURN(const std::vector<ParityBlockImage> parity,
                      device.PlanParityCommit(writes));
  std::vector<JournalEntry> entries;
  entries.reserve(writes.size() + parity.size());
  for (const BlockWrite& write : writes) {
    entries.push_back({write.block_id, write.data});
  }
  for (const ParityBlockImage& image : parity) {
    entries.push_back({image.block_id, image.data});
  }
  return AppendCommit(entries, device.block_size());
}

Status Journal::Complete(BlockManager& device) {
  SS_RETURN_IF_ERROR(device.Sync());
  return Truncate();
}

Result<Journal::RecoveryResult> Journal::Recover(BlockManager* device) {
  RecoveryResult result;
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return result;  // no journal: clean open
    return Status::IOError(Errno("open journal " + path_));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(Errno("fstat journal " + path_));
  }
  std::vector<char> record(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < record.size()) {
    const ssize_t r = ::read(fd, record.data() + done, record.size() - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError(Errno("read journal " + path_));
    }
    if (r == 0) break;  // shrank under us; validation below rejects it
    done += static_cast<size_t>(r);
  }
  ::close(fd);

  // Validate: any inconsistency means the record never committed — the
  // in-place writes never started, so discarding it restores the
  // pre-commit state.
  const auto rollback = [&]() -> Result<RecoveryResult> {
    // No hook on the recovery path: recovery is not a crash point of the
    // commit protocol under test, it is the repair step.
    if (::unlink(path_.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError(Errno("unlink journal " + path_));
    }
    SS_RETURN_IF_ERROR(SyncParentDir());
    ++rollbacks_;
    result.rolled_back = true;
    return result;
  };

  if (done != record.size() || record.size() < sizeof(RecordHeader)) {
    return rollback();
  }
  RecordHeader header;
  std::memcpy(&header, record.data(), sizeof(header));
  if (header.magic != kRecordMagic || header.version != 1 ||
      header.block_size != device->block_size() || header.num_entries == 0) {
    return rollback();
  }
  const uint64_t payload_bytes = header.block_size * sizeof(double);
  const size_t expect_bytes =
      sizeof(RecordHeader) +
      header.num_entries * (sizeof(EntryHeader) + payload_bytes) +
      sizeof(RecordTrailer);
  if (record.size() != expect_bytes) {
    return rollback();
  }
  RecordTrailer trailer;
  std::memcpy(&trailer, record.data() + expect_bytes - sizeof(trailer),
              sizeof(trailer));
  if (trailer.magic != kTrailerMagic ||
      trailer.crc != Crc32c(record.data(), expect_bytes - sizeof(trailer))) {
    return rollback();
  }
  const char* entry_base = record.data() + sizeof(RecordHeader);
  const char* payload_base =
      entry_base + header.num_entries * sizeof(EntryHeader);
  for (uint64_t i = 0; i < header.num_entries; ++i) {
    EntryHeader eh;
    std::memcpy(&eh, entry_base + i * sizeof(EntryHeader), sizeof(eh));
    if (eh.crc != Crc32c(payload_base + i * payload_bytes, payload_bytes)) {
      return rollback();
    }
  }

  // The record committed: redo every block image in place (idempotent), make
  // it durable, then retire the journal. Parity entries (ids at or above
  // kParityIdBase) address sidecar strides, not device blocks — they never
  // drive a resize, and while they replay the device suspends its own
  // incremental parity maintenance (the record's images are absolute).
  uint64_t max_id = 0;
  bool any_data = false;
  for (uint64_t i = 0; i < header.num_entries; ++i) {
    EntryHeader eh;
    std::memcpy(&eh, entry_base + i * sizeof(EntryHeader), sizeof(eh));
    if (eh.block_id >= kParityIdBase) continue;
    any_data = true;
    max_id = std::max(max_id, eh.block_id);
  }
  if (any_data && max_id >= device->num_blocks()) {
    SS_RETURN_IF_ERROR(device->Resize(max_id + 1));
  }
  device->BeginParityReplay();
  std::vector<double> payload(header.block_size);
  for (uint64_t i = 0; i < header.num_entries; ++i) {
    EntryHeader eh;
    std::memcpy(&eh, entry_base + i * sizeof(EntryHeader), sizeof(eh));
    std::memcpy(payload.data(), payload_base + i * payload_bytes,
                payload_bytes);
    const Status written = device->WriteBlock(eh.block_id, payload);
    if (!written.ok()) {
      device->EndParityReplay();
      return written;
    }
  }
  device->EndParityReplay();
  SS_RETURN_IF_ERROR(device->Sync());
  if (::unlink(path_.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(Errno("unlink journal " + path_));
  }
  SS_RETURN_IF_ERROR(SyncParentDir());
  ++replays_;
  result.replayed = true;
  result.blocks = header.num_entries;
  return result;
}

// ---------------------------------------------------------------------------
// DeltaLog

namespace {

constexpr uint32_t kDeltaMagic = 0x52445353u;  // "SSDR"
constexpr uint32_t kDeltaMaxDims = 64;         // sanity bound for replay

// Fixed-size prefix of a record, before the coords array.
constexpr size_t kDeltaPrefixBytes =
    sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint64_t) + sizeof(double);
// Fixed-size suffix after the coords array: crc + pad.
constexpr size_t kDeltaSuffixBytes = sizeof(uint32_t) + sizeof(uint32_t);

// WriteAll with the delta log's errno mapping: ENOSPC is backpressure
// (kResourceExhausted), not an I/O fault — see DeltaLog::Sync.
Status WriteAllDelta(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t w = ::write(fd, data + done, size - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return WriteErrnoStatus("delta log write");
    }
    if (w == 0) return Status::IOError("delta log write: wrote 0 bytes");
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

void AppendRaw(std::vector<uint8_t>* out, const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  out->insert(out->end(), bytes, bytes + size);
}

void EncodeDelta(const DeltaRecord& record, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  const uint32_t ndim = static_cast<uint32_t>(record.coords.size());
  AppendRaw(out, &kDeltaMagic, sizeof(kDeltaMagic));
  AppendRaw(out, &ndim, sizeof(ndim));
  AppendRaw(out, &record.seq, sizeof(record.seq));
  AppendRaw(out, &record.value, sizeof(record.value));
  for (const uint64_t coord : record.coords) {
    AppendRaw(out, &coord, sizeof(coord));
  }
  const uint32_t crc = Crc32c(reinterpret_cast<const char*>(out->data()) +
                                  start,
                              out->size() - start);
  const uint32_t pad = 0;
  AppendRaw(out, &crc, sizeof(crc));
  AppendRaw(out, &pad, sizeof(pad));
}

}  // namespace

void DeltaLog::Append(const DeltaRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  EncodeDelta(record, &pending_);
  if (record.seq > pending_max_seq_) pending_max_seq_ = record.seq;
  ++appends_;
}

Status DeltaLog::FlushPendingLocked(std::unique_lock<std::mutex>& lock) {
  flushing_ = true;
  std::vector<uint8_t> batch = std::move(pending_);
  pending_.clear();
  const uint64_t batch_seq = pending_max_seq_;
  const bool sync_parent = !created_synced_;
  const Hook hook = flush_hook_;
  lock.unlock();

  Status status = hook ? hook() : Status::OK();
  if (status.ok()) {
    const int fd = ::open(path_.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
      status = WriteErrnoStatus("open delta log " + path_);
    } else {
      status = WriteAllDelta(fd, reinterpret_cast<const char*>(batch.data()),
                             batch.size());
      if (status.ok() && ::fsync(fd) != 0) {
        status = WriteErrnoStatus("fsync delta log " + path_);
      }
      ::close(fd);
    }
  }
  if (status.ok() && sync_parent) status = SyncParentDirOf(path_);

  lock.lock();
  flushing_ = false;
  if (status.ok()) {
    if (batch_seq > durable_seq_) durable_seq_ = batch_seq;
    created_synced_ = true;
    ++syncs_;
  } else {
    // Keep the unwritten batch at the front so a retry preserves seq order.
    // (O_APPEND writes are all-or-nothing on local filesystems in practice;
    // a genuinely partial write would leave a torn record that Replay drops.)
    batch.insert(batch.end(), pending_.begin(), pending_.end());
    pending_ = std::move(batch);
  }
  cv_.notify_all();
  return status;
}

Status DeltaLog::Sync(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (durable_seq_ >= seq) return Status::OK();
    if (flushing_) {
      // Another caller is the flush leader: wait for its batch (which
      // includes every record staged before ours) and re-check.
      cv_.wait(lock, [this] { return !flushing_; });
      continue;
    }
    SS_RETURN_IF_ERROR(FlushPendingLocked(lock));
  }
}

Result<std::vector<DeltaRecord>> DeltaLog::Replay() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<DeltaRecord> records;
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return records;  // no log: nothing buffered
    return Status::IOError(Errno("open delta log " + path_));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(Errno("fstat delta log " + path_));
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t r = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError(Errno("read delta log " + path_));
    }
    if (r == 0) break;
    done += static_cast<size_t>(r);
  }
  ::close(fd);
  bytes.resize(done);

  // Parse sequentially; the first torn or invalid record ends the valid
  // prefix (a crash mid-append tore the tail — that record was never
  // acknowledged, so dropping it loses nothing).
  size_t offset = 0;
  while (bytes.size() - offset >= kDeltaPrefixBytes + kDeltaSuffixBytes) {
    const uint8_t* base = bytes.data() + offset;
    uint32_t magic = 0;
    uint32_t ndim = 0;
    std::memcpy(&magic, base, sizeof(magic));
    std::memcpy(&ndim, base + sizeof(magic), sizeof(ndim));
    if (magic != kDeltaMagic || ndim == 0 || ndim > kDeltaMaxDims) break;
    const size_t record_bytes =
        kDeltaPrefixBytes + ndim * sizeof(uint64_t) + kDeltaSuffixBytes;
    if (bytes.size() - offset < record_bytes) break;
    const size_t crc_covered = record_bytes - kDeltaSuffixBytes;
    uint32_t crc = 0;
    std::memcpy(&crc, base + crc_covered, sizeof(crc));
    if (crc != Crc32c(reinterpret_cast<const char*>(base), crc_covered)) {
      break;
    }
    DeltaRecord record;
    std::memcpy(&record.seq, base + 2 * sizeof(uint32_t), sizeof(record.seq));
    std::memcpy(&record.value,
                base + 2 * sizeof(uint32_t) + sizeof(uint64_t),
                sizeof(record.value));
    record.coords.resize(ndim);
    std::memcpy(record.coords.data(), base + kDeltaPrefixBytes,
                ndim * sizeof(uint64_t));
    records.push_back(std::move(record));
    offset += record_bytes;
  }

  if (offset < bytes.size()) {
    // Truncate the torn tail so later appends are not stranded behind it.
    ++torn_records_;
    const int wfd = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
    if (wfd < 0) {
      return Status::IOError(Errno("open delta log " + path_));
    }
    Status status = Status::OK();
    if (::ftruncate(wfd, static_cast<off_t>(offset)) != 0) {
      status = Status::IOError(Errno("ftruncate delta log " + path_));
    }
    if (status.ok() && ::fsync(wfd) != 0) {
      status = Status::IOError(Errno("fsync delta log " + path_));
    }
    ::close(wfd);
    SS_RETURN_IF_ERROR(status);
  }

  if (!records.empty()) {
    durable_seq_ = std::max(durable_seq_, records.back().seq);
  }
  created_synced_ = done > 0 || !records.empty();
  return records;
}

Status DeltaLog::Truncate() {
  std::unique_lock<std::mutex> lock(mu_);
  if (::unlink(path_.c_str()) != 0) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError(Errno("unlink delta log " + path_));
  }
  created_synced_ = false;
  return SyncParentDirOf(path_);
}

uint64_t DeltaLog::appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

uint64_t DeltaLog::syncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

uint64_t DeltaLog::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_seq_;
}

}  // namespace shiftsplit
