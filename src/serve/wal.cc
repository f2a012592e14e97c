#include "serve/wal.h"

#include <cstring>
#include <filesystem>
#include <utility>

#include "common/io_env.h"
#include "common/io_util.h"
#include "common/logging.h"

namespace fm::serve {

namespace {

constexpr char kMagic[8] = {'F', 'M', 'W', 'A', 'L', '0', '0', '1'};
constexpr uint32_t kFormatVersion = 1;
// magic + u32 version + u32 reserved + u64 fingerprint.
constexpr uint64_t kHeaderBytes = 8 + 4 + 4 + 8;
// u32 payload_len + u32 crc + u64 position.
constexpr uint64_t kRecordHeaderBytes = 4 + 4 + 8;

std::string EncodeHeader(uint64_t fingerprint) {
  std::string out;
  io::AppendBytes(&out, kMagic, sizeof(kMagic));
  io::AppendU32(&out, kFormatVersion);
  io::AppendU32(&out, 0);  // reserved
  io::AppendU64(&out, fingerprint);
  return out;
}

Status CheckHeader(const std::string& file, uint64_t fingerprint) {
  if (file.size() < kHeaderBytes) {
    return Status::IoError("WAL header truncated (" +
                           std::to_string(file.size()) + " bytes)");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("WAL magic mismatch — not a FMWAL001 file");
  }
  io::ByteReader reader(file.data() + sizeof(kMagic),
                        file.size() - sizeof(kMagic));
  uint32_t version = 0;
  uint32_t reserved = 0;
  uint64_t file_fingerprint = 0;
  FM_RETURN_NOT_OK(reader.ReadU32(&version));
  FM_RETURN_NOT_OK(reader.ReadU32(&reserved));
  FM_RETURN_NOT_OK(reader.ReadU64(&file_fingerprint));
  if (version != kFormatVersion) {
    return Status::IoError("WAL format version " + std::to_string(version) +
                           " unsupported (want " +
                           std::to_string(kFormatVersion) + ")");
  }
  if (file_fingerprint != fingerprint) {
    return Status::IoError(
        "WAL options fingerprint mismatch: the log was written by a service "
        "with different options (dim/task/seed/...) than this one");
  }
  return Status::OK();
}

std::string EncodeRequestPayload(const Request& request) {
  std::string out;
  io::AppendU8(&out, static_cast<uint8_t>(request.kind));
  io::AppendU8(&out, static_cast<uint8_t>(request.trainer));
  io::AppendDouble(&out, request.epsilon);
  io::AppendDouble(&out, request.y);
  io::AppendU64(&out, request.id);
  io::AppendU64(&out, request.x.size());
  io::AppendDoubleArray(&out, request.x.raw(), request.x.size());
  return out;
}

Status DecodeRequestPayload(const std::string& payload, Request* out) {
  io::ByteReader reader(payload);
  uint8_t kind = 0;
  uint8_t trainer = 0;
  FM_RETURN_NOT_OK(reader.ReadU8(&kind));
  FM_RETURN_NOT_OK(reader.ReadU8(&trainer));
  if (kind > static_cast<uint8_t>(RequestKind::kCompact)) {
    return Status::IoError("WAL record holds unknown request kind " +
                           std::to_string(kind));
  }
  if (trainer > static_cast<uint8_t>(TrainerKind::kNoPrivacy)) {
    return Status::IoError("WAL record holds unknown trainer kind " +
                           std::to_string(trainer));
  }
  out->kind = static_cast<RequestKind>(kind);
  out->trainer = static_cast<TrainerKind>(trainer);
  FM_RETURN_NOT_OK(reader.ReadDouble(&out->epsilon));
  FM_RETURN_NOT_OK(reader.ReadDouble(&out->y));
  FM_RETURN_NOT_OK(reader.ReadU64(&out->id));
  uint64_t dim = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&dim));
  std::vector<double> features;
  FM_RETURN_NOT_OK(reader.ReadDoubleArray(&features,
                                          static_cast<size_t>(dim)));
  out->x = linalg::Vector(std::move(features));
  if (!reader.empty()) {
    return Status::IoError("WAL record payload has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

uint64_t OptionsFingerprint(const ServiceOptions& options) {
  // FNV-1a over the fields that give the durable state its meaning. Pool
  // choice, model-history length, and the telemetry fields (enable_metrics,
  // trace_requests, clock) are deliberately excluded: they affect
  // performance, retention, and observation — never the log's semantics —
  // so a WAL written with metrics on recovers under a service with metrics
  // off, and vice versa (docs/OBSERVABILITY.md).
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xFFu;
      hash *= 0x100000001b3ull;
    }
  };
  const auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  mix(options.dim);
  mix(static_cast<uint64_t>(options.task));
  mix(static_cast<uint64_t>(options.post_processing));
  mix_double(options.total_epsilon);
  mix(options.seed);
  mix(options.auto_compact ? 1 : 0);
  mix_double(options.compaction_dead_ratio);
  mix(options.compaction_min_dead);
  return hash;
}

const char* WalSyncModeToString(WalSyncMode mode) {
  switch (mode) {
    case WalSyncMode::kNone:
      return "none";
    case WalSyncMode::kBatch:
      return "batch";
    case WalSyncMode::kAlways:
      return "always";
  }
  return "?";
}

std::string Wal::EncodeRecord(uint64_t position, const Request& request) {
  const std::string payload = EncodeRequestPayload(request);
  std::string crc_input;
  crc_input.reserve(8 + payload.size());
  io::AppendU64(&crc_input, position);
  crc_input.append(payload);

  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size());
  io::AppendU32(&out, static_cast<uint32_t>(payload.size()));
  io::AppendU32(&out, io::Crc32(crc_input));
  io::AppendU64(&out, position);
  out.append(payload);
  return out;
}

Status Wal::DecodeRecord(io::ByteReader& reader, WalRecord* out) {
  uint32_t payload_len = 0;
  uint32_t crc = 0;
  uint64_t position = 0;
  FM_RETURN_NOT_OK(reader.ReadU32(&payload_len));
  FM_RETURN_NOT_OK(reader.ReadU32(&crc));
  FM_RETURN_NOT_OK(reader.ReadU64(&position));
  if (reader.remaining() < payload_len) {
    return Status::IoError("WAL record payload truncated: claims " +
                           std::to_string(payload_len) + " bytes, only " +
                           std::to_string(reader.remaining()) + " remain");
  }
  std::string payload(payload_len, '\0');
  FM_RETURN_NOT_OK(reader.ReadBytes(payload.data(), payload_len));
  std::string crc_input;
  crc_input.reserve(8 + payload.size());
  io::AppendU64(&crc_input, position);
  crc_input.append(payload);
  if (io::Crc32(crc_input) != crc) {
    return Status::IoError("WAL record CRC mismatch at position " +
                           std::to_string(position));
  }
  out->position = position;
  return DecodeRequestPayload(payload, &out->request);
}

Result<WalReplay> Wal::ReadAll(const std::string& path, uint64_t fingerprint,
                               io::Env* env) {
  io::Env& fs = env != nullptr ? *env : io::Env::Default();
  FM_ASSIGN_OR_RETURN(const std::string file, io::ReadFileToString(fs, path));
  FM_RETURN_NOT_OK(CheckHeader(file, fingerprint));

  WalReplay replay;
  replay.valid_bytes = kHeaderBytes;
  io::ByteReader reader(file.data() + kHeaderBytes,
                        file.size() - kHeaderBytes);
  while (!reader.empty()) {
    // A record that does not fully parse — short header, short payload, CRC
    // mismatch, or malformed payload — is a torn tail: the scan stops and
    // the prefix stands. DecodeRecord consumes from a copy so a failed
    // attempt does not disturb the committed read position.
    io::ByteReader attempt = reader;
    WalRecord record;
    if (!DecodeRecord(attempt, &record).ok()) break;
    reader = attempt;
    replay.records.push_back(std::move(record));
    replay.valid_bytes = kHeaderBytes + reader.offset();
  }
  replay.torn_tail = replay.valid_bytes < file.size();
  return replay;
}

Wal::Wal(const WalOptions& options, std::unique_ptr<io::File> file,
         uint64_t file_bytes)
    : options_(options),
      file_(std::move(file)),
      file_bytes_(file_bytes),
      clock_(obs::ClockOrDefault(options.clock)),
      last_sync_nanos_(clock_->NowNanos()) {}

Wal::~Wal() = default;

Result<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                       uint64_t fingerprint) {
  if (options.path.empty()) {
    return Status::InvalidArgument("WAL path must be non-empty");
  }
  io::Env& env = options.env != nullptr ? *options.env : io::Env::Default();
  uint64_t valid_bytes = 0;
  const Result<std::string> existing =
      io::ReadFileToString(env, options.path);
  if (existing.ok()) {
    FM_ASSIGN_OR_RETURN(const WalReplay replay,
                        ReadAll(options.path, fingerprint, options.env));
    if (replay.torn_tail) {
      // Drop the torn suffix so appends continue on a record boundary.
      FM_RETURN_NOT_OK(env.TruncateFile(options.path, replay.valid_bytes));
    }
    valid_bytes = replay.valid_bytes;
  } else if (existing.status().code() == StatusCode::kNotFound) {
    const std::string parent =
        std::filesystem::path(options.path).parent_path().string();
    if (!parent.empty()) {
      FM_RETURN_NOT_OK(env.CreateDirectories(parent));
    }
    FM_RETURN_NOT_OK(io::WriteFileAtomic(env, options.path,
                                         EncodeHeader(fingerprint),
                                         /*sync=*/options.sync !=
                                             WalSyncMode::kNone));
    valid_bytes = kHeaderBytes;
  } else {
    return existing.status();
  }

  Result<std::unique_ptr<io::File>> file =
      env.Open(options.path, io::OpenMode::kAppend);
  if (!file.ok()) {
    return Status::IoError("cannot open WAL " + options.path + ": " +
                           file.status().message());
  }
  return std::unique_ptr<Wal>(
      new Wal(options, std::move(file).ValueOrDie(), valid_bytes));
}

void Wal::Append(uint64_t position, const Request& request) {
  pending_.append(EncodeRecord(position, request));
  ++pending_records_;
}

Status Wal::PoisonedStatus() const {
  return Status::IoError(
      "WAL " + options_.path +
      " is poisoned by an earlier failed write/fsync; no further commits "
      "are accepted (restart the service and Recover)");
}

Status Wal::Commit() {
  if (poisoned_) return PoisonedStatus();
  if (pending_.empty()) return Status::OK();
  const uint64_t batch_bytes = pending_.size();
  const size_t batch_records = pending_records_;
  // EINTR and short writes are retried inside FullWrite with the bounded
  // deterministic policy; only real faults surface here.
  const Status written =
      io::FullWrite(*file_, pending_.data(), pending_.size(), &retry_stats_);
  pending_.clear();
  pending_records_ = 0;
  if (!written.ok()) {
    // The batch is dropped, not retried: the service fails the requests it
    // covers, so replaying these records later would be wrong. Roll the
    // file back to the last good boundary so a partially-written record
    // cannot sit in the middle of the log. ENOSPC with a clean rollback is
    // resumable (read-only degradation + ProbeWritable); anything else —
    // including a failed rollback — poisons the WAL.
    const Status rolled = file_->Truncate(file_bytes_);
    if (!rolled.ok() ||
        written.code() != StatusCode::kResourceExhausted) {
      poisoned_ = true;
    }
    if (telemetry_.commit_failures != nullptr) {
      telemetry_.commit_failures->Increment();
    }
    if (poisoned_) {
      FM_LOG(kError) << "WAL " << options_.path
                     << " poisoned by failed write: " << written.message();
    }
    return Status(written.code(),
                  "WAL write failed for " + options_.path + ": " +
                      written.message() +
                      (poisoned_ ? " (WAL poisoned)" : ""));
  }

  bool sync_now = false;
  switch (options_.sync) {
    case WalSyncMode::kNone:
      break;
    case WalSyncMode::kAlways:
      sync_now = true;
      break;
    case WalSyncMode::kBatch: {
      const int64_t now = clock_->NowNanos();
      const double window_nanos = options_.batch_window_seconds * 1e9;
      sync_now = records_since_sync_ + batch_records >=
                     options_.batch_max_records ||
                 static_cast<double>(now - last_sync_nanos_) >= window_nanos;
      break;
    }
  }
  if (sync_now) {
    const int64_t sync_start = clock_->NowNanos();
    const Status synced = file_->Sync();
    if (telemetry_.fsync_nanos != nullptr) {
      telemetry_.fsync_nanos->Observe(clock_->NowNanos() - sync_start);
    }
    if (!synced.ok()) {
      // fsyncgate: a failed fsync may have DROPPED the dirty pages, and a
      // retried fsync that then "succeeds" proves nothing about them. The
      // batch is rejected, the file rolled back (best-effort; a process
      // crash here already loses no acknowledged data because nothing in
      // this batch was acknowledged), and the WAL refuses all future
      // writes. Earlier batches synced in previous windows are unaffected.
      poisoned_ = true;
      // discard-ok: best-effort rollback on an already-poisoned WAL —
      // the poison flag is the real containment; a rollback error has
      // no further remedy here.
      (void)file_->Truncate(file_bytes_);
      if (telemetry_.commit_failures != nullptr) {
        telemetry_.commit_failures->Increment();
      }
      FM_LOG(kError) << "WAL " << options_.path
                     << " poisoned by failed fsync: " << synced.message();
      return Status::IoError(
          "WAL fsync failed for " + options_.path + ": " + synced.message() +
          " — WAL poisoned; the batch is rejected and never retried");
    }
    ++sync_count_;
    if (telemetry_.syncs != nullptr) telemetry_.syncs->Increment();
    records_since_sync_ = 0;
    last_sync_nanos_ = clock_->NowNanos();
  } else {
    records_since_sync_ += batch_records;
  }

  file_bytes_ += batch_bytes;
  appended_records_ += batch_records;
  ++commit_batches_;
  if (telemetry_.commit_batch_records != nullptr) {
    telemetry_.commit_batch_records->Observe(
        static_cast<int64_t>(batch_records));
  }
  return Status::OK();
}

Status Wal::ProbeWritable() {
  if (poisoned_) return PoisonedStatus();
  // Zero bytes can never decode as a record (the CRC of the zero header
  // never matches), so even a crash between the write and the truncate
  // leaves only a torn tail that Open() trims.
  static constexpr char kProbe[16] = {};
  const Status written =
      io::FullWrite(*file_, kProbe, sizeof(kProbe), &retry_stats_);
  const Status rolled = file_->Truncate(file_bytes_);
  if (!rolled.ok()) {
    poisoned_ = true;
    return Status::IoError("WAL probe rollback failed for " + options_.path +
                           ": " + rolled.message() + " — WAL poisoned");
  }
  if (!written.ok()) {
    return Status(written.code(), "WAL probe write failed for " +
                                      options_.path + ": " +
                                      written.message());
  }
  return Status::OK();
}

}  // namespace fm::serve
