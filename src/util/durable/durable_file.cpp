#include "util/durable/durable_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>

#include "util/failpoint.hpp"
#include "util/strutil.hpp"

namespace hadas::util::durable {

namespace {

/// Mutex-guarded process-wide stats: durable operations are disk-bound and
/// rare, so a lock is simpler than per-field atomics and just as cheap here.
std::mutex g_stats_mutex;
DurableStats g_stats;

}  // namespace

DurableStats durable_stats() {
  std::scoped_lock lock(g_stats_mutex);
  return g_stats;
}

void reset_durable_stats() {
  std::scoped_lock lock(g_stats_mutex);
  g_stats = DurableStats{};
}

void count_durable(std::uint64_t DurableStats::* counter, std::uint64_t n) {
  std::scoped_lock lock(g_stats_mutex);
  g_stats.*counter += n;
}

namespace {

/// The envelope's first bytes, up to the version number.
constexpr std::string_view kMagicPrefix = "%HADAS-DURABLE v";
/// What follows the payload, up to the 16 CRC digits.
constexpr std::string_view kFooterPrefix = "\n%HADAS-CRC64 ";
/// The whole footer: prefix, 16 hex digits, newline.
constexpr std::size_t kFooterBytes = kFooterPrefix.size() + 16 + 1;
constexpr std::uint32_t kVersion = 1;

/// CRC-64/XZ slicing-by-8 tables (reflected ECMA-182 polynomial). Row 0 is
/// the bytewise table; row k advances a byte's contribution by k more zero
/// bytes, so eight rows fold one 8-byte word per step.
using Crc64Tables = std::array<std::array<std::uint64_t, 256>, 8>;

constexpr Crc64Tables make_crc64_tables() {
  constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;  // reflected ECMA-182
  Crc64Tables t{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr Crc64Tables kCrc64Tables = make_crc64_tables();

void write_all(int fd, const std::string& path, const char* data,
               std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("DurableFile: write to " + path + " failed: " +
                               std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_RDONLY);
  if (fd < 0) {
    if (directory) return;  // best-effort: some filesystems refuse dir opens
    throw std::runtime_error("DurableFile: cannot reopen " + path +
                             " for fsync");
  }
  (void)::fsync(fd);
  ::close(fd);
}

/// The whole file; throws std::runtime_error when it cannot be opened.
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("DurableFile: cannot open " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// An envelope parsed as far as its bytes allow: the inspect() view, where
/// the header line ends, and the payload once its declared length is there.
struct Envelope {
  FileInfo info;
  std::size_t header_end = std::string::npos;
  std::string payload;
};

Envelope parse_envelope(const std::string& bytes) {
  Envelope envelope;
  FileInfo& info = envelope.info;
  info.exists = true;
  info.file_bytes = bytes.size();
  info.legacy = bytes.rfind(kMagicPrefix, 0) != 0;
  if (info.legacy) return envelope;
  envelope.header_end = bytes.find('\n');
  if (envelope.header_end == std::string::npos) return envelope;
  std::istringstream header(bytes.substr(
      kMagicPrefix.size(), envelope.header_end - kMagicPrefix.size()));
  std::uint32_t version = 0;
  std::string tag;
  std::size_t declared = 0;
  if (!(header >> version >> tag >> declared)) return envelope;
  info.version = version;
  info.format_tag = tag;
  info.declared_bytes = declared;
  info.header_ok = version == kVersion;

  const std::size_t footer_begin = envelope.header_end + 1 + declared;
  info.length_ok = bytes.size() >= footer_begin + kFooterBytes;
  if (!info.length_ok) return envelope;
  envelope.payload = bytes.substr(envelope.header_end + 1, declared);
  info.crc_actual = hex_u64(crc64(envelope.payload));
  if (bytes.compare(footer_begin, kFooterPrefix.size(), kFooterPrefix) == 0)
    info.crc_declared = bytes.substr(footer_begin + kFooterPrefix.size(), 16);
  info.checksum_ok = !info.crc_declared.empty() &&
                     info.crc_declared == info.crc_actual;
  return envelope;
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

const char* corrupt_stage_name(CorruptStage stage) {
  switch (stage) {
    case CorruptStage::kHeader: return "header";
    case CorruptStage::kTruncation: return "truncation";
    case CorruptStage::kChecksum: return "checksum";
    case CorruptStage::kParse: return "parse";
    case CorruptStage::kInvariant: return "invariant";
  }
  return "?";
}

CheckpointCorruptError::CheckpointCorruptError(std::string file,
                                               std::size_t byte_offset,
                                               CorruptStage stage,
                                               const std::string& detail)
    : std::runtime_error("corrupt state file '" + file + "' at byte " +
                         std::to_string(byte_offset) + " (" +
                         corrupt_stage_name(stage) +
                         " validation failed): " + detail),
      file_(std::move(file)),
      byte_offset_(byte_offset),
      stage_(stage),
      detail_(detail) {}

std::uint64_t crc64(std::string_view bytes) {
  const Crc64Tables& t = kCrc64Tables;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t crc = ~0ULL;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p, sizeof(word));
      crc ^= word;
      crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
            t[5][(crc >> 16) & 0xFF] ^ t[4][(crc >> 24) & 0xFF] ^
            t[3][(crc >> 32) & 0xFF] ^ t[2][(crc >> 40) & 0xFF] ^
            t[1][(crc >> 48) & 0xFF] ^ t[0][crc >> 56];
    }
  }
  for (; n > 0; ++p, --n)
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF];
  return ~crc;
}

void DurableFile::write(const std::string& path, const std::string& format_tag,
                        const std::string& payload) {
  if (format_tag.empty() ||
      format_tag.find_first_of(" \n\t") != std::string::npos)
    throw std::invalid_argument("DurableFile: bad format tag '" + format_tag +
                                "'");
  const std::string header_fields = std::to_string(kVersion) + ' ' +
                                    format_tag + ' ' +
                                    std::to_string(payload.size()) + '\n';
  std::string bytes;
  bytes.reserve(kMagicPrefix.size() + header_fields.size() + payload.size() +
                kFooterBytes);
  bytes += kMagicPrefix;
  bytes += header_fields;
  bytes += payload;
  bytes += kFooterPrefix;
  bytes += hex_u64(crc64(payload));
  bytes += '\n';

  failpoint("durable.save.begin");
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw std::runtime_error("DurableFile: cannot open " + tmp + ": " +
                             std::strerror(errno));
  write_all(fd, tmp, bytes.data(), bytes.size());
  failpoint("durable.save.tmp");  // tmp written, not yet synced or renamed
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("DurableFile: fsync of " + tmp + " failed");
  }
  ::close(fd);
  failpoint("durable.save.prerename");  // previous file still fully intact
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("DurableFile: cannot rename " + tmp + " to " +
                             path);
  fsync_path(parent_dir(path), /*directory=*/true);
  count_durable(&DurableStats::writes);
  count_durable(&DurableStats::bytes_written, bytes.size());
  // File site: chaos may tear or bit-flip the fully-written file here to
  // simulate storage-level corruption that the next read must detect.
  failpoint_file("durable.save.postrename", path.c_str());
}

bool DurableFile::write_idempotent(const std::string& path,
                                   const std::string& format_tag,
                                   const std::string& payload) {
  if (std::filesystem::exists(path)) {
    try {
      if (read_validated(path, format_tag) == payload) return false;
    } catch (const CheckpointCorruptError&) {
      // Torn or divergent: fall through to the atomic replace.
    }
  }
  write(path, format_tag, payload);
  return true;
}

std::string DurableFile::read(const std::string& path,
                              const std::string& format_tag) {
  try {
    std::string payload = read_validated(path, format_tag);
    count_durable(&DurableStats::reads);
    return payload;
  } catch (const CheckpointCorruptError&) {
    count_durable(&DurableStats::read_failures);
    throw;
  }
}

std::string DurableFile::read_or_legacy(const std::string& path,
                                        const std::string& format_tag) {
  try {
    return read(path, format_tag);
  } catch (const CheckpointCorruptError& e) {
    if (e.stage() != CorruptStage::kHeader || e.byte_offset() != 0) throw;
    return slurp(path);
  }
}

std::string DurableFile::read_validated(const std::string& path,
                                        const std::string& format_tag) {
  Envelope envelope = parse_envelope(slurp(path));
  const FileInfo& info = envelope.info;
  const auto corrupt = [&path](std::size_t offset, CorruptStage stage,
                               const std::string& detail) {
    return CheckpointCorruptError(path, offset, stage, detail);
  };
  if (info.legacy)
    throw corrupt(0, CorruptStage::kHeader,
                  "missing durable-file magic (legacy or foreign file?)");
  if (envelope.header_end == std::string::npos)
    throw corrupt(info.file_bytes, CorruptStage::kHeader,
                  "unterminated header line");
  if (info.format_tag.empty())
    throw corrupt(kMagicPrefix.size(), CorruptStage::kHeader,
                  "malformed header fields");
  if (!info.header_ok)
    throw corrupt(kMagicPrefix.size(), CorruptStage::kHeader,
                  "unsupported version v" + std::to_string(info.version));
  if (info.format_tag != format_tag)
    throw corrupt(kMagicPrefix.size(), CorruptStage::kHeader,
                  "format tag '" + info.format_tag + "' (expected '" +
                      format_tag + "')");
  const std::size_t payload_begin = envelope.header_end + 1;
  const std::size_t footer_begin = payload_begin + info.declared_bytes;
  if (!info.length_ok)
    throw corrupt(info.file_bytes, CorruptStage::kTruncation,
                  "file holds " + std::to_string(info.file_bytes) +
                      " bytes but header declares a " +
                      std::to_string(info.declared_bytes) +
                      "-byte payload (expected >= " +
                      std::to_string(footer_begin + kFooterBytes) + ")");
  if (info.crc_declared.empty())
    throw corrupt(footer_begin, CorruptStage::kTruncation,
                  "footer line missing or malformed");
  if (!info.checksum_ok)
    throw corrupt(payload_begin, CorruptStage::kChecksum,
                  "payload CRC64 " + info.crc_actual + " != declared " +
                      info.crc_declared);
  return std::move(envelope.payload);
}

bool DurableFile::holds(const std::string& path,
                        const std::string& format_tag) {
  const FileInfo info = inspect(path);
  return info.valid() && info.format_tag == format_tag;
}

FileInfo DurableFile::inspect(const std::string& path) {
  if (!std::ifstream(path).good()) return FileInfo{};
  return parse_envelope(slurp(path)).info;
}

}  // namespace hadas::util::durable
