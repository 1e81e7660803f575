#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hadas::util::durable {

/// Which validation rejected a durable file.
enum class CorruptStage {
  kHeader,      ///< magic/version/format-tag line missing or malformed
  kTruncation,  ///< fewer payload/footer bytes on disk than the header declares
  kChecksum,    ///< payload bytes do not match the CRC-64 footer
  kParse,       ///< envelope valid but the payload failed to parse
  kInvariant,   ///< payload parsed but violates a semantic invariant
};

/// "header" | "truncation" | "checksum" | "parse" | "invariant".
const char* corrupt_stage_name(CorruptStage stage);

/// A persistent-state file failed validation. Carries the file name, the
/// byte offset at which validation failed, and the validation stage, so a
/// corrupt checkpoint surfaces as a structured, actionable error instead of
/// a raw parse backtrace.
class CheckpointCorruptError : public std::runtime_error {
 public:
  CheckpointCorruptError(std::string file, std::size_t byte_offset,
                         CorruptStage stage, const std::string& detail);

  const std::string& file() const { return file_; }
  std::size_t byte_offset() const { return byte_offset_; }
  CorruptStage stage() const { return stage_; }
  /// The bare failure description, without the file/offset/stage prefix
  /// (what() carries the full formatted message).
  const std::string& detail() const { return detail_; }

 private:
  std::string file_;
  std::size_t byte_offset_;
  CorruptStage stage_;
  std::string detail_;
};

/// Non-throwing envelope inspection (the `hadas verify-checkpoint` view).
struct FileInfo {
  bool exists = false;
  bool legacy = false;  ///< no durable envelope (pre-durable plain payload)
  bool header_ok = false;
  std::uint32_t version = 0;
  std::string format_tag;
  std::size_t declared_bytes = 0;  ///< payload size the header promises
  std::size_t file_bytes = 0;      ///< actual size on disk
  bool length_ok = false;
  bool checksum_ok = false;
  std::string crc_declared;  ///< footer CRC (hex)
  std::string crc_actual;    ///< CRC of the payload bytes on disk (hex)

  bool valid() const { return header_ok && length_ok && checksum_ok; }
};

/// CRC-64/XZ (ECMA-182 polynomial, reflected) of a byte string, computed
/// slicing-by-8: one 8-byte word per step on little-endian hosts, bytewise
/// elsewhere, with the same value either way.
std::uint64_t crc64(std::string_view bytes);

/// Process-wide counters of the durable layer's disk traffic and recovery
/// activity. Kept here as plain atomics (the EvalCache-stats pattern) so the
/// bottom util layer stays free of an observability dependency; src/obs
/// exports a snapshot into the metrics registry at dump time.
struct DurableStats {
  std::uint64_t writes = 0;           ///< successful DurableFile::write calls
  std::uint64_t bytes_written = 0;    ///< envelope bytes across those writes
  std::uint64_t reads = 0;            ///< successful DurableFile::read calls
  std::uint64_t read_failures = 0;    ///< reads rejected as corrupt
  std::uint64_t chain_saves = 0;      ///< CheckpointChain::save calls
  std::uint64_t chain_fallbacks = 0;  ///< chain slots skipped as invalid
};

/// Snapshot of the counters above.
DurableStats durable_stats();

/// Zero the counters (tests / benchmark isolation).
void reset_durable_stats();

/// Internal: bump one DurableStats counter by `n`.
void count_durable(std::uint64_t DurableStats::* counter, std::uint64_t n = 1);

/// Crash-safe single-file persistence. The on-disk format is a text
/// envelope around an opaque payload:
///
///   %HADAS-DURABLE v1 <format-tag> <payload-bytes>\n
///   <payload>
///   \n%HADAS-CRC64 <16 hex digits>\n
///
/// write() goes write-to-temp + fsync + atomic rename (+ directory fsync),
/// so a crash at any instruction leaves either the previous file or the new
/// one — never a torn mix. read() validates header, version, format tag,
/// declared length (truncation detection) and checksum before returning the
/// payload; every failure throws CheckpointCorruptError naming the file,
/// byte offset and stage. Failpoints: durable.save.begin / durable.save.tmp
/// / durable.save.prerename / durable.save.postrename (file site).
class DurableFile {
 public:
  /// Atomically replace `path` with an envelope around `payload`.
  /// `format_tag` is a short [A-Za-z0-9._-]+ type tag checked on read.
  static void write(const std::string& path, const std::string& format_tag,
                    const std::string& payload);

  /// Validate and return the payload. Throws CheckpointCorruptError.
  /// Successful and corrupt reads bump the DurableStats counters.
  static std::string read(const std::string& path,
                          const std::string& format_tag);

  /// read(), except that a file with no envelope at all is returned raw:
  /// a legacy (pre-durable) file, left for the caller's decoder to judge.
  static std::string read_or_legacy(const std::string& path,
                                    const std::string& format_tag);

  /// write(), unless `path` already holds a valid envelope with this exact
  /// tag and payload — then the disk is left untouched. Returns true when a
  /// write happened. This is what makes replayed deliveries (a resumed
  /// stream re-presenting an already-applied record) free and tear-proof: a
  /// replay of identical bytes never rewrites a file another process may be
  /// reading, while a torn or divergent file is atomically replaced.
  static bool write_idempotent(const std::string& path,
                               const std::string& format_tag,
                               const std::string& payload);

  /// Envelope inspection; never throws on corrupt content (only on I/O
  /// errors opening an existing file).
  static FileInfo inspect(const std::string& path);

  /// True when `path` holds a valid envelope tagged `format_tag`.
  static bool holds(const std::string& path, const std::string& format_tag);

 private:
  /// read() without the stats accounting.
  static std::string read_validated(const std::string& path,
                                    const std::string& format_tag);
};

}  // namespace hadas::util::durable
