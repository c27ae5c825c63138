#include "ckpt/artifact.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "ckpt/bytes.h"
#include "ckpt/crc32.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/fail.h"

namespace retia::ckpt {

namespace {

constexpr char kMagic[] = "RETIACKPT2\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;  // 11
constexpr uint32_t kFormatVersion = 2;
// Sanity cap: an artifact with more sections than this is garbage, not a
// checkpoint; it bounds allocations before the file CRC is verified.
constexpr uint32_t kMaxSections = 1u << 20;
// Durable writes go out in bounded chunks so the fail layer can target
// "the Nth write" inside a single artifact, not just whole files.
constexpr size_t kWriteChunk = 64 * 1024;

Result IoError(const std::string& what, const std::string& path) {
  return Result::Error(ErrorCode::kIoError,
                       what + " " + path + ": " + std::strerror(errno));
}

bool StartsWith(std::string_view bytes, std::string_view prefix) {
  return bytes.size() >= prefix.size() &&
         std::memcmp(bytes.data(), prefix.data(), prefix.size()) == 0;
}

}  // namespace

void ArtifactWriter::AddSection(std::string name, std::string payload) {
  for (const auto& [existing, unused] : sections_) {
    RETIA_CHECK_MSG(existing != name,
                    "duplicate artifact section '" << name << "'");
  }
  sections_.emplace_back(std::move(name), std::move(payload));
}

std::string ArtifactWriter::Serialize() const {
  ByteWriter w;
  w.Raw(kMagic, kMagicLen);
  w.U32(kFormatVersion);
  w.U32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    w.Str(name);
    w.U64(payload.size());
    w.U32(Crc32(payload));
    w.Raw(payload.data(), payload.size());
  }
  const uint32_t file_crc = Crc32(w.bytes());
  w.U32(file_crc);
  return w.Take();
}

Result ArtifactWriter::WriteFile(const std::string& path) const {
  RETIA_OBS_TIMED_SCOPE("ckpt.save.us");
  const std::string bytes = Serialize();
  Result r = WriteFileDurably(path, bytes);
  if (r.ok()) {
    RETIA_OBS_COUNTER_ADD("ckpt.save.bytes",
                          static_cast<int64_t>(bytes.size()));
  }
  return r;
}

Result WriteFileDurably(const std::string& path, std::string_view bytes) {
  fail::InstallPlanFromEnvOnce();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return IoError("cannot open", tmp);

  size_t off = 0;
  while (off < bytes.size()) {
    const size_t chunk = std::min(bytes.size() - off, kWriteChunk);
    if (fail::ShouldFailWrite()) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Result::Error(ErrorCode::kIoError,
                           "injected write failure at byte " +
                               std::to_string(off) + " of " + tmp);
    }
    const ssize_t n = ::write(fd, bytes.data() + off, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Result r = IoError("write to", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return r;
    }
    off += static_cast<size_t>(n);
  }

  // A lying close: the plan may shear the file after we wrote everything,
  // modelling storage that acknowledged bytes it never kept. The artifact
  // still gets published — proving the *reader* rejects torn files.
  const int64_t truncate_to = fail::TruncateOnCloseBytes();
  if (truncate_to >= 0 &&
      truncate_to < static_cast<int64_t>(bytes.size())) {
    ::ftruncate(fd, static_cast<off_t>(truncate_to));
  }

  if (::fsync(fd) != 0) {
    const Result r = IoError("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return r;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return IoError("close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Result r = IoError("rename to", path);
    ::unlink(tmp.c_str());
    return r;
  }
  // The commit point. A SIGKILL here (which the fail layer can inject)
  // must leave a complete, loadable artifact at `path`.
  fail::MaybeCrashAfterRename();

  // Make the rename itself durable. Best effort: some filesystems refuse
  // fsync on directories, and the data is already safe.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  return Result::Ok();
}

Result ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return IoError("cannot open", path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return IoError("cannot read", path);
  *out = std::move(bytes);
  return Result::Ok();
}

Result ArtifactReader::Open(const std::string& path, ArtifactReader* out) {
  RETIA_OBS_TIMED_SCOPE("ckpt.load.us");
  std::string bytes;
  Result r = ReadFileBytes(path, &bytes);
  if (r.ok()) r = Parse(std::move(bytes), out);
  if (!r.ok()) {
    RETIA_OBS_COUNTER_ADD("ckpt.load.errors", 1);
    // Prefix the path so "section 'x' truncated" errors name the file.
    return Result::Error(r.code(), path + ": " + r.detail());
  }
  return r;
}

Result ArtifactReader::Parse(std::string bytes, ArtifactReader* out) {
  const std::string_view view(bytes);
  if (!StartsWith(view, std::string_view(kMagic, kMagicLen))) {
    if (view.size() < kMagicLen &&
        std::memcmp(view.data(), kMagic, view.size()) == 0) {
      return Result::Error(ErrorCode::kTruncated,
                           "file ends inside the artifact magic");
    }
    // Any other prefix, the v1 RETIACKPT1/RETIASIDE1 magics included.
    return Result::Error(ErrorCode::kBadMagic, "not a RETIA v2 artifact");
  }

  ByteReader header(view.substr(kMagicLen), "artifact header");
  uint32_t version = 0;
  RETIA_CKPT_RETURN_IF_ERROR(header.U32(&version));
  if (version != kFormatVersion) {
    return Result::Error(ErrorCode::kBadVersion,
                         "artifact format version " + std::to_string(version) +
                             ", this build reads version " +
                             std::to_string(kFormatVersion));
  }
  uint32_t count = 0;
  RETIA_CKPT_RETURN_IF_ERROR(header.U32(&count));
  if (count > kMaxSections) {
    return Result::Error(ErrorCode::kCorrupt,
                         "implausible section count " + std::to_string(count));
  }

  // Structural parse with explicit bounds checks against the *actual* file
  // size; declared lengths are never trusted past the bytes present.
  size_t pos = kMagicLen + 2 * sizeof(uint32_t);
  std::vector<Entry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const std::string at = "section " + std::to_string(i);
    ByteReader rec(view.substr(pos), at);
    std::string name;
    RETIA_CKPT_RETURN_IF_ERROR(rec.Str(&name));
    uint64_t payload_len = 0;
    RETIA_CKPT_RETURN_IF_ERROR(rec.U64(&payload_len));
    uint32_t stored_crc = 0;
    RETIA_CKPT_RETURN_IF_ERROR(rec.U32(&stored_crc));
    const size_t payload_off =
        pos + sizeof(uint32_t) + name.size() + sizeof(uint64_t) +
        sizeof(uint32_t);
    if (payload_len > view.size() - payload_off) {
      return Result::Error(ErrorCode::kTruncated,
                           "file ends inside the payload of section '" +
                               name + "'");
    }
    const std::string_view payload = view.substr(payload_off,
                                                 payload_len);
    if (Crc32(payload) != stored_crc) {
      return Result::Error(ErrorCode::kCorrupt,
                           "CRC mismatch in section '" + name + "'");
    }
    for (const Entry& e : entries) {
      if (e.name == name) {
        return Result::Error(ErrorCode::kCorrupt,
                             "duplicate section '" + name + "'");
      }
    }
    entries.push_back(Entry{name, payload_off, payload_len});
    pos = payload_off + payload_len;
  }

  if (view.size() - pos < sizeof(uint32_t)) {
    return Result::Error(ErrorCode::kTruncated,
                         "file ends before the file-CRC footer");
  }
  if (view.size() - pos > sizeof(uint32_t)) {
    return Result::Error(ErrorCode::kCorrupt,
                         std::to_string(view.size() - pos - sizeof(uint32_t)) +
                             " trailing bytes after the file-CRC footer");
  }
  uint32_t stored_file_crc = 0;
  std::memcpy(&stored_file_crc, view.data() + pos, sizeof(uint32_t));
  const uint32_t actual = Crc32Update(0, view.data(), pos);
  if (actual != stored_file_crc) {
    return Result::Error(ErrorCode::kCorrupt, "file CRC mismatch");
  }

  out->bytes_ = std::move(bytes);
  out->entries_ = std::move(entries);
  return Result::Ok();
}

bool ArtifactReader::Has(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

Result ArtifactReader::Section(std::string_view name,
                               std::string_view* out) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      *out = std::string_view(bytes_).substr(e.offset, e.length);
      return Result::Ok();
    }
  }
  return Result::Error(ErrorCode::kMissingSection,
                       "artifact has no section '" + std::string(name) + "'");
}

std::vector<std::string> ArtifactReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

}  // namespace retia::ckpt
