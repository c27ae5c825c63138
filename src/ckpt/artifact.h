#ifndef RETIA_CKPT_ARTIFACT_H_
#define RETIA_CKPT_ARTIFACT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/result.h"

namespace retia::ckpt {

// The RETIACKPT2 artifact container: one file holding named, individually
// CRC-guarded sections (docs/CHECKPOINTS.md is the normative spec).
//
// Layout (fixed-width fields in native little-endian order):
//   magic   "RETIACKPT2\n"                                    (11 bytes)
//   u32     format version (= 2)
//   u32     section count
//   per section:
//     u32   name length, name bytes
//     u64   payload length
//     u32   CRC-32 of the payload
//     payload bytes
//   u32     CRC-32 of every preceding byte (magic through last payload)
//
// Integrity: a bit flip in a payload fails that section's CRC (the error
// names the section); a flip anywhere else fails the file CRC or the
// structural parse; any truncation is caught by bounds checks or the
// missing footer. A reader never trusts a declared length beyond the
// bytes actually present.
//
// Durability: WriteFile serializes to <path>.tmp, write(2)s in bounded
// chunks, fsyncs, closes, renames over <path>, then fsyncs the parent
// directory — a crash at any point leaves either the complete old file or
// the complete new file. Every step is routed through the retia::fail
// hooks so the guarantee is provable under injected faults.

class ArtifactWriter {
 public:
  // Sections are written in insertion order. Names must be unique.
  void AddSection(std::string name, std::string payload);

  // Full serialized artifact (exposed so tests can corrupt known offsets).
  std::string Serialize() const;

  // Atomically replaces `path` with this artifact.
  Result WriteFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

class ArtifactReader {
 public:
  // Reads and fully validates `path` (structure, per-section CRCs, file
  // CRC). Any file without the RETIACKPT2 magic, v1 files included, is
  // kBadMagic.
  static Result Open(const std::string& path, ArtifactReader* out);

  // Same validation over an in-memory artifact (tests, corruption matrix).
  static Result Parse(std::string bytes, ArtifactReader* out);

  bool Has(std::string_view name) const;

  // Payload view of section `name`; kMissingSection when absent. The view
  // borrows the reader's buffer and lives as long as the reader.
  Result Section(std::string_view name, std::string_view* out) const;

  std::vector<std::string> SectionNames() const;

 private:
  struct Entry {
    std::string name;
    size_t offset = 0;  // payload offset into bytes_
    size_t length = 0;
  };

  std::string bytes_;
  std::vector<Entry> entries_;
};

// The atomic tmp-file + fsync + rename protocol on raw bytes. Consults the
// retia::fail hooks.
Result WriteFileDurably(const std::string& path, std::string_view bytes);

// Reads a whole file; kIoError when it cannot be opened or read.
Result ReadFileBytes(const std::string& path, std::string* out);

}  // namespace retia::ckpt

#endif  // RETIA_CKPT_ARTIFACT_H_
