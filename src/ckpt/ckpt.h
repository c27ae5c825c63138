#ifndef RETIA_CKPT_CKPT_H_
#define RETIA_CKPT_CKPT_H_

// retia::ckpt umbrella header — the crash-safe, versioned artifact
// subsystem that owns every durable byte of model/training/serving state:
//
//   result.h    [[nodiscard]] Result + the ErrorCode taxonomy
//   bytes.h     bounds-checked section payload encoding
//   artifact.h  RETIACKPT2 sectioned container, atomic durable writes
//   model_io.h  typed sections (params, Adam, RNG, meta, static types)
//               and the unified model artifact (the serve snapshot)
//
// Crash-safety contract: a save either atomically replaces the target
// file with a fully valid artifact or leaves the previous file untouched;
// a load either fully validates (magic, version, per-section CRC32, file
// CRC32, schema against the in-memory target) or returns an error naming
// what is wrong — it never aborts and never partially applies. The
// retia::fail hooks (util/fail.h) inject write failures, torn closes, and
// post-rename SIGKILLs to prove this under test.
//
// See docs/CHECKPOINTS.md for the format spec and resume semantics, and
// train/trainer.h for SaveState/ResumeState built on these sections.

#include "ckpt/artifact.h"   // IWYU pragma: export
#include "ckpt/bytes.h"      // IWYU pragma: export
#include "ckpt/model_io.h"   // IWYU pragma: export
#include "ckpt/result.h"     // IWYU pragma: export

#endif  // RETIA_CKPT_CKPT_H_
