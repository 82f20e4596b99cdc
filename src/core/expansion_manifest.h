#ifndef CCDB_CORE_EXPANSION_MANIFEST_H_
#define CCDB_CORE_EXPANSION_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/journal.h"
#include "common/status.h"
#include "core/expansion.h"

namespace ccdb::core {

/// Where (and how eagerly) the incremental expansion persists its durable
/// state. The manifest is an append-only ccdb journal holding one record
/// per completed checkpoint, so a crashed `RunIncrementalExpansionDurable`
/// resumes from the last checkpoint that reached the disk instead of
/// re-paying the whole boosting loop.
struct DurableExpansionOptions {
  /// Path of the checkpoint manifest journal.
  std::string manifest_path;
  /// fsync policy of checkpoint appends (kBatch = one sync per checkpoint).
  SyncPolicy sync = SyncPolicy::kBatch;
  /// Filesystem backend (ResolveFs convention: nullptr = the real one).
  Fs* fs = nullptr;
};

/// Durable state recovered from an expansion manifest journal: the
/// gap-free prefix of checkpoints that fully reached the disk.
struct ExpansionManifest {
  bool begun = false;
  /// Fingerprint of the run's inputs (sample, judgment stream, options).
  std::uint64_t fingerprint = 0;
  /// True when the finish record was written — the run completed and the
  /// checkpoints below are the full result.
  bool finished = false;
  std::vector<ExpansionCheckpoint> checkpoints;
};

/// Fingerprint of an incremental expansion's inputs. Stored in the
/// manifest's begin record; a resume whose inputs hash differently is
/// rejected (InvalidArgument) instead of splicing two runs together.
std::uint64_t ExpansionFingerprint(
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options);

/// Byte-exact checkpoint serialization (doubles stored as IEEE-754 bit
/// patterns, so a decode(encode(c)) round trip reproduces c bitwise).
std::string EncodeExpansionCheckpoint(const ExpansionCheckpoint& checkpoint);
[[nodiscard]] StatusOr<ExpansionCheckpoint> DecodeExpansionCheckpoint(
    std::string_view bytes);

/// Reads and replays a manifest journal (NotFound when absent; corrupt
/// non-tail records are InvalidArgument, a torn tail is dropped).
[[nodiscard]]
StatusOr<ExpansionManifest> LoadExpansionManifest(const std::string& path,
                                                  Fs* fs = nullptr);

/// Durable variant of RunIncrementalExpansion: every checkpoint is
/// appended to the manifest journal (and synced per `options.sync`) before
/// the loop advances. If the manifest already holds checkpoints from an
/// interrupted run with the same input fingerprint, they are loaded
/// verbatim and the loop continues after them — the returned vector is
/// bit-identical to an uninterrupted run's.
[[nodiscard]]
StatusOr<std::vector<ExpansionCheckpoint>> RunIncrementalExpansionDurable(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options,
    const DurableExpansionOptions& durable);

}  // namespace ccdb::core

#endif  // CCDB_CORE_EXPANSION_MANIFEST_H_
