// Flow checkpoints: versioned binary snapshots of a placement flow.
//
// A checkpoint captures everything a resumed flow needs to continue
// bit-identically (float64) from where the original stopped: the movable
// cell positions, the pipeline stage cursor, the partial FlowResult, the
// flow's counter registry, and — for a checkpoint taken mid-stage — the
// in-progress stage's serialized state (optimizer vectors, density
// weight, EMA, overflow; see GlobalPlacer's resume hooks). Checkpoints
// are written atomically (tmp+rename) at stage boundaries and every
// PlacerOptions::checkpointEveryIterations GP iterations; a flow that
// completes deletes its checkpoint. PlacementEngine's retry loop points
// PlacerOptions::resumeFrom at the file so attempt 2+ continues instead
// of restarting. Format and semantics: docs/FLOW.md.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "place/placer.h"

namespace dreamplace {

struct CheckpointData {
  static constexpr std::uint32_t kMagic = 0x4B435044;  // "DPCK" (LE)
  /// 2: the document ends in a CRC-32 of every byte before it.
  static constexpr std::uint32_t kVersion = 2;

  std::uint8_t precision = 1;  ///< 0 = float32, 1 = float64.
  /// '|'-joined stage names of the producing pipeline; a resume rejects a
  /// checkpoint whose signature does not match the pipeline it would run.
  std::string signature;
  std::uint32_t stageCursor = 0;  ///< Index of the next stage to run.
  bool midStage = false;  ///< Stage at the cursor is partially done.
  std::string stageState;  ///< Its state blob (empty unless midStage).
  FlowResult result;       ///< Stage results accumulated so far.
  /// Movable-cell lower-left positions at checkpoint time (always f64;
  /// exact for f32 flows too).
  std::vector<double> cellX;
  std::vector<double> cellY;
  /// Flow counter registry snapshot, restored additively so a resumed
  /// flow's work counters continue from the original run's values.
  /// Resume-variant keys (isResumeVariantCounter, place/engine.h) are
  /// skipped on restore and stay per-segment.
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

std::string encodeCheckpoint(const CheckpointData& data);
/// Throws std::runtime_error on a truncated / corrupt / wrong-version
/// document; any change to a byte after the version fails the CRC-32
/// ("checkpoint: checksum mismatch").
CheckpointData decodeCheckpoint(const std::string& bytes);

/// Atomic write: writes `path`.tmp, then renames it over `path`. Returns
/// false with a message in `error` on failure.
bool writeCheckpointFile(const std::string& path, const CheckpointData& data,
                         std::string* error = nullptr);
/// Reads and decodes; throws std::runtime_error naming the path on any
/// failure.
CheckpointData loadCheckpointFile(const std::string& path);

/// Resolved checkpoint file path for a flow, "" when checkpointing is off
/// (empty checkpointDir). Uses checkpointName, defaulting to "flow".
std::string checkpointFilePath(const PlacerOptions& options);

}  // namespace dreamplace
