#include "place/checkpoint.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/serialize.h"

namespace dreamplace {

namespace {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the zlib/PNG
/// checksum. It detects every single-bit flip and every burst of up to
/// 32 bits.
std::uint32_t crc32(const char* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFU] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

void encodeFlowResult(ByteWriter& w, const FlowResult& r) {
  w.f64(r.hpwlGp);
  w.f64(r.hpwlLegal);
  w.f64(r.hpwl);
  w.f64(r.overflow);
  w.i32(r.gpIterations);
  w.u8(r.legal ? 1 : 0);
  w.u8(r.lgFallback ? 1 : 0);
  w.i32(r.lgFailedCells);
  w.f64(r.gpSeconds);
  w.f64(r.lgSeconds);
  w.f64(r.dpSeconds);
  w.f64(r.nlSeconds);
  w.f64(r.grSeconds);
  w.f64(r.rc);
  w.f64(r.sHpwl);
  w.f64(r.totalSeconds);
}

FlowResult decodeFlowResult(ByteReader& r) {
  FlowResult out;
  out.hpwlGp = r.f64();
  out.hpwlLegal = r.f64();
  out.hpwl = r.f64();
  out.overflow = r.f64();
  out.gpIterations = r.i32();
  out.legal = r.u8() != 0;
  out.lgFallback = r.u8() != 0;
  out.lgFailedCells = r.i32();
  out.gpSeconds = r.f64();
  out.lgSeconds = r.f64();
  out.dpSeconds = r.f64();
  out.nlSeconds = r.f64();
  out.grSeconds = r.f64();
  out.rc = r.f64();
  out.sHpwl = r.f64();
  out.totalSeconds = r.f64();
  return out;
}

}  // namespace

std::string encodeCheckpoint(const CheckpointData& data) {
  ByteWriter w;
  w.u32(CheckpointData::kMagic);
  w.u32(CheckpointData::kVersion);
  w.u8(data.precision);
  w.str(data.signature);
  w.u32(data.stageCursor);
  w.u8(data.midStage ? 1 : 0);
  w.str(data.stageState);
  encodeFlowResult(w, data.result);
  w.f64Vec(data.cellX);
  w.f64Vec(data.cellY);
  w.u64(data.counters.size());
  for (const auto& [key, value] : data.counters) {
    w.str(key);
    w.i64(value);
  }
  w.u32(crc32(w.data().data(), w.data().size()));
  return w.take();
}

CheckpointData decodeCheckpoint(const std::string& bytes) {
  ByteReader r(bytes);
  if (r.u32() != CheckpointData::kMagic) {
    throw std::runtime_error("checkpoint: bad magic (not a checkpoint file)");
  }
  const std::uint32_t version = r.u32();
  if (version != CheckpointData::kVersion) {
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(CheckpointData::kVersion) + ")");
  }
  // The last four bytes hold the CRC-32 of every byte before them (the
  // header just read guarantees there are at least four).
  constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);
  const std::size_t body = bytes.size() - kCrcBytes;
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, kCrcBytes);
  if (stored != crc32(bytes.data(), body)) {
    throw std::runtime_error("checkpoint: checksum mismatch");
  }
  CheckpointData data;
  data.precision = r.u8();
  data.signature = r.str();
  data.stageCursor = r.u32();
  data.midStage = r.u8() != 0;
  data.stageState = r.str();
  data.result = decodeFlowResult(r);
  data.cellX = r.f64Vec<double>();
  data.cellY = r.f64Vec<double>();
  if (data.cellX.size() != data.cellY.size()) {
    throw std::runtime_error("checkpoint: mismatched position vectors");
  }
  for (std::size_t i = 0; i < data.cellX.size(); ++i) {
    if (!std::isfinite(data.cellX[i]) || !std::isfinite(data.cellY[i])) {
      throw std::runtime_error("checkpoint: non-finite position for cell " +
                               std::to_string(i));
    }
  }
  const std::uint64_t n = r.u64();
  data.counters.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.str();
    const std::int64_t value = r.i64();
    data.counters.emplace_back(std::move(key), value);
  }
  if (r.remaining() != kCrcBytes) {
    throw std::runtime_error("checkpoint: trailing bytes after document");
  }
  return data;
}

bool writeCheckpointFile(const std::string& path, const CheckpointData& data,
                         std::string* error) {
  const std::string bytes = encodeCheckpoint(data);
  // Create the checkpoint directory on demand (callers may point at a
  // directory that does not exist yet); a real failure still surfaces
  // through the open below.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  // tmp+rename: a reader (or a resumed attempt after a crash) never sees
  // a half-written checkpoint.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(bytes.data(),
                           static_cast<std::streamsize>(bytes.size())) ||
        !out.flush()) {
      if (error != nullptr) {
        *error = "checkpoint: cannot write " + tmp;
      }
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "checkpoint: cannot rename " + tmp + " to " + path;
    }
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

CheckpointData loadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return decodeCheckpoint(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + " (" + path + ")");
  }
}

std::string checkpointFilePath(const PlacerOptions& options) {
  if (options.checkpointDir.empty()) {
    return {};
  }
  const std::string name =
      options.checkpointName.empty() ? "flow" : options.checkpointName;
  return options.checkpointDir + "/" + name + ".dpck";
}

}  // namespace dreamplace
