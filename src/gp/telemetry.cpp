#include "gp/telemetry.h"

#include <stdexcept>

#include "common/trace.h"

namespace dreamplace {

// ---------------------------------------------------------------------------
// JsonlTelemetrySink
// ---------------------------------------------------------------------------

JsonlTelemetrySink::JsonlTelemetrySink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (!file_) {
    throw std::runtime_error("telemetry: cannot write " + path);
  }
}

JsonlTelemetrySink::~JsonlTelemetrySink() {
  if (file_) {
    std::fclose(file_);
  }
}

void JsonlTelemetrySink::onRunBegin(const TelemetryRunInfo& info) {
  std::fprintf(file_,
               "{\"run\":\"%s\",\"nodes\":%d,\"movable\":%d,\"nets\":%d,"
               "\"solver\":\"%s\"}\n",
               jsonEscape(info.label).c_str(), info.numNodes, info.numMovable,
               info.numNets, jsonEscape(info.solver).c_str());
}

void JsonlTelemetrySink::onIteration(const IterationStats& s) {
  std::fprintf(file_,
               "{\"iter\":%d,\"objective\":%.17g,\"wl\":%.17g,"
               "\"density\":%.17g,\"lambda\":%.17g,\"gamma\":%.17g,"
               "\"overflow\":%.17g,\"hpwl\":%.17g,\"step\":%.17g,"
               "\"wl_op_s\":%.6g,\"density_op_s\":%.6g}\n",
               s.iteration, s.objective, s.wirelength, s.density, s.lambda,
               s.gamma, s.overflow, s.hpwl, s.stepSize, s.wlOpSeconds,
               s.densityOpSeconds);
}

void JsonlTelemetrySink::onRunEnd(const GlobalPlacerResult& r) {
  std::fprintf(file_,
               "{\"run_end\":true,\"iterations\":%d,\"hpwl\":%.17g,"
               "\"overflow\":%.17g,\"lambda\":%.17g,\"seconds\":%.6g}\n",
               r.iterations, r.hpwl, r.overflow, r.finalLambda, r.seconds);
  std::fflush(file_);
}

}  // namespace dreamplace
