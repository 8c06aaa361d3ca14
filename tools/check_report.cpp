// CI regression gate: checks a flow run report (place/report.h JSON)
// against a baseline of deterministic count invariants.
//
//   check_report <report.json> [<baseline.json>]
//                [--expect-status=<job>:<status>]...
//                [--compare-jobs=<jobA>,<jobB>]
//
// <report.json> may be a single run report (dreamplace.run_report.v2) or
// a PlacementEngine batch report (dreamplace.batch_report.v1); for a
// batch, every job must have succeeded and every job's embedded run
// report is checked against the same baseline. --expect-status overrides
// the required terminal status for one job — the CI health-gate uses it
// to assert that injected sick jobs end exactly `diverged` / `stalled`
// (such jobs carry no run report and are exempt from the baseline).
//
// --compare-jobs is the CI resume-gate: it requires a batch report and
// asserts that the two named succeeded jobs agree bit-for-bit on every
// result./design. leaf and every resume-comparable counter (wall-times
// and resume-variant counters excluded — see
// compareBatchJobsForResume, place/report_check.h). The baseline
// argument is optional in this mode; when given, the baseline checks
// run as well.
//
// Prints one PASS/FAIL line per baseline check and exits non-zero when
// any check fails or either document is malformed. Baselines compare
// *counts* (transform-per-solve ratios, workspace allocations, dropped
// trace events), never wall-times — see tools/report_baseline.json and
// docs/OBSERVABILITY.md.
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "place/report_check.h"

namespace {

bool readFile(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dreamplace;

  BatchCheckOptions check_options;
  std::string compare_job_a;
  std::string compare_job_b;
  bool compare_jobs = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string kCompare = "--compare-jobs=";
    if (arg.compare(0, kCompare.size(), kCompare) == 0) {
      const std::string spec = arg.substr(kCompare.size());
      const std::size_t comma = spec.find(',');
      if (comma == std::string::npos || comma == 0 ||
          comma + 1 == spec.size()) {
        std::fprintf(stderr,
                     "error: bad --compare-jobs '%s' (want <jobA>,<jobB>)\n",
                     spec.c_str());
        return 2;
      }
      compare_job_a = spec.substr(0, comma);
      compare_job_b = spec.substr(comma + 1);
      compare_jobs = true;
      continue;
    }
    const std::string kExpect = "--expect-status=";
    if (arg.compare(0, kExpect.size(), kExpect) == 0) {
      const std::string spec = arg.substr(kExpect.size());
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == spec.size()) {
        std::fprintf(stderr,
                     "error: bad --expect-status '%s' (want <job>:<status>)\n",
                     spec.c_str());
        return 2;
      }
      check_options.expectedStatus[spec.substr(0, colon)] =
          spec.substr(colon + 1);
      continue;
    }
    positional.push_back(argv[i]);
  }

  const bool want_baseline = !compare_jobs || positional.size() == 2;
  if (positional.size() != (want_baseline ? 2u : 1u)) {
    std::fprintf(stderr,
                 "usage: %s <report.json> [<baseline.json>] "
                 "[--expect-status=<job>:<status>]... "
                 "[--compare-jobs=<jobA>,<jobB>]\n",
                 argv[0]);
    return 2;
  }

  std::string report_text;
  std::string baseline_text;
  if (!readFile(positional[0], report_text)) {
    std::fprintf(stderr, "error: cannot read report %s\n", positional[0]);
    return 2;
  }
  if (want_baseline && !readFile(positional[1], baseline_text)) {
    std::fprintf(stderr, "error: cannot read baseline %s\n", positional[1]);
    return 2;
  }

  FlatJson report;
  FlatJson baseline;
  std::string error;
  if (!parseJsonFlat(report_text, report, &error)) {
    std::fprintf(stderr, "error: report %s: %s\n", positional[0],
                 error.c_str());
    return 2;
  }
  if (want_baseline && !parseJsonFlat(baseline_text, baseline, &error)) {
    std::fprintf(stderr, "error: baseline %s: %s\n", positional[1],
                 error.c_str());
    return 2;
  }

  int compare_failed = 0;
  if (compare_jobs) {
    if (!isBatchReport(report)) {
      std::fprintf(stderr,
                   "error: --compare-jobs requires a batch report, %s is "
                   "not one\n",
                   positional[0]);
      return 2;
    }
    std::vector<CheckResult> compared;
    if (!compareBatchJobsForResume(report, compare_job_a, compare_job_b,
                                   compared, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    for (const CheckResult& result : compared) {
      if (!result.passed) {
        ++compare_failed;
      }
      std::printf("%s  [%s==%s] %s  (%s)\n", result.passed ? "PASS" : "FAIL",
                  compare_job_a.c_str(), compare_job_b.c_str(),
                  result.description.c_str(), result.detail.c_str());
    }
    std::printf("%zu resume-identity checks, %d failed\n", compared.size(),
                compare_failed);
    if (!want_baseline) {
      return compare_failed == 0 ? 0 : 1;
    }
  }

  if (isBatchReport(report)) {
    std::vector<BatchJobCheck> jobs;
    if (!checkBatchReport(report, baseline, jobs, &error, check_options)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    int failed = 0;
    std::size_t checks = 0;
    for (const BatchJobCheck& job : jobs) {
      if (!job.succeeded) {
        ++failed;
        std::printf("FAIL  [%s] job status %s (expected %s)\n",
                    job.name.c_str(), job.status.c_str(),
                    job.expected.c_str());
        continue;
      }
      if (job.status != "succeeded") {
        std::printf("PASS  [%s] job status %s (as expected)\n",
                    job.name.c_str(), job.status.c_str());
        continue;
      }
      for (const CheckResult& result : job.results) {
        ++checks;
        if (!result.passed) {
          ++failed;
        }
        std::printf("%s  [%s] %s  (%s)\n", result.passed ? "PASS" : "FAIL",
                    job.name.c_str(), result.description.c_str(),
                    result.detail.c_str());
      }
    }
    std::printf("%zu jobs, %zu checks, %d failed\n", jobs.size(), checks,
                failed);
    return (failed + compare_failed) == 0 ? 0 : 1;
  }

  std::vector<CheckResult> results;
  if (!checkReport(report, baseline, results, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  int failed = 0;
  for (const CheckResult& result : results) {
    if (!result.passed) {
      ++failed;
    }
    std::printf("%s  %s  (%s)\n", result.passed ? "PASS" : "FAIL",
                result.description.c_str(), result.detail.c_str());
  }
  std::printf("%zu checks, %d failed\n", results.size(), failed);
  return (failed + compare_failed) == 0 ? 0 : 1;
}
