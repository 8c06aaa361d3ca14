// Memory accounting (common/memory.h): process peak-RSS sampling,
// MemoryTracker attribution, and the TrackedBytes RAII handle the
// workspace-owning classes report through.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/flow_context.h"
#include "common/memory.h"
#include "fft/dct2d.h"

namespace dreamplace {
namespace {

/// Tracker tests record into the memory tracker of their own FlowContext.
class LocalTrackerTest : public ::testing::Test {
 protected:
  MemoryTracker& tracker() { return context_.memory(); }

  FlowContext context_;
  FlowContextScope scope_{context_};
};
using MemoryTrackerTest = LocalTrackerTest;
using TrackedBytesTest = LocalTrackerTest;

TEST(ProcessMemoryTest, SampleIsValidOnLinux) {
  const ProcessMemory mem = sampleProcessMemory();
  ASSERT_TRUE(mem.valid);
  EXPECT_GT(mem.vmRssBytes, 0);
  EXPECT_GE(mem.vmHwmBytes, mem.vmRssBytes);
}

TEST(ProcessMemoryTest, PeakIsMonotonic) {
  const ProcessMemory before = sampleProcessMemory();
  ASSERT_TRUE(before.valid);
  {
    // Touch every page so the allocation is resident, not just reserved.
    std::vector<char> ballast(16u << 20, 1);
    const ProcessMemory during = sampleProcessMemory();
    EXPECT_GE(during.vmHwmBytes, before.vmHwmBytes);
  }
  const ProcessMemory after = sampleProcessMemory();
  // The high-water mark survives the release even if VmRSS drops.
  EXPECT_GE(after.vmHwmBytes, before.vmHwmBytes);
}

TEST_F(MemoryTrackerTest, AdjustTracksCurrentAndPeak) {
  tracker().adjust("test/mem/adjust", 100);
  tracker().adjust("test/mem/adjust", 50);
  EXPECT_EQ(tracker().current("test/mem/adjust"), 150);
  EXPECT_EQ(tracker().peak("test/mem/adjust"), 150);
  tracker().adjust("test/mem/adjust", -150);
  EXPECT_EQ(tracker().current("test/mem/adjust"), 0);
  EXPECT_EQ(tracker().peak("test/mem/adjust"), 150);
}

TEST_F(MemoryTrackerTest, CurrentClampsAtZero) {
  tracker().adjust("test/mem/clamp", -1000);
  EXPECT_EQ(tracker().current("test/mem/clamp"), 0);
  tracker().adjust("test/mem/clamp", 10);
  EXPECT_EQ(tracker().current("test/mem/clamp"), 10);
  tracker().adjust("test/mem/clamp", -10);
}

TEST_F(MemoryTrackerTest, PrefixSumsAcrossSubsystems) {
  tracker().adjust("test/mem/prefix/a", 30);
  tracker().adjust("test/mem/prefix/b", 70);
  EXPECT_EQ(tracker().currentPrefix("test/mem/prefix/"), 100);
  const auto snapshot = tracker().snapshot();
  EXPECT_EQ(snapshot.at("test/mem/prefix/a").currentBytes, 30);
  tracker().adjust("test/mem/prefix/a", -30);
  tracker().adjust("test/mem/prefix/b", -70);
}

TEST_F(TrackedBytesTest, ReleasesOnDestruction) {
  const std::int64_t before = tracker().current("test/mem/raii");
  {
    TrackedBytes handle("test/mem/raii");
    handle.set(1000);
    EXPECT_EQ(tracker().current("test/mem/raii"), before + 1000);
    handle.set(400);  // shrink adjusts by the delta
    EXPECT_EQ(tracker().current("test/mem/raii"), before + 400);
    handle.grow(100);
    EXPECT_EQ(tracker().current("test/mem/raii"), before + 500);
  }
  EXPECT_EQ(tracker().current("test/mem/raii"), before);
  EXPECT_GE(tracker().peak("test/mem/raii"), before + 1000);
}

TEST_F(TrackedBytesTest, MoveTransfersTheReservation) {
  const std::int64_t before = tracker().current("test/mem/move");
  TrackedBytes outer("test/mem/move");
  {
    TrackedBytes inner("test/mem/move");
    inner.set(500);
    outer = std::move(inner);
    EXPECT_EQ(outer.bytes(), 500);
    EXPECT_EQ(inner.bytes(), 0);
  }
  // The moved-from handle died without releasing the transferred bytes.
  EXPECT_EQ(tracker().current("test/mem/move"), before + 500);
  outer.set(0);
  EXPECT_EQ(tracker().current("test/mem/move"), before);
}

TEST_F(TrackedBytesTest, Dct2dPlanAttributesItsScratch) {
  for (auto algo : {fft::Dct2dAlgorithm::kFft2dN,
                    fft::Dct2dAlgorithm::kRowCol2N,
                    fft::Dct2dAlgorithm::kRowColN}) {
    SCOPED_TRACE(static_cast<int>(algo));
    const std::int64_t before = tracker().current("fft/scratch");
    {
      fft::Dct2dPlan<float> plan(64, 64, algo);
      // At least the two m*m transform buffers must be attributed.
      EXPECT_GE(tracker().current("fft/scratch") - before,
                static_cast<std::int64_t>(2 * 64 * 64 * sizeof(float)));
    }
    EXPECT_EQ(tracker().current("fft/scratch"), before);
  }
}

}  // namespace
}  // namespace dreamplace
