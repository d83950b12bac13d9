// The oracle every served HIP weight is checked against: the owning-scan
// HipEstimator over the same sketch. A backend's weights — stored in the
// file's HIP section or computed when the engine opened the file — must
// reproduce its grouped entry sequence bitwise, and every k-mins filler
// slot (tau == 0) must carry a zero weight.

#ifndef HIPADS_TESTS_HIP_ORACLE_H_
#define HIPADS_TESTS_HIP_ORACLE_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "ads/backend.h"
#include "ads/estimators.h"

namespace hipads {

inline ::testing::AssertionResult HipMatchesScanOracle(
    AdsView ads, HipView hip, uint32_t k, SketchFlavor flavor,
    const RankAssignment& ranks) {
  if (!ads.empty() && !hip.present()) {
    return ::testing::AssertionFailure() << "HIP weights absent";
  }
  for (size_t i = 0; i < ads.size(); ++i) {
    if (hip.tau[i] == 0.0 && hip.weight[i] != 0.0) {
      return ::testing::AssertionFailure()
             << "filler slot " << i << " carries weight " << hip.weight[i];
    }
  }
  std::vector<HipEntry> served =
      HipEstimator(ads, hip.tau, hip.weight).CopyEntries();
  std::vector<HipEntry> oracle =
      HipEstimator(ads, k, flavor, ranks).CopyEntries();
  if (served.size() != oracle.size()) {
    return ::testing::AssertionFailure()
           << served.size() << " served entries, oracle has "
           << oracle.size();
  }
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (size_t i = 0; i < served.size(); ++i) {
    const HipEntry& a = served[i];
    const HipEntry& b = oracle[i];
    if (a.node != b.node || bits(a.dist) != bits(b.dist) ||
        bits(a.tau) != bits(b.tau) || bits(a.weight) != bits(b.weight)) {
      return ::testing::AssertionFailure()
             << "entry " << i << " (node " << a.node << "): tau " << a.tau
             << " weight " << a.weight << ", oracle tau " << b.tau
             << " weight " << b.weight;
    }
  }
  return ::testing::AssertionSuccess();
}

// Every node of `backend` serves present weights matching the oracle.
inline ::testing::AssertionResult BackendMatchesScanOracle(
    const AdsBackend& backend) {
  for (NodeId v = 0; v < backend.num_nodes(); ++v) {
    auto view = backend.ViewOf(v);
    auto hip = backend.HipOf(v);
    if (!view.ok() || !hip.ok()) {
      return ::testing::AssertionFailure()
             << "node " << v << ": "
             << (view.ok() ? hip.status() : view.status()).ToString();
    }
    auto result = HipMatchesScanOracle(view.value(), hip.value(),
                                       backend.k(), backend.flavor(),
                                       backend.ranks());
    if (!result) return result << " at node " << v;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace hipads

#endif  // HIPADS_TESTS_HIP_ORACLE_H_
