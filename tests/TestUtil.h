//===- tests/TestUtil.h - Shared test fixtures ------------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixtures shared by the test binaries: a per-test scratch directory,
/// a scoped failpoint plan and a registry counter reader.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_TESTS_TESTUTIL_H
#define CLGEN_TESTS_TESTUTIL_H

#include "support/FailPoint.h"
#include "support/Metrics.h"

#include <filesystem>
#include <string>
#include <system_error>

namespace clgen {
namespace testutil {

/// Fresh scratch directory `<temp>/<Prefix><Name>`, emptied on
/// construction and removed on destruction. ctest runs tests in
/// parallel processes, so each test file passes its own \p Prefix.
class ScratchDir {
public:
  ScratchDir(const std::string &Prefix, const std::string &Name)
      : Path(std::filesystem::temp_directory_path() / (Prefix + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  const std::filesystem::path &path() const { return Path; }
  std::string str() const { return Path.string(); }
  std::string file(const std::string &Name) const {
    return (Path / Name).string();
  }

private:
  std::filesystem::path Path;
};

/// Arms \p Plan for one scope and disarms it on every way out, so a
/// failed ASSERT_ or a throw cannot leave the plan armed for the tests
/// that run after it in the same process.
class ArmedPlan {
public:
  explicit ArmedPlan(const support::FailPlan &Plan) {
    support::FailPoints::arm(Plan);
  }
  ~ArmedPlan() { support::FailPoints::disarm(); }
  ArmedPlan(const ArmedPlan &) = delete;
  ArmedPlan &operator=(const ArmedPlan &) = delete;
};

/// Current value of the registry counter \p Name; 0 when it was never
/// registered. Counters are process-wide, so tests compare before/after
/// deltas.
inline uint64_t counterValue(const char *Name) {
  const support::Counter *C = support::MetricsRegistry::findCounter(Name);
  return C ? C->value() : 0;
}

} // namespace testutil
} // namespace clgen

#endif // CLGEN_TESTS_TESTUTIL_H
