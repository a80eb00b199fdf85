// Per-test scratch directories.
//
// gtest_discover_tests registers every TEST as its own ctest case, so
// `ctest -j` runs cases of one binary concurrently in separate processes.
// A fixed scratch path would then be shared — and one case's cleanup
// would delete another's files. ScratchDir names the directory after the
// running test and the process id, so no two cases ever share one.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace earthred::test {

/// A fresh, empty directory under the system temp dir, unique to the
/// running test and process; removed with its contents on destruction.
struct ScratchDir {
  std::filesystem::path path;

  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "earthred-";
    name += info ? std::string(info->test_suite_name()) + "." + info->name()
                 : std::string("no-test");
    name += "-" + std::to_string(::getpid());
    // Parameterized test names carry '/'; keep the path one component.
    for (char& c : name)
      if (c == '/') c = '_';
    path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// The directory as a string (what PlanStore and friends take).
  std::string str() const { return path.string(); }
  /// A path to `file` inside the directory.
  std::string file(const std::string& file) const {
    return (path / file).string();
  }
};

}  // namespace earthred::test
