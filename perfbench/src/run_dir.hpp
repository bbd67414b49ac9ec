// A run's private scratch directory (db store, socket, journal), made
// under kOutDir and removed with everything in it when the
// run ends.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common.hpp"

namespace perfbench {

class RunDir {
 public:
  RunDir() : path_(std::string(kOutDir) + "/run-" + std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
