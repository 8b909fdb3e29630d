// SPDX-License-Identifier: MIT
#include "util/build_info.hpp"

#include <fstream>
#include <thread>

// CMake defines these on this translation unit only, so an edit to the
// flags or a new commit recompiles one file, not the library.
#ifndef COBRA_GIT_HASH
#define COBRA_GIT_HASH "unknown"
#endif
#ifndef COBRA_COMPILER
#define COBRA_COMPILER "unknown"
#endif
#ifndef COBRA_BUILD_FLAGS
#define COBRA_BUILD_FLAGS "unknown"
#endif

namespace cobra {

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string json_escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string build_git_hash() { return COBRA_GIT_HASH; }

std::string build_compiler() { return COBRA_COMPILER; }

std::string build_flags() { return COBRA_BUILD_FLAGS; }

std::string build_info_string() {
  return "git=" + build_git_hash() + " compiler=" + build_compiler() +
         " flags=" + build_flags();
}

std::string host_json() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + json_escaped(cpu_model()) +
         "\", \"build_info\": \"" + json_escaped(build_info_string()) + "\"}";
}

}  // namespace cobra
