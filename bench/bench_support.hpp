#pragma once
// Shared bench plumbing: run metadata.
//
// Every BENCH_*.json used to be a bare measurement -- comparing two runs
// meant guessing which commit, build type, and pool width produced each.
// meta_json() stamps all of that (plus an ISO-8601 UTC timestamp) into a
// `meta` object every bench embeds.
//
// Header-only on purpose: bench/bench_*.cpp files each glob into their own
// executable, so a bench_support.cpp would itself become a (linkless)
// bench target.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <string>

// Stamped per bench target by CMake (the build type is only knowable
// there); a bare `c++ bench_foo.cpp` build still compiles.
#ifndef LAC_BUILD_TYPE
#define LAC_BUILD_TYPE "unknown"
#endif

namespace lac::bench {

/// The git commit the binary's tree was built from: $LAC_GIT_SHA when set
/// (CI exports it -- containers often run without a .git), else
/// `git rev-parse`, else "unknown". Never fails.
inline std::string run_git_sha() {
  if (const char* env = std::getenv("LAC_GIT_SHA"); env && *env) return env;
  std::string sha;
  if (std::FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, pipe)) sha = buf;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  for (char c : sha)
    if (!std::isxdigit(static_cast<unsigned char>(c))) return "unknown";
  return sha.empty() ? "unknown" : sha;
}

/// Current UTC time as ISO-8601 ("2026-08-08T12:34:56Z").
inline std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32] = {};
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The `meta` object every BENCH_*.json embeds: enough provenance to
/// compare two result files without the shell history that produced them.
/// `indent` is the prefix of the line the object starts on.
inline std::string meta_json(unsigned worker_width,
                             const std::string& indent = "  ") {
  std::ostringstream os;
  os << "{\n"
     << indent << "  \"git_sha\": \"" << run_git_sha() << "\",\n"
     << indent << "  \"build_type\": \"" << LAC_BUILD_TYPE << "\",\n"
     << indent << "  \"timestamp\": \"" << iso8601_utc_now() << "\",\n"
     << indent << "  \"worker_width\": " << worker_width << "\n"
     << indent << "}";
  return os.str();
}

}  // namespace lac::bench
