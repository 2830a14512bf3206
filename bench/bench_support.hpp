#pragma once
// Run provenance for perfbench: the commit a binary was built from and the
// time it ran. perfbench/src/main.cpp is the only reader; it stays in
// bench/ because perfbench/CMakeLists.txt puts this directory on its
// include path.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

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

}  // namespace lac::bench
