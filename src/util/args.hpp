#pragma once
// Tiny command-line parser for the bench / example binaries.
// Supports --flag, --key=value and --key value forms. A typed getter takes
// only a whole, in-range value (no trailing characters, so `--iters 5x` is
// not 5); anything else aborts via CKD_REQUIRE naming the flag and value.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ckd::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t getInt(const std::string& key, std::int64_t fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  /// Bare flag, 1, true, yes, on -> true; 0, false, no, off -> false.
  bool getBool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list, e.g. --procs=64,128,256.
  std::vector<std::int64_t> getIntList(
      const std::string& key, const std::vector<std::int64_t>& fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ckd::util
