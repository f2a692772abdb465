#include "util/args.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/require.hpp"

namespace ckd::util {

namespace {

/// Abort naming the flag and its value unless `wellFormed`.
void requireValue(bool wellFormed, const std::string& key,
                  const std::string& value, const char* want) {
  if (wellFormed) return;
  const std::string msg =
      "--" + key + " needs " + want + ", got '" + value + "'";
  CKD_REQUIRE(wellFormed, msg.c_str());
}

/// True when a strtoll/strtod parse of `text` that stopped at `end` took all
/// of it (no leading blanks, no trailing characters) and stayed in range.
bool parsedWhole(const std::string& text, const char* end) {
  return !text.empty() &&
         !std::isspace(static_cast<unsigned char>(text.front())) &&
         end == text.c_str() + text.size() && errno != ERANGE;
}

std::int64_t parseInt(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  requireValue(parsedWhole(text, end), key, text, "an integer");
  return value;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" if the next token is not itself a flag; bare "--flag"
    // otherwise.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::getInt(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  return parseInt(key, it->second);
}

double Args::getDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  requireValue(parsedWhole(it->second, end), key, it->second, "a number");
  return value;
}

bool Args::getBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on")
    return true;
  requireValue(v == "0" || v == "false" || v == "no" || v == "off", key, v,
               "1/0, true/false, yes/no or on/off");
  return false;
}

std::vector<std::int64_t> Args::getIntList(
    const std::string& key, const std::vector<std::int64_t>& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  std::vector<std::int64_t> out;
  const std::string& text = it->second;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(parseInt(key, text.substr(start, comma - start)));
    start = comma + 1;
  }
  return out;
}

}  // namespace ckd::util
