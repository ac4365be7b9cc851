#include "util/strings.hpp"

#include <algorithm>
#include <cctype>

namespace sage::util {

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t end = s.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    if (end > start) out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::vector<std::string> split_keep_empty(std::string_view s, std::string_view sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, end - start));
    start = end + sep.size();
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string to_lower(std::string_view s) {
  // ASCII only, as std::tolower maps bytes in the C locale, without a
  // library call per byte.
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string replace_all(std::string_view s, std::string_view from, std::string_view to) {
  std::string out;
  if (from.empty()) return std::string(s);
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::size_t indent_of(std::string_view line) {
  std::size_t indent = 0;
  for (char c : line) {
    if (c == ' ') {
      ++indent;
    } else if (c == '\t') {
      indent += 8;
    } else {
      break;
    }
  }
  return indent;
}

bool is_all_digits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; });
}

std::string to_snake_case(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool prev_sep = false;
  for (char c : s) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc)) {
      out += static_cast<char>(std::tolower(uc));
      prev_sep = false;
    } else if (!out.empty() && !prev_sep) {
      out += '_';
      prev_sep = true;
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace sage::util
